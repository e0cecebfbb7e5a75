(* Tests for the observability subsystem (flicker_obs) and the bugfix
   regressions that ride with it: the TPM-driver claim leak, the DEV
   out-of-range policy, and zero-byte GetRandom timing. *)

open Flicker_obs
module Machine = Flicker_hw.Machine
module Clock = Flicker_hw.Clock
module Timing = Flicker_hw.Timing
module Dev = Flicker_hw.Dev
module Dma = Flicker_hw.Dma
module Tpm = Flicker_tpm.Tpm
module Scheduler = Flicker_os.Scheduler
module Pal_env = Flicker_slb.Pal_env
module Mod_tpm_driver = Flicker_slb.Mod_tpm_driver
module Platform = Flicker_core.Platform
module Session = Flicker_core.Session
module Prng = Flicker_crypto.Prng

let make_tracer ?capacity () =
  let t_ref = ref 0.0 in
  let tracer = Tracer.create ?capacity ~now:(fun () -> !t_ref) () in
  (tracer, fun ms -> t_ref := !t_ref +. ms)

(* --- tracer --- *)

let test_span_nesting () =
  let tracer, advance = make_tracer () in
  let outer = Tracer.begin_span tracer ~cat:"test" "outer" in
  advance 1.0;
  Tracer.with_span tracer ~cat:"test" "inner" (fun () -> advance 2.0);
  advance 1.0;
  Tracer.end_span tracer outer;
  match Tracer.events tracer with
  | [ inner; outer ] ->
      Alcotest.(check string) "inner first (ends first)" "inner" inner.Tracer.name;
      Alcotest.(check string) "outer second" "outer" outer.Tracer.name;
      let dur e =
        match e.Tracer.kind with
        | Tracer.Span { dur } -> dur
        | Tracer.Instant -> Alcotest.fail "expected a span"
      in
      Alcotest.(check (float 1e-9)) "inner duration" 2.0 (dur inner);
      Alcotest.(check (float 1e-9)) "outer duration" 4.0 (dur outer);
      (* containment: the inner span lies inside the outer one *)
      Alcotest.(check bool) "inner starts after outer" true
        (inner.Tracer.ts >= outer.Tracer.ts);
      Alcotest.(check bool) "inner ends before outer" true
        (inner.Tracer.ts +. dur inner <= outer.Tracer.ts +. dur outer)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_span_on_exception () =
  let tracer, advance = make_tracer () in
  (try
     Tracer.with_span tracer "doomed" (fun () ->
         advance 3.0;
         raise Exit)
   with Exit -> ());
  match Tracer.events tracer with
  | [ { Tracer.name = "doomed"; kind = Tracer.Span { dur }; _ } ] ->
      Alcotest.(check (float 1e-9)) "span recorded despite raise" 3.0 dur
  | _ -> Alcotest.fail "span not recorded on exception"

let test_ring_bounding () =
  let tracer, advance = make_tracer ~capacity:8 () in
  for i = 1 to 20 do
    advance 1.0;
    Tracer.record tracer ~cat:"event" ~render:Tracer.plain ~code:0 ~n:0 ~s:""
      (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "capacity" 8 (Tracer.capacity tracer);
  Alcotest.(check int) "length bounded" 8 (Tracer.length tracer);
  Alcotest.(check int) "evictions counted" 12 (Tracer.dropped tracer);
  let names = List.map (fun e -> e.Tracer.name) (Tracer.events tracer) in
  Alcotest.(check (list string)) "last 8, oldest first"
    [ "e13"; "e14"; "e15"; "e16"; "e17"; "e18"; "e19"; "e20" ]
    names;
  Tracer.clear tracer;
  Alcotest.(check int) "clear empties" 0 (Tracer.length tracer);
  Alcotest.(check int) "clear resets dropped" 0 (Tracer.dropped tracer)

(* --- metrics --- *)

let test_counters () =
  let m = Metrics.create () in
  Alcotest.(check int) "unknown is 0" 0 (Metrics.counter m "nope");
  Metrics.incr m "a";
  Metrics.incr m ~by:4 "a";
  Metrics.incr m "b";
  Alcotest.(check int) "accumulates" 5 (Metrics.counter m "a");
  Alcotest.(check (list (pair string int))) "sorted listing"
    [ ("a", 5); ("b", 1) ] (Metrics.counters m);
  Alcotest.(check bool) "negative by rejected" true
    (match Metrics.incr m ~by:(-1) "a" with
    | exception Invalid_argument _ -> true
    | () -> false);
  Metrics.reset m;
  Alcotest.(check int) "reset" 0 (Metrics.counter m "a")

let test_histograms () =
  let m = Metrics.create () in
  List.iter (Metrics.observe m "lat") [ 1.0; 2.0; 3.0 ];
  (match Metrics.histogram m "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count" 3 h.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum" 6.0 h.Metrics.sum;
      Alcotest.(check (float 1e-9)) "mean" 2.0 h.Metrics.mean;
      Alcotest.(check (float 1e-9)) "min" 1.0 h.Metrics.min_v;
      Alcotest.(check (float 1e-9)) "max" 3.0 h.Metrics.max_v;
      Alcotest.(check bool) "p50 in range" true
        (h.Metrics.p50 >= 1.0 && h.Metrics.p50 <= 3.0);
      Alcotest.(check bool) "p99 in range" true
        (h.Metrics.p99 >= 1.0 && h.Metrics.p99 <= 3.0));
  (* single-value series: percentiles clamp to the exact value *)
  Metrics.observe m "single" 42.0;
  match Metrics.histogram m "single" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check (float 1e-9)) "single p50" 42.0 h.Metrics.p50;
      Alcotest.(check (float 1e-9)) "single p99" 42.0 h.Metrics.p99

(* Bucket placement seen through the public summary: with one sample
   at a bucket's bound and one at the top, the p50 is the low sample's
   bucket bound. A sample exactly on bound i lands in bucket i, and the
   next float above it lands in bucket i + 1. The top bucket also holds
   everything past its bound, so only the first case reaches it. *)
let test_bucket_placement () =
  let bound i = 1e-6 *. (2.0 ** Float.of_int i) in
  let p50 low =
    let m = Metrics.create () in
    Metrics.observe m "lat" low;
    Metrics.observe m "lat" Float.max_float;
    (Option.get (Metrics.histogram m "lat")).Metrics.p50
  in
  for i = 0 to 63 do
    Alcotest.(check (float 0.0)) (Printf.sprintf "bound %d" i) (bound i) (p50 (bound i))
  done;
  for i = 0 to 62 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "just above bound %d" i)
      (bound (i + 1))
      (p50 (Float.succ (bound i)))
  done

let test_observe_guard () =
  (* regression: a single NaN sample used to poison sum/mean/min/max for
     the rest of the series; negatives broke the bucket walk. Both must
     be dropped and counted, leaving the good samples' stats intact. *)
  let m = Metrics.create () in
  List.iter (Metrics.observe m "lat") [ 1.0; Float.nan; -5.0; 3.0; Float.neg_infinity ];
  match Metrics.histogram m "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "count excludes dropped" 2 h.Metrics.count;
      Alcotest.(check int) "dropped counted" 3 h.Metrics.dropped;
      Alcotest.(check (float 1e-9)) "sum unpoisoned" 4.0 h.Metrics.sum;
      Alcotest.(check (float 1e-9)) "mean unpoisoned" 2.0 h.Metrics.mean;
      Alcotest.(check (float 1e-9)) "min unpoisoned" 1.0 h.Metrics.min_v;
      Alcotest.(check (float 1e-9)) "max unpoisoned" 3.0 h.Metrics.max_v;
      Alcotest.(check bool) "p50 finite" true (Float.is_finite h.Metrics.p50)

(* --- JSON / exporters --- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\n\t");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Float 2.25; Json.String "x" ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_control_chars () =
  (* every control character 0x00-0x1F must survive a round-trip — PAL
     inputs/outputs are arbitrary bytes and end up in trace args *)
  for c = 0 to 0x1f do
    let s = Printf.sprintf "a%cb" (Char.chr c) in
    let v = Json.Obj [ ("k", Json.String s) ] in
    match Json.of_string (Json.to_string v) with
    | Ok v' ->
        Alcotest.(check bool) (Printf.sprintf "0x%02x roundtrip" c) true (v = v')
    | Error e -> Alcotest.failf "0x%02x: parse failed: %s" c e
  done;
  (* the full span in one string, plus the chars with short escapes *)
  let all = String.init 0x20 Char.chr ^ "\"\\/" in
  match Json.of_string (Json.to_string (Json.String all)) with
  | Ok (Json.String s) -> Alcotest.(check string) "all controls" all s
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_chrome_trace_wellformed () =
  let tracer, advance = make_tracer () in
  Tracer.record tracer ~cat:"event"
    ~render:(fun name _ _ v -> (name, [ ("k", Tracer.Str v) ]))
    ~code:0 ~n:0 ~s:"v" "boot";
  let h = Tracer.begin_span tracer ~cat:"phase" "work" in
  advance 2.5;
  Tracer.end_span tracer h;
  let s = Export.chrome_trace_string ~process_name:"test" tracer in
  match Json.of_string s with
  | Error e -> Alcotest.failf "trace JSON unparsable: %s" e
  | Ok json -> (
      match Json.member "traceEvents" json with
      | Some (Json.List evs) ->
          (* metadata + instant + span *)
          Alcotest.(check int) "event count" 3 (List.length evs);
          let has ph =
            List.exists
              (fun e -> Json.member "ph" e = Some (Json.String ph))
              evs
          in
          Alcotest.(check bool) "has metadata" true (has "M");
          Alcotest.(check bool) "has instant" true (has "i");
          Alcotest.(check bool) "has span" true (has "X");
          let span =
            List.find (fun e -> Json.member "ph" e = Some (Json.String "X")) evs
          in
          (match Option.bind (Json.member "dur" span) Json.to_float with
          | Some d ->
              (* 2.5 simulated ms = 2500 trace-format microseconds *)
              Alcotest.(check (float 1e-6)) "ms to us" 2500.0 d
          | None -> Alcotest.fail "span missing dur")
      | _ -> Alcotest.fail "traceEvents missing")

let test_stats_json () =
  let m = Metrics.create () in
  Metrics.incr m "runs";
  Metrics.observe m "lat" 4.0;
  (* a ring of 2 that saw 3 events: 2 retained, 1 dropped *)
  let tracer, _ = make_tracer ~capacity:2 () in
  for _ = 1 to 3 do
    Tracer.record tracer ~cat:"event" ~render:Tracer.plain ~code:0 ~n:0 ~s:"" "e"
  done;
  match Json.of_string (Json.to_string (Export.stats_json ~tracer m)) with
  | Error e -> Alcotest.failf "stats JSON unparsable: %s" e
  | Ok json ->
      (match Json.member "counters" json with
      | Some (Json.Obj [ ("runs", Json.Int 1) ]) -> ()
      | _ -> Alcotest.fail "counters wrong");
      (match Json.member "histograms" json with
      | Some (Json.List [ h ]) ->
          Alcotest.(check bool) "histogram named" true
            (Json.member "name" h = Some (Json.String "lat"))
      | _ -> Alcotest.fail "histograms wrong");
      (match Json.member "trace" json with
      | Some (Json.Obj [ ("events", Json.Int 2); ("dropped", Json.Int 1) ]) -> ()
      | _ -> Alcotest.fail "trace counts wrong");
      Alcotest.(check bool) "summary shows the drops" true
        (let summary = Export.stats_summary ~tracer m in
         List.exists
           (fun line ->
             List.filter (( <> ) "") (String.split_on_char ' ' line)
             = [ "events"; "dropped"; "1" ])
           (String.split_on_char '\n' summary))

(* --- bench diff --- *)

let doc records =
  (* records: (label, metric fields) under one artifact tag *)
  Json.List
    (List.map
       (fun (label, fields) ->
         Json.Obj
           (("artifact", Json.String "t") :: ("label", Json.String label) :: fields))
       records)

let diff baseline current =
  match Bench_diff.compare ~baseline ~current with
  | Ok r -> r
  | Error e -> Alcotest.failf "compare failed: %s" e

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_bench_diff_clean () =
  let d =
    doc
      [
        ("a", [ ("ms", Json.Float 1.5); ("ops", Json.Int 9) ]);
        ("b", [ ("ops", Json.Int 2) ]);
      ]
  in
  let r = diff d d in
  Alcotest.(check int) "records" 2 r.Bench_diff.records_compared;
  (* identity fields (artifact, label) are compared like any other *)
  Alcotest.(check int) "fields" 7 r.Bench_diff.fields_identical;
  Alcotest.(check bool) "clean" true (Bench_diff.clean r)

let test_bench_diff_metric_change () =
  let base = doc [ ("a", [ ("ops", Json.Int 9) ]) ] in
  let cur = doc [ ("a", [ ("ops", Json.Int 8) ]) ] in
  let r = diff base cur in
  Alcotest.(check bool) "not clean" false (Bench_diff.clean r);
  match r.Bench_diff.regressions with
  | [ d ] ->
      Alcotest.(check string) "record" "t/a" d.Bench_diff.record;
      Alcotest.(check string) "field" "ops" d.Bench_diff.field
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l)

let test_bench_diff_wall_band () =
  let base = doc [ ("a", [ ("wall_ms", Json.Float 10.0) ]) ] in
  let near = doc [ ("a", [ ("wall_ms", Json.Float 11.0) ]) ] in
  let far = doc [ ("a", [ ("wall_ms", Json.Float 20.0) ]) ] in
  let r = diff base near in
  Alcotest.(check int) "in band" 1 r.Bench_diff.wall_within;
  Alcotest.(check bool) "near clean" true (Bench_diff.clean r);
  let r = diff base far in
  Alcotest.(check int) "drifted" 1 (List.length r.Bench_diff.wall_drift);
  (* wall drift beyond the 25% band warns and never fails *)
  Alcotest.(check bool) "drift still clean" true (Bench_diff.clean r);
  let rendered = Bench_diff.render r in
  Alcotest.(check bool) "render warns" true
    (contains rendered "warning: wall-clock drift t/a wall_ms");
  Alcotest.(check bool) "render passes" true (contains rendered "bench diff: OK")

let test_bench_diff_schema () =
  let base = doc [ ("a", [ ("ops", Json.Int 1) ]); ("gone", []) ] in
  let cur =
    doc [ ("a", [ ("ops", Json.Int 1); ("extra_field", Json.Int 7) ]); ("new", []) ]
  in
  let r = diff base cur in
  Alcotest.(check (list string)) "missing" [ "t/gone" ] r.Bench_diff.missing;
  Alcotest.(check (list string)) "extra" [ "t/new" ] r.Bench_diff.extra;
  (* an unbaselined field is a schema regression too *)
  Alcotest.(check int) "field regressions" 1 (List.length r.Bench_diff.regressions);
  Alcotest.(check bool) "not clean" false (Bench_diff.clean r)

let test_bench_diff_duplicate_labels () =
  (* repeated (artifact, label) pairs pair up by occurrence order *)
  let base = doc [ ("a", [ ("v", Json.Int 1) ]); ("a", [ ("v", Json.Int 2) ]) ] in
  let cur = doc [ ("a", [ ("v", Json.Int 1) ]); ("a", [ ("v", Json.Int 3) ]) ] in
  let r = diff base cur in
  Alcotest.(check int) "records" 2 r.Bench_diff.records_compared;
  match r.Bench_diff.regressions with
  | [ d ] -> Alcotest.(check string) "second occurrence" "t/a#1" d.Bench_diff.record
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l)

let test_bench_diff_new_artifact () =
  (* an artifact with no baseline at all is flagged as such — not as
     per-record schema drift — and still fails the gate *)
  let tagged artifact label fields =
    Json.Obj
      (("artifact", Json.String artifact) :: ("label", Json.String label) :: fields)
  in
  let base = Json.List [ tagged "t" "a" [ ("ops", Json.Int 1) ] ] in
  let cur =
    Json.List
      [
        tagged "t" "a" [ ("ops", Json.Int 1) ];
        tagged "serve" "hit0" [ ("rps", Json.Int 7) ];
        tagged "serve" "hit90" [ ("rps", Json.Int 49) ];
      ]
  in
  let r = diff base cur in
  Alcotest.(check (list (pair string int)))
    "new artifact counted" [ ("serve", 2) ] r.Bench_diff.new_artifacts;
  Alcotest.(check (list string)) "not misreported as extra" [] r.Bench_diff.extra;
  Alcotest.(check int) "no field regressions" 0
    (List.length r.Bench_diff.regressions);
  Alcotest.(check bool) "still fails the gate" false (Bench_diff.clean r);
  let rendered = Bench_diff.render r in
  Alcotest.(check bool) "render names the missing baseline" true
    (contains rendered "BENCH_serve.json");
  Alcotest.(check bool) "render says not schema drift" true
    (contains rendered "not schema drift");
  (* a known artifact with a stray record is still plain schema drift *)
  let cur' =
    Json.List [ tagged "t" "a" [ ("ops", Json.Int 1) ]; tagged "t" "b" [] ]
  in
  let r' = diff base cur' in
  Alcotest.(check (list (pair string int)))
    "known artifact never flagged" [] r'.Bench_diff.new_artifacts;
  Alcotest.(check (list string)) "stray record is extra" [ "t/b" ]
    r'.Bench_diff.extra

let test_bench_diff_malformed () =
  let bad = Json.Obj [] in
  let ok = doc [] in
  Alcotest.(check bool) "non-array rejected" true
    (Result.is_error (Bench_diff.compare ~baseline:bad ~current:ok));
  let untagged = Json.List [ Json.Obj [ ("x", Json.Int 1) ] ] in
  Alcotest.(check bool) "untagged record rejected" true
    (Result.is_error (Bench_diff.compare ~baseline:ok ~current:untagged))

(* --- regression: TPM driver released on PAL exception --- *)

let make_env () =
  let machine = Machine.create ~memory_size:(1024 * 1024) Timing.default in
  let tpm = Tpm.create machine (Prng.create ~seed:"obs-env") ~key_bits:512 in
  Pal_env.create ~machine ~tpm ~rng:(Prng.create ~seed:"obs-rng") ~inputs:""
    ~inputs_addr:0x1000 ~outputs_addr:0x2000 ~protection:None ~heap:None

let test_with_tpm_releases_on_exception () =
  let drv = (make_env ()).Pal_env.tpm_driver in
  (match Mod_tpm_driver.with_tpm drv (fun _ -> raise Exit) with
  | exception Exit -> ()
  | Ok () | Error _ -> Alcotest.fail "callback exception should propagate");
  Alcotest.(check bool) "driver released after raise" false (Mod_tpm_driver.is_claimed drv);
  (* and it is actually claimable again *)
  (match Mod_tpm_driver.claim drv with
  | Ok () -> Mod_tpm_driver.release drv
  | Error e -> Alcotest.failf "driver still wedged: %s" e);
  (* the normal path still works *)
  match Mod_tpm_driver.with_tpm drv (fun _ -> Ok ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "normal path broken: %s" e

(* a nested claim is refused and leaves the outer one alone; the outer
   call still releases on return *)
let test_with_tpm_nested () =
  let drv = (make_env ()).Pal_env.tpm_driver in
  let inner =
    Mod_tpm_driver.with_tpm drv (fun _ ->
        let inner = Mod_tpm_driver.with_tpm drv (fun _ -> Ok ()) in
        Alcotest.(check bool) "outer claim kept" true (Mod_tpm_driver.is_claimed drv);
        Ok inner)
  in
  (match inner with
  | Ok (Error _) -> ()
  | Ok (Ok ()) -> Alcotest.fail "nested with_tpm claimed a claimed device"
  | Error e -> Alcotest.failf "outer with_tpm failed: %s" e);
  Alcotest.(check bool) "released after the outer call" false (Mod_tpm_driver.is_claimed drv)

(* --- regression: DEV fails closed beyond its coverage --- *)

let test_dev_out_of_range () =
  let dev = Dev.create ~pages:4 in
  (* 4 pages x 4096 = 16384 bytes covered *)
  Alcotest.(check bool) "in-range unprotected allows" true
    (Dev.allows dev ~addr:0 ~len:16384);
  Alcotest.(check bool) "straddling coverage is denied" false
    (Dev.allows dev ~addr:16000 ~len:1024);
  Alcotest.(check bool) "fully beyond coverage is denied" false
    (Dev.allows dev ~addr:20000 ~len:16);
  (* range ops on the uncovered region are no-ops, not crashes *)
  Dev.protect_range dev ~addr:20000 ~len:4096;
  Dev.unprotect_range dev ~addr:20000 ~len:4096;
  Alcotest.(check (list int)) "bitmap untouched" [] (Dev.protected_pages dev);
  (* per-page query on a nonexistent page is still a caller bug *)
  Alcotest.(check bool) "is_page_protected raises" true
    (match Dev.is_page_protected dev 4 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_dma_beyond_memory_blocked () =
  let machine = Machine.create ~memory_size:16384 Timing.default in
  let nic = Dma.create machine ~name:"evil-nic" in
  (match Dma.read nic ~addr:(10 * 16384) ~len:64 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "DMA beyond physical memory must be blocked");
  Alcotest.(check int) "blocked DMA counted" 1
    (Flicker_obs.Metrics.counter machine.Machine.metrics "dev.blocked_dma")

(* --- regression: zero-byte GetRandom costs nothing --- *)

let test_zero_byte_get_random () =
  Alcotest.(check (float 0.0)) "timing model" 0.0
    (Timing.get_random_ms Timing.default ~bytes:0);
  Alcotest.(check bool) "one block still costs" true
    (Timing.get_random_ms Timing.default ~bytes:1 > 0.0);
  let machine = Machine.create ~memory_size:16384 Timing.default in
  let tpm = Tpm.create machine (Prng.create ~seed:"zr") ~key_bits:512 in
  let t0 = Clock.now machine.Machine.clock in
  Alcotest.(check string) "empty string back" "" (Tpm.get_random tpm 0);
  Alcotest.(check (float 0.0)) "clock unmoved" t0 (Clock.now machine.Machine.clock)

(* --- regression: long-running platforms keep bounded event memory --- *)

let test_bounded_event_memory () =
  let machine =
    Machine.create ~memory_size:(1024 * 1024) ~trace_capacity:256 Timing.default
  in
  let sched = Scheduler.create machine in
  for _ = 1 to 10_000 do
    Scheduler.suspend sched;
    Machine.log_event machine "tick";
    Scheduler.resume sched
  done;
  Alcotest.(check bool) "retained events bounded" true
    (Tracer.length machine.Machine.tracer <= 256);
  Alcotest.(check bool) "older events were evicted" true
    (Tracer.dropped machine.Machine.tracer > 0);
  Alcotest.(check int) "suspensions all counted" 10_000
    (Metrics.counter machine.Machine.metrics "os.suspensions")

let test_session_events_bounded () =
  (* real sessions through the full stack also stay within the ring *)
  let p = Platform.create ~seed:"obs-sessions" () in
  let pal =
    Flicker_slb.Pal.define ~name:"obs-noop" (fun env ->
        Flicker_slb.Pal_env.set_output env "ok")
  in
  for _ = 1 to 5 do
    match Session.execute p ~pal () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "session failed: %s" (Format.asprintf "%a" Session.pp_error e)
  done;
  let machine = p.Platform.machine in
  Alcotest.(check bool) "events within capacity" true
    (Tracer.length machine.Machine.tracer <= Tracer.capacity machine.Machine.tracer);
  Alcotest.(check int) "runs counted" 5
    (Metrics.counter machine.Machine.metrics "session.runs");
  (* every phase of the last session appears as a span on the tracer *)
  let span_names =
    List.filter_map
      (fun e ->
        match e.Tracer.kind with
        | Tracer.Span _ when e.Tracer.cat = "session.phase" -> Some e.Tracer.name
        | _ -> None)
      (Tracer.events machine.Machine.tracer)
  in
  List.iter
    (fun phase ->
      let name = Session.phase_name phase in
      Alcotest.(check bool) (name ^ " span present") true
        (List.mem name span_names))
    [ Session.Load_slb; Session.Suspend_os; Session.Skinit; Session.Slb_init;
      Session.Pal_execution; Session.Cleanup; Session.Pcr_extends;
      Session.Resume_os ]

let () =
  Alcotest.run "obs"
    [
      ( "tracer",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span on exception" `Quick test_span_on_exception;
          Alcotest.test_case "ring bounding" `Quick test_ring_bounding;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "histograms" `Quick test_histograms;
          Alcotest.test_case "bucket placement" `Quick test_bucket_placement;
          Alcotest.test_case "observe drops NaN and negatives" `Quick
            test_observe_guard;
        ] );
      ( "export",
        [
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "json control chars" `Quick test_json_control_chars;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace_wellformed;
          Alcotest.test_case "stats json" `Quick test_stats_json;
        ] );
      ( "bench-diff",
        [
          Alcotest.test_case "identical is clean" `Quick test_bench_diff_clean;
          Alcotest.test_case "metric change regresses" `Quick
            test_bench_diff_metric_change;
          Alcotest.test_case "wall-clock tolerance band" `Quick
            test_bench_diff_wall_band;
          Alcotest.test_case "schema changes regress" `Quick
            test_bench_diff_schema;
          Alcotest.test_case "duplicate labels pair by occurrence" `Quick
            test_bench_diff_duplicate_labels;
          Alcotest.test_case "new artifact distinguished from drift" `Quick
            test_bench_diff_new_artifact;
          Alcotest.test_case "malformed input rejected" `Quick
            test_bench_diff_malformed;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "tpm driver released on exception" `Quick
            test_with_tpm_releases_on_exception;
          Alcotest.test_case "dev out of range" `Quick test_dev_out_of_range;
          Alcotest.test_case "dma beyond memory" `Quick
            test_dma_beyond_memory_blocked;
          Alcotest.test_case "zero-byte get_random" `Quick
            test_zero_byte_get_random;
          Alcotest.test_case "bounded event memory" `Quick
            test_bounded_event_memory;
          Alcotest.test_case "session events bounded" `Quick
            test_session_events_bounded;
          Alcotest.test_case "nested with_tpm refused" `Quick test_with_tpm_nested;
        ] );
    ]
