(* Domain-safety and sharded-fleet regression tests.

   The first group hammers the host-side shared-state paths that used to
   be module-level globals (measurement memo, SHA scratch contexts) from
   two domains at once and checks the results against single-domain
   references — under the old globals these raced (torn Hashtbl entries,
   interleaved scratch absorptions); with Domain.DLS each domain owns its
   state and the content-keyed caches stay identity-preserving.

   The second group pins down the sharded fleet's core contract: the
   simulation is a pure function of the config — the domain count only
   chooses execution placement — so dispositions and summaries must be
   exactly equal for 1, 2, and 4 domains, across random workloads,
   policies, shard counts, and fault schedules. Every fleet, one shard
   included, runs the same epoch loop, so the third group checks that a
   one-shard fleet's results do not depend on the epoch width, and that
   its inline crash hooks (accepted only with one shard) run before any
   crash victim re-enters admission. *)

open Flicker_crypto
module Measurement = Flicker_core.Measurement
module Fleet = Flicker_service.Fleet
module Workload = Flicker_service.Workload
module Dispatch = Flicker_service.Dispatch
module Request = Flicker_service.Request
module Injector = Flicker_fault.Injector
module Serve = Flicker_serve.Serve
module Metrics = Flicker_obs.Metrics

(* --- DLS hammers ------------------------------------------------------ *)

(* join both domains and re-raise the first failure, so an assertion
   tripping inside a spawned domain fails the test instead of vanishing *)
let join_all domains =
  let results = List.map Domain.join domains in
  List.iter (function Ok () -> () | Error e -> raise e) results

let spawn_catching f =
  Domain.spawn (fun () ->
      match f () with () -> Ok () | exception e -> Error e)

let test_measurement_memo_two_domains () =
  let windows =
    Array.init 80 (fun i ->
        (* > 64-entry cache bound, so concurrent eviction runs too *)
        Printf.sprintf "window-%03d-%s" i (String.make 961 (Char.chr (33 + (i mod 90)))))
  in
  (* unmemoized reference digests, computed before any hammering *)
  let expected = Array.map Sha1.digest windows in
  let hammer () =
    Measurement.clear_cache ();
    for pass = 0 to 2 do
      ignore pass;
      Array.iteri
        (fun i w ->
          let d = Measurement.window_digest w in
          if not (String.equal d expected.(i)) then
            Alcotest.failf "torn or stale memo entry for window %d" i)
        windows
    done;
    let hits, misses = Measurement.cache_stats () in
    (* every access is accounted for on this domain's own stats *)
    Alcotest.(check int) "every lookup counted" (3 * Array.length windows)
      (hits + misses)
  in
  join_all [ spawn_catching hammer; spawn_catching hammer ];
  (* and the hammering never polluted this domain's view *)
  Array.iteri
    (fun i w ->
      Alcotest.(check string) "main-domain digest" expected.(i)
        (Measurement.window_digest w))
    windows

let test_sha_scratch_two_domains () =
  let inputs =
    Array.init 64 (fun i -> String.make ((i * 17 mod 300) + 1) (Char.chr (40 + i)))
  in
  (* sequential single-domain references *)
  let ref1 = Array.map Sha1.digest inputs in
  let ref256 = Array.map Sha256.digest inputs in
  let hammer () =
    for pass = 0 to 49 do
      ignore pass;
      Array.iteri
        (fun i s ->
          if not (String.equal (Sha1.digest s) ref1.(i)) then
            Alcotest.failf "Sha1.digest diverged concurrently on input %d" i;
          if not (String.equal (Sha256.digest s) ref256.(i)) then
            Alcotest.failf "Sha256.digest diverged concurrently on input %d" i)
        inputs
    done
  in
  join_all [ spawn_catching hammer; spawn_catching hammer ]

let test_eviction_keeps_working_set_warm () =
  Measurement.clear_cache ();
  let window i = Printf.sprintf "evict-%03d-%s" i (String.make 100 'w') in
  (* 65 distinct windows: one past the 64-entry bound. The old wholesale
     Hashtbl.reset at capacity flushed everything on the 65th insert;
     single-victim FIFO eviction only drops window 0. *)
  for i = 0 to 64 do
    ignore (Measurement.window_digest (window i))
  done;
  let hits0, misses0 = Measurement.cache_stats () in
  Alcotest.(check int) "all cold at first" 0 hits0;
  Alcotest.(check int) "65 misses" 65 misses0;
  for i = 1 to 64 do
    ignore (Measurement.window_digest (window i))
  done;
  let hits, misses = Measurement.cache_stats () in
  Alcotest.(check int) "only the FIFO victim was evicted" 64 hits;
  Alcotest.(check int) "no re-derivation of survivors" 65 misses

(* --- sharded fleet ---------------------------------------------------- *)

let strip_outputs dispositions =
  (* (id, disposition kind, completion platform, finalization time) —
     the multiset the determinism property is about *)
  List.map
    (fun ((r : Request.t), d) ->
      let at =
        match d with
        | Request.Completed c -> c.Request.finished_ms
        | Request.Rejected x -> x.at_ms
        | Request.Expired x -> x.at_ms
        | Request.Failed x -> x.at_ms
      in
      let platform =
        match d with Request.Completed c -> c.Request.platform | _ -> -1
      in
      (r.Request.id, Request.disposition_name d, platform, at))
    dispositions

let run_echo_case ~domains ~platforms ~shards ~batch ~policy ~faults
    ~retry_budget ~breaker_failures ~epoch_ms ~clients ~per_client ~work_ms
    ~deadline ~seed =
  let config =
    {
      Fleet.default_config with
      platforms;
      shards;
      domains;
      batch_size = batch;
      queue_depth = 8;
      policy;
      seed;
      faults;
      retry_budget;
      breaker_failures;
      epoch_ms;
    }
  in
  let fleet = Fleet.create ~config (Workload.echo ~work_ms ()) in
  Fleet.submit_open_loop fleet ~clients ~per_client ~mean_gap_ms:20.0
    ?deadline_ms:deadline
    ~payload:(fun ~client ~seq -> Printf.sprintf "mc-%d-%d" client seq)
    ();
  Fleet.run fleet;
  (Fleet.dispositions fleet, Fleet.summary fleet)

let test_rr_parity_across_domains () =
  let run ~domains =
    let config =
      {
        Fleet.default_config with
        platforms = 4;
        shards = 2;
        domains;
        batch_size = 1;
        policy = Dispatch.Round_robin;
        seed = "rr-parity";
      }
    in
    let fleet = Fleet.create ~config (Workload.echo ~work_ms:30.0 ()) in
    for i = 1 to 16 do
      ignore (Fleet.submit fleet (Printf.sprintf "rr-%d" i))
    done;
    Fleet.run fleet;
    let order =
      (* dispatch order: which platform served each request, by id *)
      List.filter_map
        (fun ((r : Request.t), d) ->
          match d with
          | Request.Completed c -> Some (r.Request.id, c.Request.platform)
          | _ -> None)
        (Fleet.dispositions fleet)
    in
    (order, Fleet.summary fleet)
  in
  let order1, s1 = run ~domains:1 in
  let order4, s4 = run ~domains:4 in
  Alcotest.(check (list (pair int int)))
    "round-robin dispatch order identical for 1 and 4 domains" order1 order4;
  Alcotest.(check bool) "summaries identical" true (s1 = s4);
  (* and the shard-local cursors actually rotated within each window *)
  let platforms_hit = List.sort_uniq compare (List.map snd order1) in
  Alcotest.(check (list int)) "every platform served" [ 0; 1; 2; 3 ] platforms_hit

let test_cross_shard_forwarding () =
  let config =
    {
      Fleet.default_config with
      platforms = 2;
      shards = 2;
      domains = 2;
      batch_size = 1;
      queue_depth = 8;
      policy = Dispatch.Least_loaded;
      seed = "forward";
    }
  in
  let fleet = Fleet.create ~config (Workload.echo ~work_ms:10.0 ()) in
  (* shard 0's only platform goes down: its arrivals cannot be placed
     locally and must ride the barrier to shard 1 *)
  Fleet.crash_platform fleet 0;
  Alcotest.(check bool) "platform 0 down" false (Fleet.platform_up fleet 0);
  let ids = List.init 6 (fun i -> Fleet.submit fleet (Printf.sprintf "f-%d" i)) in
  Fleet.run fleet;
  let s = Fleet.summary fleet in
  Alcotest.(check int) "everything completed" 6 s.Fleet.completed;
  Alcotest.(check bool) "requests crossed shards" true (s.Fleet.forwarded > 0);
  List.iter
    (fun id ->
      match Fleet.disposition_of fleet id with
      | Some (Request.Completed c) ->
          Alcotest.(check int) "served by shard 1's platform" 1 c.Request.platform
      | d ->
          Alcotest.failf "request %d: expected completion, got %s" id
            (match d with
            | Some disp -> Request.disposition_name disp
            | None -> "nothing"))
    ids

(* --- one-shard fleet: inline hooks, epoch width invisible ------------- *)

let raises_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_hooks_need_one_shard () =
  let config =
    { Fleet.default_config with platforms = 2; shards = 2; seed = "two-shard" }
  in
  let fleet = Fleet.create ~config (Workload.echo ()) in
  raises_invalid "add_crash_hook" (fun () -> Fleet.add_crash_hook fleet ignore);
  raises_invalid "set_interceptor" (fun () ->
      Fleet.set_interceptor fleet (fun _ -> None));
  raises_invalid "Serve.create" (fun () ->
      Serve.create
        ~config:{ Serve.default_config with Serve.fleet = config }
        ())

(* the crash-heavy shape both one-shard tests share: 3 platforms
   serving one request per session at half the default fault rates,
   two retries per request *)
let crashy_config ~seed ~epoch_ms =
  {
    Fleet.default_config with
    platforms = 3;
    queue_depth = 16;
    batch_size = 1;
    seed;
    faults = Some (Injector.scaled 0.5);
    retry_budget = 2;
    epoch_ms;
  }

let epoch_widths = [ 1.0; 250.0; 1e9 ]

type admission_event = Crash of int | Readmit of int * int

let test_hooks_run_before_readmission () =
  let run epoch_ms =
    let fleet =
      Fleet.create
        ~config:(crashy_config ~seed:"hook-order" ~epoch_ms)
        (Workload.echo ~work_ms:40.0 ())
    in
    let log = ref [] and hooks_run = ref 0 in
    Fleet.add_crash_hook fleet (fun g ->
        incr hooks_run;
        log := Crash g :: !log);
    Fleet.set_interceptor fleet (fun req ->
        if req.Request.attempts > 0 then begin
          (* a re-admission: every crash so far has had its hook *)
          let crashes = Metrics.counter (Fleet.metrics fleet) "fleet.crashes" in
          if crashes <> !hooks_run then
            Alcotest.failf "request %d re-admitted with %d crashes but %d hooks run"
              req.Request.id crashes !hooks_run;
          log := Readmit (req.Request.id, req.Request.attempts) :: !log
        end;
        None);
    Fleet.submit_open_loop fleet ~clients:4 ~per_client:10 ~mean_gap_ms:20.0
      ~payload:(fun ~client ~seq -> Printf.sprintf "order-%d-%d" client seq)
      ();
    Fleet.run fleet;
    (List.rev !log, Fleet.dispositions fleet, Fleet.summary fleet)
  in
  let runs = List.map run epoch_widths in
  let log, d, s = List.hd runs in
  Alcotest.(check bool) "crashes happened" true (s.Fleet.crashes > 0);
  Alcotest.(check bool) "victims were re-admitted" true (s.Fleet.redispatched > 0);
  Alcotest.(check int) "one hook per crash" s.Fleet.crashes
    (List.length (List.filter (function Crash _ -> true | _ -> false) log));
  List.iter
    (fun (log', d', s') ->
      Alcotest.(check bool) "same crash/re-admission order" true (log = log');
      Alcotest.(check bool) "same dispositions" true (d = d');
      Alcotest.(check bool) "same summary" true (s = s'))
    (List.tl runs)

let test_serve_epoch_width_invisible () =
  let run epoch_ms =
    let config =
      {
        Serve.default_config with
        Serve.fleet = crashy_config ~seed:"serve-epochs" ~epoch_ms;
      }
    in
    let t = Serve.create ~config () in
    let fleet = Serve.fleet t in
    (* runs after the tier's own hook: (platform, crash time) in order *)
    let crashes = ref [] in
    Fleet.add_crash_hook fleet (fun g ->
        crashes := (g, Fleet.now_ms fleet) :: !crashes);
    (* half the load repeats one of five payloads, half is unique *)
    Fleet.submit_open_loop fleet ~clients:4 ~per_client:10 ~mean_gap_ms:20.0
      ~payload:(fun ~client ~seq ->
        let k = (client * 10) + seq in
        if k mod 2 = 0 then Printf.sprintf "hot-%d" (k / 2 mod 5)
        else Printf.sprintf "cold-%d" k)
      ();
    Fleet.run fleet;
    (* the tier's hook runs at the crash, so no hit served later in
       virtual time can carry a bundle quoted before that crash: a
       bundle from [boots] reboots ago is dead from its platform's next
       crash on *)
    let crash_times g =
      List.rev !crashes |> List.filter (fun (p, _) -> p = g) |> List.map snd
    in
    List.iter
      (fun ((r : Request.t), d) ->
        match (d, Serve.bundle_for t r.Request.id) with
        | Request.Completed c, Some b when c.Request.batch = 0 -> (
            match List.nth_opt (crash_times b.Serve.platform) b.Serve.boots with
            | Some at when c.Request.dispatched_ms > at ->
                Alcotest.failf "request %d hit a bundle its platform lost at %.1f ms"
                  r.Request.id at
            | _ -> ())
        | _ -> ())
      (Fleet.dispositions fleet);
    let hits = Serve.appraise_hits t in
    ( Fleet.dispositions fleet,
      Fleet.summary fleet,
      hits,
      Metrics.counters (Serve.metrics t) )
  in
  let runs = List.map run epoch_widths in
  let d, s, hits, m = List.hd runs in
  Alcotest.(check bool) "crashes happened" true (s.Fleet.crashes > 0);
  Alcotest.(check bool) "victims re-dispatched" true (s.Fleet.redispatched > 0);
  Alcotest.(check bool) "cache hits served" true (s.Fleet.cache_served > 0);
  Alcotest.(check int) "every hit appraised" s.Fleet.cache_served
    (hits.Serve.ok + hits.Serve.stale + hits.Serve.bad);
  Alcotest.(check int) "no hit is bad" 0 hits.Serve.bad;
  List.iter
    (fun (d', s', hits', m') ->
      Alcotest.(check bool) "same dispositions" true (d = d');
      Alcotest.(check bool) "same summary" true (s = s');
      Alcotest.(check bool) "same hit appraisal" true (hits = hits');
      Alcotest.(check bool) "same serve metrics" true (m = m'))
    (List.tl runs)

(* every case runs at 1, 2 and 4 shards, each on 1, 2 and 4 domains *)
let prop_domain_count_invisible =
  QCheck.Test.make ~name:"random workload x seed x {1,2,4} domains agree"
    ~count:2
    QCheck.(int_bound 100_000)
    (fun n ->
      let rng = Prng.create ~seed:(Printf.sprintf "mc-prop-%d" n) in
      let platforms = 4 + Prng.int_below rng 2 in
      let batch = 1 + Prng.int_below rng 3 in
      let policy =
        match Prng.int_below rng 3 with
        | 0 -> Dispatch.Round_robin
        | 1 -> Dispatch.Least_loaded
        | _ -> Dispatch.Sealed_affinity
      in
      let faulty = Prng.int_below rng 2 = 1 in
      let faults = if faulty then Some (Injector.scaled 0.25) else None in
      let retry_budget = if faulty then 2 else 0 in
      let breaker_failures = if faulty then 2 else 0 in
      let epoch_ms = if Prng.int_below rng 2 = 0 then 50.0 else 250.0 in
      let clients = 1 + Prng.int_below rng 3 in
      let per_client = 1 + Prng.int_below rng 4 in
      let work_ms = 10.0 +. float_of_int (Prng.int_below rng 90) in
      let deadline =
        if Prng.int_below rng 3 = 0 then Some 500.0 else None
      in
      let seed = Printf.sprintf "mc-case-%d" n in
      List.iter
        (fun shards ->
          let case domains =
            run_echo_case ~domains ~platforms ~shards ~batch ~policy ~faults
              ~retry_budget ~breaker_failures ~epoch_ms ~clients ~per_client
              ~work_ms ~deadline ~seed
          in
          let d1, s1 = case 1 in
          List.iter
            (fun domains ->
              let d, s = case domains in
              if strip_outputs d <> strip_outputs d1 then
                QCheck.Test.fail_reportf
                  "finalized multisets differ at %d shards, %d domains" shards
                  domains;
              if d <> d1 then
                QCheck.Test.fail_reportf
                  "full dispositions differ at %d shards, %d domains" shards
                  domains;
              if s <> s1 then
                QCheck.Test.fail_reportf
                  "summaries differ at %d shards, %d domains" shards domains)
            [ 2; 4 ])
        [ 1; 2; 4 ];
      true)

let () =
  Alcotest.run "multicore"
    [
      ( "domain safety",
        [
          Alcotest.test_case "measurement memo: 2-domain hammer" `Quick
            test_measurement_memo_two_domains;
          Alcotest.test_case "sha scratch: 2-domain hammer" `Quick
            test_sha_scratch_two_domains;
          Alcotest.test_case "memo eviction keeps 65-image set warm" `Quick
            test_eviction_keeps_working_set_warm;
        ] );
      ( "sharded fleet",
        [
          Alcotest.test_case "round-robin parity: 1 vs 4 domains" `Quick
            test_rr_parity_across_domains;
          Alcotest.test_case "cross-shard forwarding completes" `Quick
            test_cross_shard_forwarding;
          QCheck_alcotest.to_alcotest prop_domain_count_invisible;
        ] );
      ( "single shard",
        [
          Alcotest.test_case "hooks and interceptors need one shard" `Quick
            test_hooks_need_one_shard;
          Alcotest.test_case "crash hooks run before re-admission" `Quick
            test_hooks_run_before_readmission;
          Alcotest.test_case "serve tier: epoch width invisible" `Quick
            test_serve_epoch_width_invisible;
        ] );
    ]
