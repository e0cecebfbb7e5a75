(* Host-performance benchmark of the simulator.

     perf.exe --seed S [--json out.json] [--trace DIR] [--workload W] [--smoke]
     perf.exe compare A.json B.json
     perf.exe bench --workload W --seed S --seconds N --trace 0|1

   The first form runs each workload (or just W) in child processes of
   its own and prints every metric as "workload metric value unit".
   [--trace DIR] adds a run with span recording per workload, which
   writes DIR/<workload>.trace.json and gives the per-layer numbers;
   end-to-end numbers always come from untraced runs. [compare] applies
   the bounds of BENCHMARK.json to two --json outputs. [bench] measures
   one workload for about N seconds and ends with one JSON line holding
   the end-to-end metrics named in BENCHMARK.json (trace 0) or the
   per-layer ones (trace 1). *)

module Json = Flicker_obs.Json

let process_start_ns = Spans.now_ns ()
let secs ns = float_of_int ns /. 1e9

(* Simulated numbers and counts are taken over the first [window_rounds]
   timed rounds. *)
let window_rounds = 20

(* Set-up is measured in this many separate processes, and the median
   reported, so that no cache warmed by one set-up helps the next. *)
let setups = 3

(* --- the workload process ---------------------------------------------- *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> find ()
      in
      find ())

let gc_metrics ~(before : Gc.stat) ~(after : Gc.stat) ~ops =
  let words_mb w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0 in
  [
    Metric.host "gc.minor_mwords_per_kop" "Mw/kop"
      (Metric.ratio
         ((after.Gc.minor_words -. before.Gc.minor_words) /. 1e6)
         (float_of_int ops /. 1000.0));
    Metric.host "gc.major_collections" "count"
      (float_of_int (after.Gc.major_collections - before.Gc.major_collections));
    Metric.host "gc.top_heap_mb" "MB" (words_mb (float_of_int after.Gc.top_heap_words));
  ]

(* Build, warm up, run timed rounds until [seconds] have passed and the
   window is complete (one round in a smoke run), check, and print one
   JSON line for the parent. With [setup_only] only set-up is measured.
   The reference loop runs at the start, after each platform's prepare,
   after the warm-up and after every timed round; none of it is timed. *)
let child (w : Workloads.t) ~seed ~size ~seconds ~setup_only ~trace_file =
  if trace_file <> None then Spans.enable ();
  let input_ns = ref 0 in
  let untimed f =
    let t0 = Spans.now_ns () in
    let x = f () in
    input_ns := !input_ns + (Spans.now_ns () - t0);
    x
  in
  ignore (Refloop.sample ());
  let setup = untimed (fun () -> w.Workloads.make ~seed size) in
  let inst = Spans.with_span "setup" setup in
  let warm_up = untimed (fun () -> inst.Workloads.round 0) in
  ignore (Spans.with_span "round" ~ids:(fun () -> [ 0 ]) warm_up);
  let setup_ns = Spans.now_ns () - process_start_ns - !input_ns - Refloop.spent_ns () in
  let loop0 = Refloop.sample () in
  let setup_loop_ns = int_of_float (Metric.median (List.map float_of_int (Refloop.samples ()))) in
  let setup_times =
    [
      ("setup_s", Json.Float (Refloop.ref_s ~loop_ns:setup_loop_ns setup_ns));
      ("setup_host_s", Json.Float (secs setup_ns));
    ]
  in
  let result =
    if setup_only then setup_times
    else begin
      let window = match size with Workloads.Smoke -> 1 | Workloads.Full -> window_rounds in
      let before = inst.Workloads.counters () and gc0 = Gc.quick_stat () in
      let w0 = Spans.now_ns () in
      (* the window's closing marks are taken between rounds, outside
         every round's timer; the peak RSS is read there too, so that it
         covers the same work however many rounds the host fits in *)
      let marks = ref ([], gc0, w0, nan) in
      (* (ops, host ns, reference loop ns around the round), newest first *)
      let samples = ref [] and prev_loop = ref loop0 and rounds = ref 0 in
      while
        !rounds < window
        || (size = Workloads.Full && secs (Spans.now_ns () - w0) < seconds)
      do
        incr rounds;
        let r = !rounds in
        let go = inst.Workloads.round r in
        let t0 = Spans.now_ns () in
        let ops = Spans.with_span "round" ~ids:(fun () -> [ r ]) go in
        let dt = Spans.now_ns () - t0 in
        if r = window then
          marks := (inst.Workloads.counters (), Gc.quick_stat (), Spans.now_ns (), peak_rss_mb ());
        let loop = Refloop.sample () in
        samples := (ops, dt, (!prev_loop + loop) / 2) :: !samples;
        prev_loop := loop
      done;
      let samples = List.rev !samples in
      let after, gc1, w1, peak_rss = !marks in
      let delta name =
        let get l = Option.value (List.assoc_opt name l) ~default:0.0 in
        get after -. get before
      in
      let spans, dropped = Spans.collect () in
      let window_spans =
        List.filter (fun s -> s.Spans.start_ns >= w0 && s.Spans.stop_ns <= w1) spans
      in
      let o =
        inst.Workloads.report
          {
            Workloads.rounds = !rounds + 1;
            first = 1;
            last = window;
            delta;
            spans = window_spans;
            all_spans = spans;
          }
      in
      Option.iter
        (fun file ->
          Out_channel.with_open_text file (fun oc ->
              output_string oc (Json.to_string (Spans.chrome_trace spans ~dropped))))
        trace_file;
      let window_ops =
        List.fold_left (fun acc (ops, _, _) -> acc + ops) 0
          (List.filteri (fun i _ -> i < window) samples)
      in
      let metrics =
        o.Workloads.metrics @ gc_metrics ~before:gc0 ~after:gc1 ~ops:window_ops
      in
      setup_times
      @ [
          ( "rounds",
            Json.List
              (List.map
                 (fun (ops, ns, loop) -> Json.List [ Json.Int ops; Json.Int ns; Json.Int loop ])
                 samples) );
          ("peak_rss_mb", Json.Float peak_rss);
          ("attempted", Json.Int o.Workloads.attempted);
          ("failed", Json.Int o.Workloads.failed);
          ("deviations", Json.List (List.map (fun s -> Json.String s) o.Workloads.deviations));
          ("metrics", Json.List (List.map Metric.to_json metrics));
          ("spans", Json.Int (List.length spans));
          ("dropped", Json.Int dropped);
        ]
    end
  in
  print_endline (Json.to_string (Json.Obj result))

(* --- the parent ---------------------------------------------------------- *)

let size_flag = function Workloads.Full -> [] | Workloads.Smoke -> [ "--smoke" ]

(* run one workload process and parse the JSON line it ends with *)
let spawn ?(setup_only = false) (w : Workloads.t) ~seed ~size ~seconds ~trace_file =
  let args =
    [ "--child"; w.Workloads.name; "--seed"; string_of_int seed; "--seconds"; string_of_float seconds ]
    @ size_flag size
    @ (if setup_only then [ "--setup-only" ] else [])
    @ match trace_file with None -> [] | Some f -> [ "--trace-file"; f ]
  in
  let exe = Sys.executable_name in
  let r, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  let _, status = Unix.waitpid [] pid in
  let last_line =
    match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
    | l :: _ -> l
    | [] -> ""
  in
  match (status, Json.of_string last_line) with
  | Unix.WEXITED 0, Ok j -> j
  | _ -> failwith (Printf.sprintf "perf: the %s process failed" w.Workloads.name)

let field k j = Option.value (Json.member k j) ~default:Json.Null
let num k j = Option.value (Option.bind (Json.member k j) Json.to_float) ~default:nan
let int k j = int_of_float (num k j)
let list k j = match field k j with Json.List l -> l | _ -> []

type measured = {
  workload : string;
  metrics : Metric.t list;
  attempted : int;
  failed : int;
  deviations : string list;
}

(* per-round rates, in host seconds and in reference seconds, and the
   reference loop's time in ms beside each round *)
let round_rates j =
  let rounds =
    List.map
      (function
        | Json.List [ Json.Int ops; Json.Int ns; Json.Int loop_ns ] ->
            ( Metric.ratio (float_of_int ops) (secs ns),
              Metric.ratio (float_of_int ops) (Refloop.ref_s ~loop_ns ns),
              float_of_int loop_ns /. 1e6 )
        | _ -> (nan, nan, nan))
      (list "rounds" j)
  in
  let pick f = List.map f rounds in
  ( Metric.host_samples "ops_per_ref_s" "ops/ref_s" (pick (fun (_, r, _) -> r)),
    Metric.host_samples "ops_per_host_s" "ops/s" (pick (fun (h, _, _) -> h)),
    Metric.host_samples "host.ref_loop_ms" "ms" (pick (fun (_, _, l) -> l)) )

(* Untraced run(s) first, for every end-to-end number; then, with
   [trace_file], a traced run for the per-layer host times. The traced
   run must reproduce every simulated number exactly. *)
let measure (w : Workloads.t) ~seed ~size ~seconds ~setups ~trace_file =
  let main = spawn w ~seed ~size ~seconds ~trace_file:None in
  let extra =
    List.init (setups - 1) (fun _ ->
        spawn ~setup_only:true w ~seed ~size ~seconds ~trace_file:None)
  in
  let setup name = Metric.host_samples name "s" (List.map (num name) (main :: extra)) in
  let ops, host_ops, loop = round_rates main in
  let base = List.map Metric.of_json (list "metrics" main) in
  let deviations = List.map (function Json.String s -> s | _ -> "") (list "deviations" main) in
  let traced, trace_deviations =
    match trace_file with
    | None -> ([], [])
    | Some _ ->
        let t = spawn w ~seed ~size ~seconds ~trace_file in
        let tm = List.map Metric.of_json (list "metrics" t) in
        let in_base (m : Metric.t) =
          List.find_opt (fun (b : Metric.t) -> b.Metric.name = m.Metric.name) base
        in
        let mismatches =
          List.filter_map
            (fun (m : Metric.t) ->
              match in_base m with
              | Some b when m.Metric.kind = Metric.Sim && b.Metric.value <> m.Metric.value ->
                  Some (Printf.sprintf "traced run changed %s" m.Metric.name)
              | _ -> None)
            tm
        in
        let traced_ops, _, _ = round_rates t in
        ( List.filter (fun m -> in_base m = None) tm
          @ [
              Metric.host "trace.spans" "count" (num "spans" t);
              Metric.sim "trace.dropped" "count" (num "dropped" t);
              Metric.host "trace.overhead_pct" "%"
                (100.0
                *. Metric.ratio (ops.Metric.value -. traced_ops.Metric.value) ops.Metric.value);
            ],
          mismatches
          @ if int "dropped" t > 0 then [ "the span recorder dropped spans" ] else [] )
  in
  {
    workload = w.Workloads.name;
    (* end-to-end numbers first, then the host times they are made of;
       the workloads list their simulated end-to-end numbers first *)
    metrics =
      [
        setup "setup_s";
        ops;
        Metric.host "peak_rss_mb" "MB" (num "peak_rss_mb" main);
        setup "setup_host_s";
        host_ops;
        loop;
      ]
      @ base @ traced;
    attempted = int "attempted" main;
    failed = int "failed" main;
    deviations = deviations @ trace_deviations;
  }

let print_measured m =
  List.iter (fun x -> print_endline (Metric.pp_line ~workload:m.workload x)) m.metrics;
  List.iter (fun d -> Printf.eprintf "%s: check failed: %s\n" m.workload d) m.deviations

let measured_json m =
  Json.Obj
    [
      ("name", Json.String m.workload);
      ("attempted", Json.Int m.attempted);
      ("failed", Json.Int m.failed);
      ("deviations", Json.List (List.map (fun s -> Json.String s) m.deviations));
      ("metrics", Json.List (List.map Metric.to_json m.metrics));
    ]

(* --- BENCHMARK.json ------------------------------------------------------- *)

type spec_metric = { sname : string; sunit : string; better : string; bound : float option }

(* read from the directory the benchmark runs in, the repository root *)
let read_spec () =
  let path = "BENCHMARK.json" in
  let j =
    match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  in
  let metrics key =
    List.map
      (fun m ->
        let str k = match field k m with Json.String s -> s | _ -> "" in
        {
          sname = str "name";
          sunit = str "unit";
          better = str "better";
          bound = Option.bind (Json.member "bound" m) Json.to_float;
        })
      (list key j)
  in
  (metrics "end_to_end", metrics "per_layer")

(* --- bench: one workload, one JSON line ---------------------------------- *)

let bench ~workload ~seed ~seconds ~trace =
  let w =
    match Workloads.find workload with
    | Some w -> w
    | None -> failwith ("perf: unknown workload " ^ workload)
  in
  let e2e, per_layer = read_spec () in
  let m =
    if trace then begin
      let dir = Filename.concat "perf" "_out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      measure w ~seed ~size:Workloads.Full ~seconds ~setups:1
        ~trace_file:(Some (Filename.concat dir (w.Workloads.name ^ ".trace.json")))
    end
    else measure w ~seed ~size:Workloads.Full ~seconds ~setups ~trace_file:None
  in
  print_measured m;
  let wanted = if trace then per_layer else e2e in
  let value s =
    match List.find_opt (fun (x : Metric.t) -> x.Metric.name = s.sname) m.metrics with
    | Some x -> (x.Metric.value, x.Metric.unit_)
    | None -> (0.0, s.sunit)
  in
  let correct = m.deviations = [] in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int m.attempted);
            ("failed", Json.Int m.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun s ->
                     let v, u = value s in
                     (s.sname, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
                   wanted) );
          ]));
  if not correct then exit 1

(* --- compare -------------------------------------------------------------- *)

let load_run path =
  match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok j ->
      List.map
        (fun w ->
          let name = match field "name" w with Json.String s -> s | _ -> "" in
          (name, List.map Metric.of_json (list "metrics" w)))
        (list "workloads" j)

let spread (m : Metric.t) =
  match (m.Metric.q1, m.Metric.q3) with
  | Some q1, Some q3 -> Metric.ratio (q3 -. q1) (Float.abs m.Metric.value)
  | _ -> 0.0

(* one row per workload and metric; exit status 1 when a bounded metric
   regressed beyond its bound, a simulated one changed at all, or a
   workload or metric is in one run only (a partial or broken run) *)
let compare_runs a b =
  let e2e, _ = read_spec () in
  let ra = load_run a and rb = load_run b in
  let bad = ref false in
  let absent wname metric from =
    bad := true;
    Printf.printf "%-16s %-32s ABSENT from %s\n" wname metric from
  in
  let find name ms = List.find_opt (fun (y : Metric.t) -> y.Metric.name = name) ms in
  List.iter (fun (wname, _) -> if not (List.mem_assoc wname ra) then absent wname "" a) rb;
  List.iter
    (fun (wname, ma) ->
      match List.assoc_opt wname rb with
      | None -> absent wname "" b
      | Some mb ->
          List.iter
            (fun (y : Metric.t) -> if find y.Metric.name ma = None then absent wname y.Metric.name a)
            mb;
          List.iter
            (fun (x : Metric.t) ->
              match find x.Metric.name mb with
              | None -> absent wname x.Metric.name b
              | Some y ->
                  let verdict =
                    match (x.Metric.kind, List.find_opt (fun s -> s.sname = x.Metric.name) e2e) with
                    | Metric.Sim, _ ->
                        if Metric.pp_value x.Metric.value = Metric.pp_value y.Metric.value
                        then "same"
                        else begin
                          bad := true;
                          "CHANGED (must match exactly)"
                        end
                    | Metric.Host, Some { bound = Some bound; better; _ } ->
                        let change =
                          Metric.ratio (y.Metric.value -. x.Metric.value) x.Metric.value
                        in
                        let worse = if better = "lower" then change else -.change in
                        if Float.max (spread x) (spread y) > bound then
                          "unresolved (spread wider than bound)"
                        else if worse > bound then begin
                          bad := true;
                          Printf.sprintf "REGRESSED (bound %.0f%%)" (bound *. 100.0)
                        end
                        else if worse < -.bound then "improved"
                        else Printf.sprintf "within %.0f%%" (bound *. 100.0)
                    | Metric.Host, _ -> "host, no bound"
                  in
                  Printf.printf "%-16s %-32s %14s -> %-14s %+7.2f%%  %s\n" wname x.Metric.name
                    (Metric.pp_value x.Metric.value) (Metric.pp_value y.Metric.value)
                    (100.0 *. Metric.ratio (y.Metric.value -. x.Metric.value) x.Metric.value)
                    verdict)
            ma)
    ra;
  if !bad then exit 1

(* --- command line ----------------------------------------------------------- *)

let main () =
  let seed = ref 1 and json = ref None and trace = ref None and workload = ref None in
  let smoke = ref false and seconds = ref 0.0 and child_of = ref None in
  let setup_only = ref false and trace_file = ref None and anon = ref [] in
  let specs =
    [
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--json", Arg.String (fun s -> json := Some s), "FILE  write every metric as JSON");
      ("--trace", Arg.String (fun s -> trace := Some s), "DIR  (bench: 0|1) add a traced run");
      ("--workload", Arg.String (fun s -> workload := Some s), "W  run one workload");
      ("--smoke", Arg.Set smoke, " 1 round at 1/50 of the load, 8-platform echo fleet");
      ("--seconds", Arg.Set_float seconds, "S  measure for S seconds (at least the 20-round window)");
      ("--child", Arg.String (fun s -> child_of := Some s), "W  (internal) one workload process");
      ("--setup-only", Arg.Set setup_only, " (internal) measure set-up only");
      ("--trace-file", Arg.String (fun s -> trace_file := Some s), "F  (internal) trace output");
    ]
  in
  Arg.parse specs (fun a -> anon := !anon @ [ a ]) "perf.exe [compare A B | bench] [options]";
  let size = if !smoke then Workloads.Smoke else Workloads.Full in
  let find name =
    match Workloads.find name with
    | Some w -> w
    | None ->
        Printf.eprintf "perf: unknown workload %s (one of: %s)\n" name
          (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
        exit 2
  in
  match (!child_of, !anon) with
  | Some name, _ ->
      child (find name) ~seed:!seed ~size ~seconds:!seconds ~setup_only:!setup_only
        ~trace_file:!trace_file
  | None, [ "compare"; a; b ] -> compare_runs a b
  | None, [ "bench" ] ->
      let trace =
        match !trace with
        | Some "1" -> true
        | Some "0" | None -> false
        | Some t -> failwith ("perf bench: --trace takes 0 or 1, not " ^ t)
      in
      let workload = match !workload with Some w -> w | None -> failwith "perf bench: --workload" in
      bench ~workload ~seed:!seed ~seconds:!seconds ~trace
  | None, [] ->
      let selected = match !workload with None -> Workloads.all | Some n -> [ find n ] in
      Option.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) !trace;
      let results =
        List.map
          (fun w ->
            let m =
              measure w ~seed:!seed ~size ~seconds:!seconds
                ~setups:(if !smoke then 1 else setups)
                ~trace_file:
                  (Option.map
                     (fun d -> Filename.concat d (w.Workloads.name ^ ".trace.json"))
                     !trace)
            in
            print_measured m;
            m)
          selected
      in
      Option.iter
        (fun file ->
          Out_channel.with_open_text file (fun oc ->
              output_string oc
                (Json.to_string
                   (Json.Obj
                      [
                        ("seed", Json.Int !seed);
                        ("smoke", Json.Bool !smoke);
                        ("host_cores", Json.Int (Domain.recommended_domain_count ()));
                        ("ocaml", Json.String Sys.ocaml_version);
                        ("domains", Json.Int 1);
                        ("workloads", Json.List (List.map measured_json results));
                      ]))))
        !json;
      if List.exists (fun m -> m.deviations <> []) results then exit 1
  | None, _ ->
      prerr_endline "perf.exe: unknown command (see --help)";
      exit 2

let () = main ()
