(* Tests of the benchmark itself.

   The span recorder is hammered from two domains at once: every span
   must come back exactly once, whole, with its parent from the same
   domain, and none may be dropped. The smoke runs check the benchmark
   end to end at 1/50 of its load: the JSON carries every metric that
   BENCHMARK.json names, with the same unit; the same seed reproduces
   every simulated number; another seed changes them; [compare] refuses
   a run that lacks a workload or metric of the other. *)

module Json = Flicker_obs.Json

(* --- span recorder ------------------------------------------------------ *)

let join_all domains =
  List.iter (function Ok () -> () | Error e -> raise e) (List.map Domain.join domains)

let spawn_catching f = Domain.spawn (fun () -> match f () with () -> Ok () | exception e -> Error e)

let per_domain = 20_000

let test_two_domain_hammer () =
  Spans.enable ();
  (* each span's name and request ids both encode (domain tag, index),
     so a torn span, one mixing two records, cannot match itself *)
  let hammer tag () =
    for i = 1 to per_domain do
      Spans.with_span (Printf.sprintf "outer-%d-%d" tag i) ~ids:(fun () -> [ tag; i ]) (fun () ->
          Spans.with_span (Printf.sprintf "inner-%d-%d" tag i) ~ids:(fun () -> [ tag; i ]) ignore)
    done
  in
  join_all [ spawn_catching (hammer 1); spawn_catching (hammer 2) ];
  let spans, dropped = Spans.collect () in
  Alcotest.(check int) "dropped" 0 dropped;
  Alcotest.(check int) "every span recorded once" (4 * per_domain) (List.length spans);
  let by_id = Hashtbl.create (4 * per_domain) in
  List.iter
    (fun s ->
      if Hashtbl.mem by_id s.Spans.id then Alcotest.failf "span id %d recorded twice" s.Spans.id;
      Hashtbl.add by_id s.Spans.id s)
    spans;
  List.iter
    (fun s ->
      let kind, tag, i = Scanf.sscanf s.Spans.name "%[a-z]-%d-%d" (fun k t i -> (k, t, i)) in
      if s.Spans.ids <> [ tag; i ] then Alcotest.failf "torn span %s" s.Spans.name;
      if s.Spans.stop_ns < s.Spans.start_ns then Alcotest.failf "span %s ends first" s.Spans.name;
      match kind with
      | "outer" -> if s.Spans.parent <> 0 then Alcotest.failf "%s has a parent" s.Spans.name
      | _ -> (
          match Hashtbl.find_opt by_id s.Spans.parent with
          | Some p when p.Spans.name = Printf.sprintf "outer-%d-%d" tag i ->
              if p.Spans.domain <> s.Spans.domain then
                Alcotest.failf "%s crossed domains" s.Spans.name;
              if s.Spans.start_ns < p.Spans.start_ns || s.Spans.stop_ns > p.Spans.stop_ns then
                Alcotest.failf "%s outside its parent" s.Spans.name
          | _ -> Alcotest.failf "%s has the wrong parent" s.Spans.name))
    spans;
  let key s = (s.Spans.start_ns, s.Spans.domain, s.Spans.id) in
  ignore
    (List.fold_left
       (fun prev s ->
         if compare (key prev) (key s) > 0 then
           Alcotest.fail "merge out of (start, domain, id) order";
         s)
       (List.hd spans) spans)

let test_self_time () =
  let span start_ns stop_ns =
    { Spans.id = 0; parent = 0; name = ""; domain = 0; start_ns; stop_ns; ids = [] }
  in
  (* overlapping children count once; parts outside the parent not at all *)
  Alcotest.(check int) "self" 50
    (Spans.self_ns (span 0 100) [ span 10 30; span 20 50; span 90 120 ])

(* --- smoke runs ------------------------------------------------------------ *)

let exe = Filename.concat (Sys.getcwd ()) "perf.exe"

let exit_code args =
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stderr Unix.stderr
  in
  match Unix.waitpid [] pid with _, Unix.WEXITED n -> n | _ -> -1

let run args =
  if exit_code args <> 0 then Alcotest.failf "perf.exe %s failed" (String.concat " " args)

let parse file =
  match Json.of_string (In_channel.with_open_text file In_channel.input_all) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" file e

let list k j = match Json.member k j with Some (Json.List l) -> l | _ -> []
let str k j = match Json.member k j with Some (Json.String s) -> s | _ -> ""

(* workload -> (metric, (unit, kind, value)) *)
let metrics_of file =
  List.map
    (fun w ->
      ( str "name" w,
        List.map
          (fun m -> (str "name" m, (str "unit" m, str "kind" m, Json.member "value" m)))
          (list "metrics" w) ))
    (list "workloads" (parse file))

let smoke seed ?trace json =
  run
    ([ "--smoke"; "--seed"; string_of_int seed; "--json"; json ]
    @ match trace with None -> [] | Some d -> [ "--trace"; d ])

let sims metrics = List.filter (fun (_, (_, kind, _)) -> kind = "sim") metrics

let test_smoke () =
  smoke 1 ~trace:"smoke-traces" "smoke-1a.json";
  smoke 1 "smoke-1b.json";
  smoke 2 "smoke-2.json";
  let a = metrics_of "smoke-1a.json" in
  let spec = parse "../BENCHMARK.json" in
  let workloads = List.map (str "name") (list "workloads" spec) in
  Alcotest.(check (list string)) "workloads" workloads (List.map fst a);
  (* end-to-end metrics are reported by every workload; a per-layer one
     by every workload that exercises its layer, and by at least one *)
  let check_metric ~everywhere m =
    let name = str "name" m and unit_ = str "unit" m in
    let carriers =
      List.filter_map (fun (w, ms) -> Option.map (fun x -> (w, x)) (List.assoc_opt name ms)) a
    in
    if carriers = [] || (everywhere && List.length carriers <> List.length a) then
      Alcotest.failf "%s missing from the smoke JSON" name;
    List.iter
      (fun (w, (u, _, _)) ->
        if u <> unit_ then
          Alcotest.failf "%s on %s: unit %s, BENCHMARK.json says %s" name w u unit_)
      carriers
  in
  List.iter (check_metric ~everywhere:true) (list "end_to_end" spec);
  List.iter (check_metric ~everywhere:false) (list "per_layer" spec);
  List.iter
    (fun w ->
      if not (Sys.file_exists (Filename.concat "smoke-traces" (w ^ ".trace.json"))) then
        Alcotest.failf "no trace for %s" w)
    workloads;
  let b = metrics_of "smoke-1b.json" and c = metrics_of "smoke-2.json" in
  List.iter
    (fun (w, ms) ->
      let agrees other = List.for_all (fun (n, v) -> List.assoc_opt n other = Some v) ms in
      if not (agrees (List.assoc w a)) then
        Alcotest.failf "%s: seed 1 gave two different simulations" w;
      (* the model checker draws nothing from the seed *)
      if w <> "verify-mc" && agrees (List.assoc w c) then
        Alcotest.failf "%s: seed 2 changed nothing" w)
    (List.map (fun (w, ms) -> (w, sims ms)) b)

(* [j] with [edit] applied to the list under [key] *)
let edit_list key edit j =
  match j with
  | Json.Obj fields ->
      Json.Obj (List.map (fun (k, v) -> if k = key then (k, Json.List (edit (list key j))) else (k, v)) fields)
  | j -> j

(* A run missing a workload or a metric that the other run has fails the
   comparison, whichever run it is; a run compared with itself passes. *)
let test_compare_absent () =
  let a = parse "smoke-1a.json" in
  let write name j =
    let path = Filename.concat (Sys.getcwd ()) name in
    Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string j));
    path
  in
  let full = write "compare-full.json" a in
  let no_metric =
    write "compare-no-metric.json"
      (edit_list "workloads"
         (List.mapi (fun i w ->
              if i > 0 then w
              else edit_list "metrics" (List.filter (fun m -> str "name" m <> "sim_p99_ms")) w))
         a)
  in
  let no_workload = write "compare-no-workload.json" (edit_list "workloads" List.tl a) in
  (* compare reads BENCHMARK.json from the repository root *)
  let here = Sys.getcwd () in
  Sys.chdir "..";
  let code x y = exit_code [ "compare"; x; y ] in
  let codes =
    Fun.protect ~finally:(fun () -> Sys.chdir here) (fun () ->
        [
          ("itself", code full full);
          ("metric absent from B", code full no_metric);
          ("metric absent from A", code no_metric full);
          ("workload absent from B", code full no_workload);
          ("workload absent from A", code no_workload full);
        ])
  in
  List.iter
    (fun (case, c) -> Alcotest.(check int) case (if case = "itself" then 0 else 1) c)
    codes

let () =
  Alcotest.run "perf"
    [
      ( "spans",
        [
          Alcotest.test_case "2-domain hammer" `Quick test_two_domain_hammer;
          Alcotest.test_case "self time" `Quick test_self_time;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "metrics, units, determinism" `Quick test_smoke;
          Alcotest.test_case "compare flags absent workloads and metrics" `Quick
            test_compare_absent;
        ] );
    ]
