(* Benchmark harness entry point.

   With no targets, regenerates every table and figure from the paper's
   evaluation (Section 7) on the simulated platform, then runs the
   Bechamel microbenchmarks. Individual artifacts:

     dune exec bench/main.exe -- table1 table2 table3 table4
     dune exec bench/main.exe -- figure6 figure8 figure9
     dune exec bench/main.exe -- ca impact ablation infineon fleet micro

   The meta-target `paper` expands to every Section 7 table/figure.

   With --json <path>, every table/figure row is also written to <path>
   as a JSON array of records ({"artifact", "label", ...fields}).
   --domains N (default 4) sets how many domains the sharded fleet and
   chaos cells run on; their simulated fields do not depend on it, so
   `diff` of the artifacts from two domain counts is clean.

   `diff OLD.json NEW.json [--threshold PCT]` compares two such
   artifacts record-by-record and exits nonzero on regression: simulated
   metrics must be identical, wall-clock fields warn (or fail, with
   --threshold) beyond a relative tolerance band. *)

open Cmdliner
module Timing = Flicker_hw.Timing

(* a target that does not shard ignores the domain count *)
let plain f ~domains:_ = f ()

let known =
  [
    ("table1", plain (fun () -> Paper.table1 ()));
    ("table2", plain Paper.table2);
    ("table3", plain Paper.table3);
    ("table4", plain (fun () -> Paper.table4 ()));
    ("figure6", plain Paper.figure6);
    ("figure8", plain (fun () -> Paper.figure8 ()));
    ("figure9", plain (fun () -> Paper.figure9 ()));
    ("ca", plain (fun () -> Paper.ca_bench ()));
    ("impact", plain Paper.impact);
    ("ablation", plain Paper.ablation);
    ("keygen", plain Paper.keygen_ablation);
    ("burden", plain Paper.burden);
    ("txt", plain Paper.txt);
    ( "infineon",
      plain (fun () ->
          let timing = Timing.with_tpm Timing.infineon Timing.default in
          Paper.table1 ~timing ();
          Paper.table4 ~timing ();
          Paper.figure9 ~timing ()) );
    ("fleet", Fleet.run);
    ("chaos", Chaos.run);
    ("serve", plain Serve.run);
    ("analyze", plain Analysis.run);
    ("verify", plain Verify.run);
    ("micro", plain Micro.run);
  ]

(* a run with no target regenerates every target but infineon *)
let all_in_order = List.filter (( <> ) "infineon") (List.map fst known)

(* "paper" regenerates every Section 7 table/figure artifact in one run —
   the unit the committed BENCH_paper.json baseline covers (the other
   four baselines map 1:1 onto fleet/chaos/analyze/verify) *)
let paper_targets =
  [ "table1"; "table2"; "table3"; "table4"; "figure6"; "figure8"; "figure9";
    "ca"; "impact"; "ablation"; "keygen"; "burden"; "txt" ]

let run targets json domains =
  let targets = if targets = [] then all_in_order else List.concat targets in
  print_endline "Flicker reproduction benchmark harness";
  print_endline "(timings below are simulated platform latencies calibrated to Section 7;";
  print_endline " the 'micro' section reports the real cost of the simulator itself)";
  List.iter (fun name -> (List.assoc name known) ~domains) targets;
  match json with
  | None -> 0
  | Some path ->
      let rows = Paper.collected_rows () in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Flicker_obs.Json.to_string (Paper.json_of_rows rows));
          output_char oc '\n');
      Printf.printf "\nwrote %d records to %s\n" (List.length rows) path;
      0

let targets =
  Arg.(value
       & pos_all
           (enum (("paper", paper_targets) :: List.map (fun (n, _) -> (n, [ n ])) known))
           []
       & info [] ~docv:"TARGET"
           ~doc:"Artifacts to regenerate; all but $(b,infineon) when omitted.")

let json =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"PATH" ~doc:"Also write every row to $(docv) as JSON.")

let domains =
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some d when d >= 1 -> Ok d
      | _ -> Error (Printf.sprintf "%S is not a positive integer" s)
    in
    Arg.conv' (parse, Format.pp_print_int)
  in
  Arg.(value & opt positive 4
       & info [ "domains" ] ~docv:"N"
           ~doc:"Domains the sharded fleet and chaos cells run on.")

(* cmdliner would read a first target such as "table1" as an unknown
   subcommand, so the one subcommand, diff, is picked before parsing *)
let () =
  let info = Cmd.info "bench" ~doc:"Flicker reproduction benchmark harness" in
  exit
    (Cmd.eval'
       (if Array.length Sys.argv > 1 && Sys.argv.(1) = "diff" then
          Cmd.group info [ Diff.cmd ]
        else Cmd.v info Term.(const run $ targets $ json $ domains)))
