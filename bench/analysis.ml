(* Static-analysis bench artifact: per-PAL analysis wall time, finding
   counts, the abstract interpreter's proved worst-case stack, and the
   constant-time lint tally — for the five shipped PALs plus the two
   planted-defect targets, emitted like every other table row so
   `--json` keeps the bench trajectory populated. The planted rows pin
   the detector: `bench diff` against BENCH_analysis.json fails if
   either stops being caught. *)

module Rules = Flicker_analysis.Rules
module Models = Flicker_analysis.Models
module Absint = Flicker_analysis.Absint
module Effects = Flicker_analysis.Effects
module Callgraph = Flicker_analysis.Callgraph
module J = Flicker_obs.Json

let run () =
  Printf.printf
    "\n=== Static analysis: flicker analyze over the shipped + planted PALs ===\n";
  Printf.printf "%-14s %12s %10s %10s %10s %12s %12s %10s\n" "PAL" "wall (ms)"
    "findings" "errors" "warnings" "stack (B)" "absint (ms)" "ct";
  List.iter
    (fun (key, target) ->
      let t0 = Unix.gettimeofday () in
      let analysis =
        match Rules.run target with
        | Ok a -> a
        | Error msg -> failwith (Printf.sprintf "analyze %s: %s" key msg)
      in
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      (* the abstract-interpretation passes alone, timed separately from
         the full rule run above *)
      let a0 = Unix.gettimeofday () in
      ignore
        (Sys.opaque_identity
           (Absint.analyze
              ~table:(Effects.make target.Rules.effects)
              (Callgraph.build target.Rules.program)
              ~entry:target.Rules.entry));
      let absint_wall_ms = (Unix.gettimeofday () -. a0) *. 1000.0 in
      let findings = analysis.Rules.findings in
      let worst_stack =
        match analysis.Rules.absint.Absint.stack with
        | Absint.Bounded b -> b
        | Absint.Unbounded -> -1
      in
      let ct_findings =
        List.length
          (List.filter
             (fun (fi : Rules.finding) ->
               fi.Rules.rule = "secret-branch" || fi.Rules.rule = "secret-index")
             findings)
      in
      let errors = Rules.errors findings in
      let warnings = Rules.count Rules.Warning findings in
      Printf.printf "%-14s %12.3f %10d %10d %10d %12d %12.3f %10d\n" key wall_ms
        (List.length findings) errors warnings worst_stack absint_wall_ms
        ct_findings;
      Paper.emit ~artifact:"analyze" ~label:key
        [
          ("wall_ms", J.Float wall_ms);
          ("findings", J.Int (List.length findings));
          ("errors", J.Int errors);
          ("warnings", J.Int warnings);
          ("tcb_loc", J.Int (Flicker_slb.Pal.total_loc target.Rules.pal));
          ("budget_loc", J.Int target.Rules.budget_loc);
          ("worst_stack_bytes", J.Int worst_stack);
          ("absint_wall_ms", J.Float absint_wall_ms);
          ("ct_findings", J.Int ct_findings);
        ])
    (Models.all () @ Models.planted ())
