(* Temporal-verifier bench artifact: model-checker search size per
   session variant (states, transitions, wall time, counterexample
   length) under each variant's intended adversary, the good session
   under every adversary model with and without the partial-order
   reduction, the POR work ratio, the full two-session interleaving
   product, and the cost of trace conformance over a real session — so
   the verification gate's overhead and the reduction's payoff are
   tracked like every other table. *)

module V = Flicker_verify
module J = Flicker_obs.Json
module Session = Flicker_core.Session
module Platform = Flicker_core.Platform
module Pal = Flicker_slb.Pal

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

let run () =
  Printf.printf
    "\n=== Protocol verification: model checker + trace conformance ===\n";
  Printf.printf "%-28s %-22s %-10s %8s %12s %6s %10s %5s\n" "variant"
    "adversary" "outcome" "states" "transitions" "depth" "wall (ms)" "cex";
  (* each variant under the adversary model its bug was planted
     against ([Model.intended_adversary]); reduction on *)
  List.iter
    (fun variant ->
      let adversary, sessions = V.Model.intended_adversary variant in
      let r, wall_ms =
        timed (fun () -> V.Mc.run ~adversary ~sessions variant)
      in
      let outcome, cex_len =
        match r.V.Mc.outcome with
        | V.Mc.Verified -> ("verified", 0)
        | V.Mc.Violation cex -> ("violation", List.length cex.V.Mc.steps)
      in
      let s = r.V.Mc.stats in
      Printf.printf "%-28s %-22s %-10s %8d %12d %6d %10.3f %5d\n"
        (V.Model.variant_name variant)
        (Printf.sprintf "%s x%d" (V.Adversary.name adversary) sessions)
        outcome s.V.Mc.states s.V.Mc.transitions s.V.Mc.depth wall_ms cex_len;
      Paper.emit ~artifact:"verify"
        ~label:(V.Model.variant_name variant)
        [
          ("mode", J.String "model-check");
          ("adversary", J.String (V.Adversary.name adversary));
          ("sessions", J.Int sessions);
          ("por", J.Bool s.V.Mc.por);
          ("outcome", J.String outcome);
          ("states", J.Int s.V.Mc.states);
          ("transitions", J.Int s.V.Mc.transitions);
          ("depth", J.Int s.V.Mc.depth);
          ("truncated", J.Bool s.V.Mc.truncated);
          ("ample_states", J.Int s.V.Mc.ample);
          ("peak_queue", J.Int s.V.Mc.peak_queue);
          ("counterexample_steps", J.Int cex_len);
          ("wall_ms", J.Float wall_ms);
        ])
    V.Model.all_variants;
  (* the good session under every adversary model, reduced vs full:
     the with/without-POR table *)
  let configs =
    List.map
      (fun k -> (V.Adversary.kind_name k, V.Adversary.of_kinds [ k ]))
      V.Adversary.all_kinds
    @ [ ("all", V.Adversary.of_kinds V.Adversary.all_kinds) ]
  in
  List.iter
    (fun (cname, adversary) ->
      let reduced, wall_por =
        timed (fun () -> V.Mc.run ~adversary ~sessions:2 V.Model.Good)
      in
      let full, wall_full =
        timed (fun () ->
            V.Mc.run ~adversary ~sessions:2 ~por:false V.Model.Good)
      in
      let rs = reduced.V.Mc.stats and fs = full.V.Mc.stats in
      let label = "good-" ^ cname in
      Printf.printf "%-28s %-22s %-10s %8d %12d %6d %10.3f %5s\n" label
        (cname ^ " x2 por-vs-full") "verified" rs.V.Mc.states
        rs.V.Mc.transitions rs.V.Mc.depth wall_por "-";
      Paper.emit ~artifact:"verify" ~label
        [
          ("mode", J.String "por-compare");
          ("adversary", J.String (V.Adversary.name adversary));
          ("sessions", J.Int 2);
          ("states_por", J.Int rs.V.Mc.states);
          ("states_full", J.Int fs.V.Mc.states);
          ("transitions_por", J.Int rs.V.Mc.transitions);
          ("transitions_full", J.Int fs.V.Mc.transitions);
          ("ample_states", J.Int rs.V.Mc.ample);
          ("wall_ms_por", J.Float wall_por);
          ("wall_ms_full", J.Float wall_full);
        ])
    configs;
  (* the POR payoff headline: transitions explored, full over reduced,
     on the good session with a four-probe DMA adversary (test_verify's
     "POR reduces work" asserts this stays >= 2) *)
  let adversary = { V.Adversary.default with V.Adversary.dma_probes = 4 } in
  let reduced, wall_por =
    timed (fun () -> V.Mc.run ~adversary ~sessions:2 V.Model.Good)
  in
  let full, wall_full =
    timed (fun () -> V.Mc.run ~adversary ~sessions:2 ~por:false V.Model.Good)
  in
  let rt = reduced.V.Mc.stats.V.Mc.transitions
  and ft = full.V.Mc.stats.V.Mc.transitions in
  let ratio = float_of_int ft /. float_of_int rt in
  Printf.printf "%-28s %-22s %-10s %8d %12d %6s %10.3f %5s\n" "good-por-ratio"
    "dma(4) x2" (Printf.sprintf "%.2fx" ratio) reduced.V.Mc.stats.V.Mc.states
    rt "-" wall_por "-";
  Paper.emit ~artifact:"verify" ~label:"good-por-ratio"
    [
      ("mode", J.String "por-ratio");
      ("adversary", J.String "dma");
      ("dma_probes", J.Int 4);
      ("sessions", J.Int 2);
      ("states_por", J.Int reduced.V.Mc.stats.V.Mc.states);
      ("states_full", J.Int full.V.Mc.stats.V.Mc.states);
      ("transitions_por", J.Int rt);
      ("transitions_full", J.Int ft);
      ("transitions_ratio", J.Float ratio);
      ("wall_ms_por", J.Float wall_por);
      ("wall_ms_full", J.Float wall_full);
    ];
  (* the scale row: the full (unreduced) interleaving product of two
     back-to-back sessions against all four adversary models — the
     search the reduction is up against *)
  let adversary = V.Adversary.of_kinds V.Adversary.all_kinds in
  let r, wall_ms =
    timed (fun () ->
        V.Mc.run ~adversary ~sessions:2 ~por:false V.Model.Good)
  in
  let s = r.V.Mc.stats in
  Printf.printf "%-28s %-22s %-10s %8d %12d %6d %10.3f %5s\n" "replay-x2-full"
    "all x2 no-por" "verified" s.V.Mc.states s.V.Mc.transitions s.V.Mc.depth
    wall_ms "-";
  Paper.emit ~artifact:"verify" ~label:"replay-x2-full"
    [
      ("mode", J.String "full-product");
      ("adversary", J.String (V.Adversary.name adversary));
      ("sessions", J.Int 2);
      ("por", J.Bool false);
      ("states", J.Int s.V.Mc.states);
      ("transitions", J.Int s.V.Mc.transitions);
      ("depth", J.Int s.V.Mc.depth);
      ("truncated", J.Bool s.V.Mc.truncated);
      ("wall_ms", J.Float wall_ms);
    ];
  (* conformance over a real session, checked as its protocol events
     are emitted: wall_ms is the host time of the whole checked session *)
  let p = Platform.create ~seed:"bench-verify" () in
  let checker = V.Checker.create () in
  Flicker_hw.Machine.attach_checker p.Platform.machine checker;
  let pal =
    Pal.define ~name:"bench-verify"
      (fun env -> Flicker_slb.Pal_env.set_output env "ok")
  in
  let nonce = Platform.fresh_nonce p in
  match timed (fun () -> Session.call p ~pal ~nonce ()) with
  | Error e, _ -> print_endline ("conformance session failed: " ^ e)
  | Ok _, wall_ms ->
      let report = V.Checker.report checker in
      let violations = List.length report.V.Checker.violations in
      Printf.printf "%-28s %-22s %-10s %8d %12s %6s %10.3f %5s\n" "conformance"
        "-"
        (if violations = 0 then "clean" else "violated")
        report.V.Checker.events_checked "-" "-" wall_ms "-";
      Paper.emit ~artifact:"verify" ~label:"conformance"
        [
          ("mode", J.String "conformance");
          ("events_checked", J.Int report.V.Checker.events_checked);
          ("violations", J.Int violations);
          ("wall_ms", J.Float wall_ms);
        ]
