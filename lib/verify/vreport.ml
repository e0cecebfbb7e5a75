module J = Flicker_obs.Json
module Sarif = Flicker_obs.Sarif

let tool_name = "flicker-verify"

let rule_descriptors =
  List.map
    (fun a ->
      Sarif.rule ~id:(Automata.name a) ~text:(Automata.property a) ~level:"error"
        ~properties:[ ("paper", J.String (Automata.paper a)) ]
        ())
    Automata.all

let run ~results properties =
  Sarif.run ~tool:tool_name ~rules:rule_descriptors ~results properties

let conformance_run ~subject (report : Checker.report) =
  let result (v : Checker.violation) =
    Sarif.result ~rule_id:v.Checker.automaton ~level:"error"
      ~message:
        (Printf.sprintf "%s (at event %d: %s)" v.Checker.message v.Checker.event_index
           (Event.to_string v.Checker.event))
      ~location:(subject ^ "/trace")
  in
  run
    ~results:(List.map result report.Checker.violations)
    [
      ("mode", J.String "conformance");
      ("subject", J.String subject);
      ("events_checked", J.Int report.Checker.events_checked);
      ("violations", J.Int (List.length report.Checker.violations));
    ]

let mc_missed_violation (r : Mc.result) ~expected_violation =
  match (r.Mc.outcome, expected_violation) with
  | Mc.Verified, true -> true (* planted bug not caught *)
  | Mc.Verified, false -> r.Mc.stats.Mc.truncated (* a cut-off search proves nothing *)
  | Mc.Violation _, false -> true (* correct session flagged *)
  | Mc.Violation _, true -> false

let mc_run ?(adversary = Adversary.default) ?(sessions = 1) variant
    ~expected_violation (r : Mc.result) =
  let vname = Model.variant_name variant in
  let location = vname ^ "/model" in
  let results =
    match r.Mc.outcome with
    | Mc.Verified ->
        if mc_missed_violation r ~expected_violation then
          [
            Sarif.result ~rule_id:"mc-coverage" ~level:"error" ~location
              ~message:
                (if expected_violation then
                   Printf.sprintf
                     "planted bug in variant %s was NOT caught by the model checker" vname
                 else
                   Printf.sprintf
                     "search of variant %s was truncated before it covered every state"
                     vname);
          ]
        else []
    | Mc.Violation cex ->
        [
          Sarif.result ~rule_id:cex.Mc.automaton
            (* catching a planted bug is the expected outcome *)
            ~level:(if expected_violation then "note" else "error")
            ~location
            ~message:
              (Printf.sprintf "%s (counterexample: %d steps, last event %s)"
                 cex.Mc.message (List.length cex.Mc.steps) (Event.to_string cex.Mc.event));
        ]
  in
  let cex_len =
    match r.Mc.outcome with
    | Mc.Violation cex -> List.length cex.Mc.steps
    | Mc.Verified -> 0
  in
  run ~results
    [
      ("mode", J.String "model-check");
      ("variant", J.String vname);
      ("adversary", J.String (Adversary.name adversary));
      ("sessions", J.Int sessions);
      ("por", J.Bool r.Mc.stats.Mc.por);
      ("expected_violation", J.Bool expected_violation);
      ( "violation_found",
        J.Bool (match r.Mc.outcome with Mc.Violation _ -> true | _ -> false) );
      ("missed", J.Bool (mc_missed_violation r ~expected_violation));
      ("counterexample_steps", J.Int cex_len);
      ("states", J.Int r.Mc.stats.Mc.states);
      ("transitions", J.Int r.Mc.stats.Mc.transitions);
      ("depth", J.Int r.Mc.stats.Mc.depth);
      ("truncated", J.Bool r.Mc.stats.Mc.truncated);
      ("peak_queue", J.Int r.Mc.stats.Mc.peak_queue);
      ("ample_states", J.Int r.Mc.stats.Mc.ample);
    ]
