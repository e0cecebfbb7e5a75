module J = Flicker_obs.Json

let tool_name = "flicker-verify"

let rule_descriptors () =
  J.List
    (List.map
       (fun a ->
         J.Obj
           [
             ("id", J.String (Automata.name a));
             ("shortDescription", J.Obj [ ("text", J.String (Automata.property a)) ]);
             ( "defaultConfiguration",
               J.Obj [ ("level", J.String "error") ] );
             ("properties", J.Obj [ ("paper", J.String (Automata.paper a)) ]);
           ])
       Automata.all)

let driver () =
  J.Obj
    [
      ( "driver",
        J.Obj [ ("name", J.String tool_name); ("rules", rule_descriptors ()) ] );
    ]

let logical_location name =
  J.List
    [
      J.Obj
        [
          ( "logicalLocations",
            J.List [ J.Obj [ ("fullyQualifiedName", J.String name) ] ] );
        ];
    ]

let conformance_run ~subject (report : Checker.report) =
  let result (v : Checker.violation) =
    J.Obj
      [
        ("ruleId", J.String v.Checker.automaton);
        ("level", J.String "error");
        ( "message",
          J.Obj
            [
              ( "text",
                J.String
                  (Printf.sprintf "%s (at event %d: %s)" v.Checker.message
                     v.Checker.event_index
                     (Event.to_string v.Checker.event)) );
            ] );
        ("locations", logical_location (subject ^ "/trace"));
      ]
  in
  J.Obj
    [
      ("tool", driver ());
      ("results", J.List (List.map result report.Checker.violations));
      ( "properties",
        J.Obj
          [
            ("mode", J.String "conformance");
            ("subject", J.String subject);
            ("events_checked", J.Int report.Checker.events_checked);
            ("violations", J.Int (List.length report.Checker.violations));
          ] );
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
  let results =
    match r.Mc.outcome with
    | Mc.Verified ->
        if mc_missed_violation r ~expected_violation then
          [
            J.Obj
              [
                ("ruleId", J.String "mc-coverage");
                ("level", J.String "error");
                ( "message",
                  J.Obj
                    [
                      ( "text",
                        J.String
                          (if expected_violation then
                             Printf.sprintf
                               "planted bug in variant %s was NOT caught by \
                                the model checker"
                               vname
                           else
                             Printf.sprintf
                               "search of variant %s was truncated before it \
                                covered every state"
                               vname) );
                    ] );
                ("locations", logical_location (vname ^ "/model"));
              ];
          ]
        else []
    | Mc.Violation cex ->
        [
          J.Obj
            [
              ("ruleId", J.String cex.Mc.automaton);
              (* catching a planted bug is the expected outcome *)
              ( "level",
                J.String (if expected_violation then "note" else "error") );
              ( "message",
                J.Obj
                  [
                    ( "text",
                      J.String
                        (Printf.sprintf "%s (counterexample: %d steps, last \
                                         event %s)"
                           cex.Mc.message
                           (List.length cex.Mc.steps)
                           (Event.to_string cex.Mc.event)) );
                  ] );
              ("locations", logical_location (vname ^ "/model"));
            ];
        ]
  in
  let cex_len =
    match r.Mc.outcome with
    | Mc.Violation cex -> List.length cex.Mc.steps
    | Mc.Verified -> 0
  in
  J.Obj
    [
      ("tool", driver ());
      ("results", J.List results);
      ( "properties",
        J.Obj
          [
            ("mode", J.String "model-check");
            ("variant", J.String vname);
            ("adversary", J.String (Adversary.name adversary));
            ("sessions", J.Int sessions);
            ("por", J.Bool r.Mc.stats.Mc.por);
            ("expected_violation", J.Bool expected_violation);
            ( "violation_found",
              J.Bool (match r.Mc.outcome with Mc.Violation _ -> true | _ -> false)
            );
            ("missed", J.Bool (mc_missed_violation r ~expected_violation));
            ("counterexample_steps", J.Int cex_len);
            ("states", J.Int r.Mc.stats.Mc.states);
            ("transitions", J.Int r.Mc.stats.Mc.transitions);
            ("depth", J.Int r.Mc.stats.Mc.depth);
            ("truncated", J.Bool r.Mc.stats.Mc.truncated);
            ("peak_queue", J.Int r.Mc.stats.Mc.peak_queue);
            ("ample_states", J.Int r.Mc.stats.Mc.ample);
          ] );
    ]

let document runs =
  J.Obj [ ("version", J.String "2.1.0"); ("runs", J.List runs) ]
