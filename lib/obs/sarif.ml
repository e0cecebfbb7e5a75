let rule ?properties ~id ~text ~level () =
  Json.Obj
    ([
       ("id", Json.String id);
       ("shortDescription", Json.Obj [ ("text", Json.String text) ]);
       ("defaultConfiguration", Json.Obj [ ("level", Json.String level) ]);
     ]
    @ match properties with Some p -> [ ("properties", Json.Obj p) ] | None -> [])

let result ~rule_id ~level ~message ~location =
  Json.Obj
    [
      ("ruleId", Json.String rule_id);
      ("level", Json.String level);
      ("message", Json.Obj [ ("text", Json.String message) ]);
      ( "locations",
        Json.List
          [
            Json.Obj
              [
                ( "logicalLocations",
                  Json.List [ Json.Obj [ ("fullyQualifiedName", Json.String location) ] ] );
              ];
          ] );
    ]

let run ~tool ~rules ~results properties =
  Json.Obj
    [
      ( "tool",
        Json.Obj
          [ ("driver", Json.Obj [ ("name", Json.String tool); ("rules", Json.List rules) ]) ]
      );
      ("results", Json.List results);
      ("properties", Json.Obj properties);
    ]

let document runs = Json.Obj [ ("version", Json.String "2.1.0"); ("runs", Json.List runs) ]
