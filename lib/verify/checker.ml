type violation = {
  automaton : string;
  property : string;
  paper : string;
  event_index : int;
  event : Event.t;
  message : string;
  window : Event.t list;
}

type report = { events_checked : int; violations : violation list }

let window_size = 8

let check ?(automata = Automata.all) events =
  let instances = ref (List.map (fun a -> (a, Automata.start a)) automata) in
  let violations = ref [] in
  let recent = ref [] (* last [window_size] events, newest first *) in
  List.iteri
    (fun i ev ->
      recent := ev :: (if List.length !recent >= window_size then
                         List.filteri (fun j _ -> j < window_size - 1) !recent
                       else !recent);
      instances :=
        List.map
          (fun (a, inst) ->
            match Automata.feed inst ev with
            | Ok inst' -> (a, inst')
            | Error message ->
                violations :=
                  {
                    automaton = Automata.name a;
                    property = Automata.property a;
                    paper = Automata.paper a;
                    event_index = i;
                    event = ev;
                    message;
                    window = List.rev !recent;
                  }
                  :: !violations;
                (* restart so later sessions in the trace are still checked *)
                (a, Automata.start a))
          !instances)
    events;
  { events_checked = List.length events; violations = List.rev !violations }

let check_trace ?automata events = check ?automata (Event.of_trace events)

let check_tracer ?automata tracer =
  check_trace ?automata (Flicker_obs.Tracer.events tracer)

let violation_to_string v =
  Printf.sprintf "[%s] %s (paper %s) at event %d: %s" v.automaton v.message
    v.paper v.event_index (Event.to_string v.event)
