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

type t = {
  automata : Automata.t array;
  instances : Automata.instance array;
  recent : Event.t array;  (* ring: event [i] sits in slot [i mod window_size] *)
  mutable events : int;
  mutable violations : violation list;  (* newest first *)
}

let create () =
  let automata = Array.of_list Automata.all in
  {
    automata;
    instances = Array.map Automata.start automata;
    recent = Array.make window_size Event.Session_end;
    events = 0;
    violations = [];
  }

(* the last [window_size] events, oldest first, ending at the newest *)
let window t =
  let n = min t.events window_size in
  List.init n (fun k -> t.recent.((t.events - n + k) mod window_size))

let feed t ev =
  let i = t.events in
  t.recent.(i mod window_size) <- ev;
  t.events <- i + 1;
  Array.iteri
    (fun j inst ->
      match Automata.feed inst ev with
      | Ok inst' -> if inst' != inst then t.instances.(j) <- inst'
      | Error message ->
          let a = t.automata.(j) in
          t.violations <-
            {
              automaton = Automata.name a;
              property = Automata.property a;
              paper = Automata.paper a;
              event_index = i;
              event = ev;
              message;
              window = window t;
            }
            :: t.violations;
          (* restart so later sessions are still checked *)
          t.instances.(j) <- Automata.start a)
    t.instances

let report t = { events_checked = t.events; violations = List.rev t.violations }

let check events =
  let t = create () in
  List.iter (feed t) events;
  report t

let violation_to_string v =
  Printf.sprintf "[%s] %s (paper %s) at event %d: %s" v.automaton v.message
    v.paper v.event_index (Event.to_string v.event)
