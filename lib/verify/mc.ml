type step = { action : string; events : Event.t list }

type counterexample = {
  steps : step list;
  automaton : string;
  property : string;
  paper : string;
  event : Event.t;
  message : string;
}

type stats = {
  states : int;
  transitions : int;
  depth : int;
  truncated : bool;
  peak_queue : int;
  ample : int;
  por : bool;
}

type outcome = Verified | Violation of counterexample
type result = { outcome : outcome; stats : stats }

(* A frontier node's dedup key: its model state and monitor instances,
   with their hash computed once. The visited set keeps this one block
   per state; the model state and instance array it points at are the
   node's own, and share every part a transition left unchanged with
   the parent's. *)
type key = {
  hash : int;
  mstate : Model.state;
  monitors : Automata.instance array;  (* one per automaton, in order *)
}

let make_key mstate monitors =
  let hash =
    Array.fold_left (fun h i -> (h * 31) + Automata.hash i) (Model.hash mstate) monitors
  in
  { hash; mstate; monitors }

module Visited = Hashtbl.Make (struct
  type t = key

  let hash k = k.hash

  let equal a b =
    a.hash = b.hash
    && Model.equal a.mstate b.mstate
    && Array.for_all2 Automata.equal a.monitors b.monitors
end)

(* One frontier node: its key and the reversed path that reached it
   (paths are bounded by max_depth, so storing them per node is cheap and
   spares parent-pointer reconstruction). *)
type node = { key : key; rev_path : step list; node_depth : int }

(* Feed a transition's events through every monitor. First rejection
   wins, reported with the automaton's index; the remaining monitors are
   not consulted for later events. The array is copied when the first
   instance changes, so a transition every monitor ignores returns
   [monitors] itself. *)
let feed_monitors monitors events =
  let n = Array.length monitors in
  let rec go ms owned = function
    | [] -> Ok ms
    | ev :: rest ->
        let rec each i ms owned =
          if i = n then go ms owned rest
          else
            match Automata.feed ms.(i) ev with
            | Error message -> Error (i, ev, message)
            | Ok inst when inst == ms.(i) -> each (i + 1) ms owned
            | Ok inst ->
                let ms = if owned then ms else Array.copy ms in
                ms.(i) <- inst;
                each (i + 1) ms true
        in
        each 0 ms owned
  in
  go monitors false events

(* Ample-set selection (persistent sets over the session/adversary
   product). The session program is deterministic, so a state has at
   most one session transition [t]. Exploring only [t] is sound when
   every enabled adversary action is (a) invisible to every automaton
   in every state and (b) footprint-independent of [t]: each postponed
   action stays enabled across [t] (independence covers its enabling
   condition), fires in a successor with identical events (independence
   covers its payload reads), and the monitor product agrees in both
   orders, so the reduced graph reaches the same verdicts with the same
   minimal counterexample lengths. Postponing is re-decided at every
   state, so an action is explored no later than the first block whose
   footprint it touches; actions postponed all the way past the final
   block are no-ops for safety (invisible, and nothing remains to
   observe their machine effect). Actions that only become enabled
   later — an inject after a pending record — are handled inductively
   where they first appear. The state graph is a DAG (pc strictly
   advances, budgets strictly decrease), so the classic action-ignoring
   cycle problem cannot arise.

   Visibility is judged two ways. [Model.fp_visible] is universal: the
   event is ignored by every automaton in every monitor state, so it
   may be postponed anywhere. On top of that, an action that is silent
   in the state's *current* monitor product (every instance accepts
   unchanged) may also be postponed, because for every adversary event
   this applies to — an un-denied DMA probe outside a live launch —
   the only way a monitor becomes reactive to it again is a transition
   (SKINIT arming the DEV window) that already conflicts with the
   action's footprint, so the silence is stable across everything the
   action can be postponed over. The POR-vs-full QCheck property is
   the regression net for this argument. *)
let monitor_silent monitors events =
  match feed_monitors monitors events with
  | Error _ -> false
  | Ok monitors' ->
      monitors' == monitors || Array.for_all2 Automata.equal monitors monitors'

(* [Model.transitions] lists the session transition, if any, first. *)
let ample ~por trans monitors =
  match trans with
  | ({ Model.source = Model.Session; _ } as session) :: (_ :: _ as adversary)
    when por
         && List.for_all
              (fun (a : Model.trans) ->
                ((not (Model.fp_visible a.Model.fp))
                || monitor_silent monitors a.Model.events)
                && Model.independent session.Model.fp a.Model.fp)
              adversary ->
      [ session ]
  | _ -> trans

let run ?(max_states = 50_000) ?(max_depth = 96) ?adversary ?sessions ?(por = true)
    variant =
  let automata = Array.of_list Automata.all in
  let visited = Visited.create 1024 in
  let queue = Queue.create () in
  let enqueue key rev_path node_depth =
    (* dedup at enqueue time: the visited set doubles as a membership
       check for the queue, so a state reachable along many commuting
       interleavings is queued (and counted) exactly once *)
    if not (Visited.mem visited key) then begin
      Visited.add visited key ();
      Queue.add { key; rev_path; node_depth } queue
    end
  in
  enqueue
    (make_key
       (Model.initial ?adversary ?sessions variant)
       (Array.map Automata.start automata))
    [] 0;
  let states = ref 0 in
  let transitions = ref 0 in
  let depth = ref 0 in
  let truncated = ref false in
  let peak_queue = ref 1 in
  let ample_states = ref 0 in
  let found = ref None in
  (try
     while not (Queue.is_empty queue) do
       let node = Queue.pop queue in
       if !states >= max_states then begin
         truncated := true;
         raise Exit
       end;
       incr states;
       if node.node_depth > !depth then depth := node.node_depth;
       let { mstate; monitors; _ } = node.key in
       let succs = Model.transitions mstate in
       if node.node_depth >= max_depth then begin
         (* only report truncation when the depth cap actually cut
            something off: a leaf at exactly max_depth is fully explored *)
         if succs <> [] then truncated := true
       end
       else begin
         let chosen = ample ~por succs monitors in
         if chosen != succs then incr ample_states;
         List.iter
           (fun (t : Model.trans) ->
             incr transitions;
             let step = { action = t.Model.label; events = t.Model.events } in
             match feed_monitors monitors t.Model.events with
             | Error (i, ev, message) ->
                 let a = automata.(i) in
                 found :=
                   Some
                     {
                       steps = List.rev (step :: node.rev_path);
                       automaton = Automata.name a;
                       property = Automata.property a;
                       paper = Automata.paper a;
                       event = ev;
                       message;
                     };
                 raise Exit
             | Ok monitors' ->
                 enqueue
                   (make_key t.Model.succ monitors')
                   (step :: node.rev_path) (node.node_depth + 1))
           chosen;
         let qlen = Queue.length queue in
         if qlen > !peak_queue then peak_queue := qlen
       end
     done
   with Exit -> ());
  let stats =
    {
      states = !states;
      transitions = !transitions;
      depth = !depth;
      truncated = !truncated;
      peak_queue = !peak_queue;
      ample = !ample_states;
      por;
    }
  in
  match !found with
  | Some cex -> { outcome = Violation cex; stats }
  | None -> { outcome = Verified; stats }

let pp_counterexample fmt cex =
  Format.fprintf fmt "@[<v>violates %s (paper %s): %s@,property: %s@,trace:@,"
    cex.automaton cex.paper cex.message cex.property;
  List.iteri
    (fun i step ->
      Format.fprintf fmt "  %2d. %-18s %s@," (i + 1) step.action
        (String.concat ", " (List.map Event.to_string step.events)))
    cex.steps;
  Format.fprintf fmt "  !!  %s@]" (Event.to_string cex.event)
