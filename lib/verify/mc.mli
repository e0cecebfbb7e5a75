(** Explicit-state model checker for the session protocol.

    Breadth-first exploration of {!Model} states (session program ×
    adversary interleavings × machine), running every automaton in
    {!Automata.all} in lockstep and stopping at the first rejection.
    States are deduplicated at enqueue time by value: two nodes are the
    same state when {!Model.equal} holds of their model states and
    {!Automata.equal} of each pair of monitor instances. A state
    reachable along many commuting interleavings is queued exactly
    once. BFS order means a reported counterexample is a {e minimal}
    violating trace.

    By default the search applies a partial-order reduction: when every
    adversary action fireable from a state (now or after adversary-only
    moves — the enabling closure) is invisible to all automata and
    footprint-independent of the session's next block, only the session
    transition is explored. Each postponed adversary action still fires
    later with identical events, so verdicts and minimal counterexample
    lengths are preserved while commuting interleavings collapse. Pass
    [~por:false] to force the full interleaving product (the [--no-por]
    escape hatch; the QCheck suite asserts both modes agree). *)

type step = { action : string; events : Event.t list }

type counterexample = {
  steps : step list;  (** from the initial state to the violation *)
  automaton : string;
  property : string;
  paper : string;
  event : Event.t;  (** the event inside the last step that violated *)
  message : string;
}

type stats = {
  states : int;  (** distinct states expanded *)
  transitions : int;  (** transitions taken (including into dedup hits) *)
  depth : int;  (** deepest step count reached *)
  truncated : bool;
      (** true only when a budget actually cut exploration off: the
          state cap was hit, or a depth-capped node still had
          unexplored successors *)
  peak_queue : int;  (** high-water mark of the BFS frontier *)
  ample : int;  (** states where the reduction pruned the adversary *)
  por : bool;  (** whether the reduction was enabled for this run *)
}

type outcome = Verified | Violation of counterexample
type result = { outcome : outcome; stats : stats }

val run :
  ?max_states:int ->
  ?max_depth:int ->
  ?adversary:Adversary.config ->
  ?sessions:int ->
  ?por:bool ->
  Model.variant ->
  result
(** Check one session variant against every automaton. [adversary]
    and [sessions] are forwarded to {!Model.initial}; [por] (default
    true) enables the partial-order reduction. Defaults: 50 000 states,
    depth 96. [Verified] with [stats.truncated = false] means the full
    (reduced) product space was explored with no automaton rejecting. *)

val pp_counterexample : Format.formatter -> counterexample -> unit
