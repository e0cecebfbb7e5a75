(** Trace conformance: run the protocol automata over a stream of
    protocol events as it is produced.

    This is the dynamic half of the verifier — where the model checker
    ({!Mc}) explores every interleaving of an abstract session, a
    checker validates what one concrete simulator run actually did. A
    checker attached to a machine ({!Flicker_hw.Machine.attach_checker})
    is fed every protocol event at the moment it is emitted, through
    every automaton in {!Automata.all}; what the trace ring later
    evicts makes no difference to it. *)

type violation = {
  automaton : string;
  property : string;
  paper : string;
  event_index : int;  (** position in the checked event stream, from 0 *)
  event : Event.t;  (** the event that broke the invariant *)
  message : string;
  window : Event.t list;
      (** up to the last 8 events ending at the violating one — enough
          context to read the counterexample without the full trace *)
}

type report = {
  events_checked : int;
  violations : violation list;  (** in stream order *)
}

type t
(** A running checker: one instance of each automaton and a ring of the
    last 8 events. Owned by one machine, so by one domain. *)

val create : unit -> t
(** A checker running every automaton of {!Automata.all} from its
    initial state, with nothing checked yet. *)

val feed : t -> Event.t -> unit
(** Advance every automaton by one event. A violated automaton is
    recorded and restarted from its initial state, so one broken session
    does not mask problems later in the stream. *)

val report : t -> report
(** Everything fed so far: the event count and every violation. *)

val check : Event.t list -> report
(** {!feed} each event to a fresh checker, then {!report}. *)

val violation_to_string : violation -> string
