(** Trace conformance: run the protocol automata over recorded event
    streams.

    This is the dynamic half of the verifier — where the model checker
    ({!Mc}) explores every interleaving of an abstract session, the
    checker validates what one concrete simulator run actually did, by
    replaying the ["protocol"] instants a {!Flicker_obs.Tracer} recorded
    through every automaton in {!Automata.all}. *)

type violation = {
  automaton : string;
  property : string;
  paper : string;
  event_index : int;  (** position in the checked event list *)
  event : Event.t;  (** the event that broke the invariant *)
  message : string;
  window : Event.t list;
      (** up to the last 8 events ending at the violating one — enough
          context to read the counterexample without the full trace *)
}

type report = {
  events_checked : int;
  violations : violation list;  (** in trace order *)
}

val check : ?automata:Automata.t list -> Event.t list -> report
(** Run every automaton (default {!Automata.all}) over the events. A
    violated automaton is restarted from its initial state so one broken
    session does not mask problems later in the trace. *)

val check_trace : ?automata:Automata.t list -> Flicker_obs.Tracer.event list -> report
(** {!check} over the parseable protocol events of raw tracer records. *)

val check_tracer : ?automata:Automata.t list -> Flicker_obs.Tracer.t -> report
(** {!check_trace} over everything the tracer currently retains. *)

val violation_to_string : violation -> string
