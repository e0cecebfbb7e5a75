(** Host-time span recorder for the benchmark.

    A span is one timed call into the system under test: a name, a
    start and end on the host's monotonic clock, a span id, the id of
    the span open on the same domain when it started (its parent, 0 for
    a root), the recording domain, and the request ids it served.

    Each domain appends to its own buffer (kept in [Domain.DLS]), so
    recording takes no lock and two domains never write the same memory.
    {!collect} merges the buffers in (start, domain, id) order once the
    recording domains have been joined. Recording is off until {!enable};
    while off, {!with_span} only calls its function. *)

type span = {
  id : int;
  parent : int;  (** 0 when no span was open on the domain *)
  name : string;
  domain : int;
  start_ns : int;
  stop_ns : int;
  ids : int list;  (** request ids served inside the span *)
}

val enable : unit -> unit

val now_ns : unit -> int
(** The monotonic clock spans are stamped with, in nanoseconds. *)

val with_span : ?ids:(unit -> int list) -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], recording a span around it when
    recording is on (also when [f] raises). [ids] is only evaluated when
    the span is recorded. *)

val collect : unit -> span list * int
(** Every recorded span in (start, domain, id) order, and the number
    dropped: a domain holds at most 4M spans and counts the rest. Call
    only after the domains that recorded have been joined. *)

val self_ns : span -> span list -> int
(** [self_ns parent children]: the parent's duration minus the part of
    its interval covered by at least one of [children] (overlapping
    children are counted once). *)

val chrome_trace : span list -> dropped:int -> Flicker_obs.Json.t
(** Chrome [trace_event] JSON: one complete ("X") event per span, times
    in microseconds from the first span, [tid] the domain, and the span
    id, parent id and request ids under [args]. *)
