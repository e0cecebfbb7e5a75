(** Structured trace events over the simulated clock.

    The tracer replaces the machine's old unbounded ad-hoc event list: it
    records complete spans (begin/end pairs with simulated-clock
    timestamps, so nesting falls out of containment) and instant events
    into a bounded ring buffer — a platform that runs forever keeps
    constant event memory, dropping the oldest records first.

    Args are rendered on read. A slot keeps scalars only: the name and
    category strings, the timestamp and duration, one code word (the
    caller's code, with the span flag folded in), one int, one string
    and a {!render}, eight words in all, preallocated (64 rings of 4,096
    slots take 16.8 MB). Every string and render a caller passes already
    outlives the event, so recording keeps nothing young alive and
    promotes nothing out of the minor heap. {!events} calls each slot's
    render to rebuild its name and args.

    Timestamps come from the [now] callback supplied at creation (wired
    to [Clock.now] by the machine), so the tracer itself has no hardware
    dependencies and the library sits below [flicker_hw]. *)

type arg = Str of string | Num of float | Count of int | Flag of bool

type kind =
  | Span of { dur : float }  (** complete span: [ts .. ts + dur] *)
  | Instant

type event = {
  name : string;
  cat : string;
  ts : float;  (** simulated ms at which the event began *)
  kind : kind;
  args : (string * arg) list;
}

type render = string -> int -> int -> string -> string * (string * arg) list
(** [render name code n s] rebuilds a recorded event's name and args
    from the name, code, int and string it was recorded with. The slot
    keeps the render itself, so pass a top-level function, never a
    closure made per event: that closure would be kept and promoted. *)

val plain : render
(** The recorded name, no args. *)

type t

val create : ?capacity:int -> now:(unit -> float) -> unit -> t
(** [capacity] defaults to 4096 events and must be positive. *)

val record : t -> cat:string -> render:render -> code:int -> n:int -> s:string -> string -> unit
(** The one record path of an instant: [record t ~cat ~render ~code ~n
    ~s name] stores the scalars, and {!events} reads them back through
    [render]. [code] must fit in 62 bits (signed); [Invalid_argument]
    otherwise. *)

type span_handle

val begin_span : t -> ?cat:string -> ?render:render -> ?s:string -> string -> span_handle
(** The span's args come from [render] over [s] (code and int 0), as
    for {!record}; by default it has none. *)

val end_span : t -> span_handle -> unit
(** Records the completed span. Ending the same handle twice records the
    span twice; don't. *)

val with_span : t -> ?cat:string -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span; the span is recorded even if the thunk
    raises (the exception is re-raised). *)

val events : t -> event list
(** Retained events, oldest first, their names and args rendered now. At
    most [capacity] of them. *)

val length : t -> int
val capacity : t -> int
val dropped : t -> int
(** Events evicted so far to stay within [capacity]. *)

val clear : t -> unit
(** Drop all retained events, release their strings, and reset the
    dropped counter. *)
