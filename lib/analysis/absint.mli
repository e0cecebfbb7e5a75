(** Work-list abstract interpretation over the extraction mini-IR.

    Two client analyses run on {!Domains} lattices over the structured
    statement bodies ({!Flicker_extract.Extract.stmt}):

    - an {b interval + frame-size pass}: per-function worst-case stack
      frames (declared local arrays plus one word per scalar) and
      buffer-index ranges, composed over the call graph by a work-list
      fixpoint into a whole-PAL worst-case stack bound — checked by the
      rules layer against the 4 KB PAL stack — and out-of-bounds
      accesses against declared buffer sizes;
    - a {b constant-time lint}: the taint lattice joined with control
      dependence (a pc label) and memory dependence (per-buffer labels),
      run to an interprocedural fixpoint over per-parameter contexts and
      return summaries, flagging secret-influenced branch conditions,
      loop bounds, and memory-access indices. Per-PAL effects overrides
      apply: a function annotated as a {!Effects.Sanitizer} declassifies
      its result at every call site.

    Functions with an empty [stmts] list (shape-only IR) are opaque:
    they cost a fixed conservative frame, return public values, and
    contribute no findings — the pre-mini-IR behavior. *)

module Extract = Flicker_extract.Extract

val opaque_frame_bytes : int
(** Conservative frame charged for externals and shape-only functions
    (matches the rules layer's historical per-frame heuristic). *)

val frame_bytes : Extract.func -> int
(** Worst-case frame: base bookkeeping + declared local arrays + one
    word per distinct scalar (parameters and assignment/loop targets);
    [opaque_frame_bytes] for shape-only functions. *)

type stack_bound = Bounded of int | Unbounded

type bounds_violation = {
  in_function : string;
  buffer : string;
  size_elems : int;
  index : Domains.Interval.t;  (** the offending abstract index range *)
  is_write : bool;
}

type ct_kind = Branch | Loop_bound | Index

type ct_violation = {
  ct_function : string;
  kind : ct_kind;
  source : string;  (** the effects source the secret originated from *)
  detail : string;  (** the offending expression, rendered *)
}

val ct_kind_name : ct_kind -> string

type result = {
  frames : (string * int) list;
      (** per reachable defined function, in reachability preorder *)
  stack : stack_bound;
      (** whole-PAL worst-case stack bytes from the entry; [Unbounded]
          when recursion is reachable (the recursion rule fires too) *)
  worst_chain : string list;
      (** the call chain realizing the bound, entry first; ends with an
          external callee when that frame is the worst leaf *)
  bounds : bounds_violation list;  (** sorted, deduplicated *)
  ct : ct_violation list;  (** sorted, deduplicated *)
  index_hulls : ((string * string) * Domains.Interval.t) list;
      (** per (function, buffer): join of every abstract index range
          used to access the buffer — the envelope the soundness
          property checks concrete runs against *)
}

val analyze : table:Effects.table -> Callgraph.t -> entry:string -> result
(** Run both passes over the functions reachable from [entry]. An
    undefined entry yields the empty result ([Bounded 0], no findings). *)

(** Deterministic concrete interpreter of the same semantics, used by
    the QCheck soundness property: every observed stack depth and
    buffer index must fall inside {!analyze}'s abstractions. Arithmetic
    saturates at the int boundaries (mirroring the interval transfer
    functions), division/modulo by zero yield 0, uninitialized scalars
    read 0, externals and shape-only callees return 0. *)
module Concrete : sig
  type access = {
    in_function : string;
    buffer : string;
    index : int;
    within : bool;  (** index fell inside the declared element count *)
  }

  type obs = {
    max_stack_bytes : int;
    accesses : access list;  (** in execution order *)
    out_of_fuel : bool;  (** stopped at the step budget (observations
                             up to that point are still valid) *)
  }

  val run : Callgraph.t -> entry:string -> obs
  (** Execute [entry] with every parameter 0 and a step budget of
      200_000. *)
end
