(** Abstract domains for the PAL abstract interpreter ({!Absint}).

    [Interval] is the classic integer-interval lattice with saturating
    arithmetic ([min_int]/[max_int] play the infinities) and the
    standard widening (a bound that moved since the previous iterate
    jumps to its infinity) — enough to bound loop counters, buffer
    indices, and stack frames. [Secrecy] is the two-point taint lattice
    labelled with the originating secret source, joined with control
    dependence by the constant-time lint. [Env] is a pointwise-lifted
    string-keyed map shared by both clients. *)

module Interval : sig
  type t = private { lo : int; hi : int }
  (** Invariant: [lo <= hi]. [min_int]/[max_int] are -oo/+oo. *)

  val top : t
  val of_int : int -> t

  val range : int -> int -> t
  (** [range lo hi] with the bounds swapped into order. *)

  val join : t -> t -> t
  val widen : t -> t -> t
  (** [widen old next]: bounds of [next] that escaped [old] jump to the
      corresponding infinity, guaranteeing fixpoint termination. *)

  val contains : t -> int -> bool
  val subset : t -> t -> bool
  val equal : t -> t -> bool

  val binop : Flicker_extract.Extract.binop -> t -> t -> t
  (** Sound transfer for the mini-IR operators: saturating add/sub/mul,
      total division ([x/0 = 0], matching the concrete semantics),
      comparisons into [0,1], and bitwise AND bounded by a non-negative
      operand. *)

  val to_string : t -> string
  (** e.g. ["[0, 79]"], with [-oo]/[+oo] for the infinities. *)
end

module Secrecy : sig
  type t = string option
  (** [None]: public. [Some src]: influenced by the secret produced by
      effects source [src] (the first source reached labels the value —
      enough to name the offender in a finding). *)

  val public : t
  val join : t -> t -> t
  val equal : t -> t -> bool
end

module Env : sig
  type 'a t
  (** Finite map from variable/buffer names to an abstract value; keys
      not present are at the client-supplied [default] (top for
      intervals — an uninitialized C local holds anything — and public
      for secrecy). *)

  val empty : 'a t
  val get : default:'a -> 'a t -> string -> 'a
  val set : 'a t -> string -> 'a -> 'a t

  val merge : f:('a -> 'a -> 'a) -> default:'a -> 'a t -> 'a t -> 'a t
  (** Pointwise [f] over the union of the key sets, reading [default]
      for a key missing on one side. Used for both join and widen. *)

  val equal : eq:('a -> 'a -> bool) -> default:'a -> 'a t -> 'a t -> bool
end
