(** Memory Management PAL module (Figure 6: 657 LOC, 12.5 KB).

    The paper's PALs have no OS heap, so this module implements
    malloc/free/realloc over a static buffer inside the SLB. A first-fit
    free-list allocator with coalescing; offsets index into the PAL's
    heap region. *)

type t

val create : size:int -> t
(** @raise Invalid_argument on non-positive size. *)

val malloc : t -> int -> int option
(** [malloc t n] returns the offset of a fresh [n]-byte block, or [None]
    when the heap is exhausted. Zero-size requests return a valid block. *)

val free : t -> int -> unit
(** @raise Invalid_argument when the offset is not an allocated block
    (double free or wild pointer). *)

val realloc : t -> int -> int -> int option
(** Grow or shrink a block, preserving its prefix. *)

val read : t -> off:int -> len:int -> string
(** @raise Invalid_argument when the range leaves the block's bounds. *)

val write : t -> off:int -> string -> unit

val block_size : t -> int -> int option
(** Size of the allocated block at [off], if any. *)

val allocated_bytes : t -> int
