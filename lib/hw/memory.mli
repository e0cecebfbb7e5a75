(** Simulated physical memory.

    A flat byte-addressable space divided into 4 KB pages. Both the
    untrusted OS and (via {!Dev}-checked paths) DMA devices operate on this
    space; the SLB is laid out here before SKINIT executes.

    Pages are sparse: a page is allocated on its first write, and a page
    never written reads as zeros. Every mutation ([write], [write_byte],
    [write_u16_le], [zero]) stamps the pages it touches, so a caller can
    tell whether a range changed after a point it remembered
    ({!write_stamp}, {!written_after}). *)

type t

val page_size : int
(** 4096 bytes. *)

val create : size:int -> t
(** @raise Invalid_argument unless [size] is a positive multiple of the
    page size. *)

val size : t -> int
val read : t -> addr:int -> len:int -> string
(** @raise Invalid_argument on out-of-range access. *)

val equal_range : t -> addr:int -> string -> bool
(** [equal_range t ~addr s] is [String.equal (read t ~addr ~len) s] with
    [len = String.length s], compared in place without copying the
    range out.
    @raise Invalid_argument on out-of-range access. *)

val write : t -> addr:int -> string -> unit
val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit
val read_u16_le : t -> int -> int
(** Little-endian 16-bit read (the SLB header words are 16-bit values). *)

val write_u16_le : t -> int -> int -> unit
val zero : t -> addr:int -> len:int -> unit
(** Zeroize a region, as the SLB Core's cleanup phase does. Allocated
    pages are filled in place; no page is allocated or freed. *)

val write_stamp : t -> int
(** The stamp of the latest mutation (0 before the first). *)

val written_after : t -> stamp:int -> addr:int -> len:int -> bool
(** [true] iff a mutation after [stamp] touched a page of the range. The
    granularity is the page: a write next to the range on one of its
    pages counts. An empty range is never written.
    @raise Invalid_argument on out-of-range access. *)

val page_of_addr : int -> int
val pages_of_range : addr:int -> len:int -> int * int
(** [(first_page, last_page)] covered by the byte range.
    @raise Invalid_argument on an empty range. *)

val find_pattern : t -> string -> int option
(** Linear scan for a byte pattern; used by the simulated adversary to
    hunt for secrets left in memory. Returns the first match address.
    Matches may straddle pages and lie in never-written pages, which
    read as zeros. *)
