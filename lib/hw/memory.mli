(** Simulated physical memory.

    A flat byte-addressable space divided into 4 KB pages. Both the
    untrusted OS and (via {!Dev}-checked paths) DMA devices operate on this
    space; the SLB is laid out here before SKINIT executes.

    A page is one of three kinds:
    - {e unwritten}: it holds nothing and reads as zeros. Every page
      starts so.
    - {e owned}: it holds its own 4 KB of bytes, written in place.
    - a {e slice}: it reads 4 KB of a string, from an offset, without a
      copy. {!write} makes every whole aligned page it covers a slice of
      the string it is given, so loading a 64 KB SLB image copies no
      byte.

    Any other write to a slice first copies the page's bytes into bytes
    the page owns (copy on write). {!zero} turns a slice it covers whole
    back into an unwritten page and fills owned pages in place, so
    zeroing the SLB window or an I/O page allocates nothing.

    Invariant: a string handed to {!write} is never mutated afterwards.
    Pages alias it, and {!source} reports it by identity, so a caller
    that compares sources physically relies on its bytes not changing.
    Every string in this code base is immutable once built: each
    [Bytes.unsafe_to_string] under lib/ returns a fresh buffer that
    nothing writes to again, except [Block_hash]'s view of its block
    buffer, which only its compression function reads. *)

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

val source : t -> addr:int -> len:int -> (string * int) option
(** [Some (s, o)] when every page of the non-empty range is a slice of
    the one string [s] and the range reads exactly
    [String.sub s o len]; [None] otherwise: for an empty range, or when
    one of its pages is unwritten, owned, or a slice of another string or
    of another part of [s]. A write to the range since [s] was written
    copies a page out, so two equal answers mean the same bytes.
    @raise Invalid_argument on out-of-range access. *)

val write : t -> addr:int -> string -> unit
(** Whole aligned pages of the string become slices of it; the rest is
    copied into owned pages. See the invariant above.
    @raise Invalid_argument on out-of-range access. *)

val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit
val read_u16_le : t -> int -> int
(** Little-endian 16-bit read (the SLB header words are 16-bit values). *)

val write_u16_le : t -> int -> int -> unit
val zero : t -> addr:int -> len:int -> unit
(** Zeroize a region, as the SLB Core's cleanup phase does. A slice the
    region covers whole becomes unwritten; one it covers in part is
    copied out first. Owned pages are filled in place; no page is
    allocated for an unwritten one. *)

val page_of_addr : int -> int
val pages_of_range : addr:int -> len:int -> int * int
(** [(first_page, last_page)] covered by the byte range.
    @raise Invalid_argument on an empty range. *)

val find_pattern : t -> string -> int option
(** Linear scan for a byte pattern; used by the simulated adversary to
    hunt for secrets left in memory. Returns the first match address.
    Matches may straddle pages and lie in unwritten pages, which read as
    zeros. *)
