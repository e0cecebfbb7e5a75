(** The Merkle–Damgård framing SHA-1, SHA-256 and MD5 share: the
    partial-block buffer, whole blocks compressed in place from the
    caller's string, the 0x80, zero and bit-length padding, a terminal
    [finalize], and the domain-local scratch context behind one-shot
    digests. Each hash supplies only its chaining state, its
    compression function and its output encoding. *)

module type KERNEL = sig
  type state
  (** The chaining value and any per-block scratch (a message schedule). *)

  val name : string
  (** The module name, for error messages. *)

  val big_endian : bool
  (** Byte order of the length field: big-endian for the SHA family,
      little-endian for MD5. *)

  val create : unit -> state
  val reset : state -> unit
  (** Load the initial chaining value. *)

  val compress : state -> string -> int -> unit
  (** [compress st s off] absorbs the block at [off] of [s]. *)

  val output : state -> string
  (** The digest of the chaining value. *)
end

val block_size : int
(** 64 bytes for every kernel; the padding ends each message's last
    block with an 8-byte bit-length field. *)

module Make (K : KERNEL) : sig
  type ctx

  val init : unit -> ctx

  val update : ctx -> string -> unit
  (** @raise Invalid_argument on a context that was already finalized. *)

  val finalize : ctx -> string
  (** Pads, returns the digest and marks the context finalized: any
      further [update] or [finalize] raises [Invalid_argument]. *)

  val digest : string -> string
  (** One-shot hash. Reuses a scratch context local to the calling
      domain, so domains that hash at once never share one. *)
end
