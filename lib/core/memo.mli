(** The one bounded memo for appraisal verdicts.

    A relying party that sees the same evidence over and over memoizes
    the stages of {!Verifier} whose verdict is a function of the values
    they read, failures included: a forged signature stays bad. On a
    miss the stage runs and the {!Flicker_crypto.Sha1.bytes_hashed} it
    spent is stored as the entry's cost; each later hit credits that
    cost to [bytes_saved]. A memo holds at most 1,024 entries and evicts
    its oldest at that bound (single-victim FIFO).

    Keys are the values a stage reads, never a string built from them,
    so a lookup copies nothing and hashes nothing into the instrument. *)

type stats = {
  hits : int;
  misses : int;  (** stage runs *)
  bytes_saved : int;  (** the stored cost of every hit *)
}

module Make (K : Hashtbl.HashedType) : sig
  type 'v t

  val create : (K.t -> 'v) -> 'v t
  (** A memo over one stage. *)

  val find : 'v t -> K.t -> 'v
  (** The stage's verdict on the key, run at most once while the key
      stays in the memo. *)

  val stats : 'v t -> stats
end

val hash_prefix : int -> string -> int
(** [hash_prefix seed s] folds [seed] and the first 8 bytes of [s]: a
    key hash for a field, such as an RSA signature, that already tells
    distinct keys apart. *)
