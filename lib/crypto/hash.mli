(** Uniform interface over the hash functions in this library, so higher
    layers (HMAC, PKCS#1, the TPM) can be parameterized by algorithm. *)

type algorithm = SHA1 | SHA256 | MD5

val digest_size : algorithm -> int
val block_size : int
(** Input block size in bytes, 64 for every algorithm here; HMAC keys
    are padded to this length. *)

val digest : algorithm -> string -> string
val hex : algorithm -> string -> string
val name : algorithm -> string
