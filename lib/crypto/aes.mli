(** AES-128/192/256 (FIPS 197) with CBC and CTR modes.

    Only the simulated TPM's sealed storage calls this module:
    [Tpm.seal] and [Tpm.unseal] wrap each blob in AES-CBC under a key
    derived from the SRK. The cipher's only operations that depend on
    the key or the data are table lookups; {!decrypt_cbc}'s padding
    check reads every padding byte and branches once, on its verdict. *)

type key

val expand_key : string -> key
(** @raise Invalid_argument unless the key is 16, 24 or 32 bytes. *)

val encrypt_block : key -> string -> string
(** One 16-byte block. @raise Invalid_argument on wrong block size. *)

val decrypt_block : key -> string -> string

val encrypt_cbc : key -> iv:string -> string -> string
(** CBC with PKCS#7 padding; always appends 1–16 bytes of padding.
    @raise Invalid_argument unless [iv] is 16 bytes. *)

val decrypt_cbc : key -> iv:string -> string -> string
(** @raise Invalid_argument on malformed ciphertext or bad padding. *)

val ctr : key -> nonce:string -> string -> string
(** Counter mode keystream XOR; encryption and decryption are the same
    operation. [nonce] must be 16 bytes (used as the initial counter
    block). *)
