(** RSA key generation and the raw modular-exponentiation primitives.

    Padding lives in {!Pkcs1}; this module is "textbook" RSA over
    {!Bignum} values. Private-key operations use the CRT for speed, as the
    paper's crypto PAL module does. *)

type public = { n : Bignum.t; e : Bignum.t }

type private_key = {
  pub : public;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t; (* d mod (p-1) *)
  dq : Bignum.t; (* d mod (q-1) *)
  qinv : Bignum.t; (* q^-1 mod p *)
}

val generate : Prng.t -> bits:int -> private_key
(** Generate a keypair with modulus of exactly [bits] bits and public
    exponent 65537. @raise Invalid_argument if [bits < 16]. *)

val key_bytes : public -> int
(** Modulus length in bytes. *)

val public_equal : public -> public -> bool
(** Same modulus and exponent. *)

val encrypt_raw : public -> Bignum.t -> Bignum.t
(** [m^e mod n]. @raise Invalid_argument if the message is >= n. *)

val decrypt_raw : private_key -> Bignum.t -> Bignum.t
(** [c^d mod n] via the CRT. @raise Invalid_argument if [c >= n]. *)

val public_to_string : public -> string
(** Canonical serialization (length-prefixed n and e), used when a PAL
    outputs its public key for measurement into PCR 17. *)

val public_of_string : string -> public
(** @raise Invalid_argument on malformed input. *)

val private_to_string : private_key -> string
(** Serialization for TPM-sealing a PAL's private key across sessions. *)

val private_of_string : string -> private_key
(** @raise Invalid_argument on malformed input. *)
