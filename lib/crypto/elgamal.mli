(** ElGamal encryption over a shared prime-order group.

    Section 7.4.1 of the paper points out that the SSH setup PAL's 185.7 ms
    is dominated by RSA key generation and "could be mitigated by choosing
    a different public key algorithm with faster key generation, such as
    ElGamal": with group parameters fixed ahead of time, an ElGamal
    keypair costs one modular exponentiation. This module provides that
    alternative; the keygen-ablation benchmark quantifies the saving. *)

type params = { p : Bignum.t; g : Bignum.t }
(** Group parameters: a prime modulus and a generator. Shared by all
    parties (like the IKE MODP groups); generating them is a one-time
    setup cost, not part of key generation. *)

type public = { params : params; y : Bignum.t }
type private_key = { pub : public; x : Bignum.t }

val shared_params_512 : params Lazy.t
(** Precomputed deterministic groups for tests and benchmarks. *)

val shared_params_1024 : params Lazy.t

val generate : Prng.t -> params -> private_key
(** One random exponent and one modular exponentiation — the fast keygen
    the paper suggests. *)

val encrypt : Prng.t -> public -> string -> (string, string) result
(** Encrypt a message shorter than the modulus; the result encodes the
    (c1, c2) pair. *)

val decrypt : private_key -> string -> (string, string) result

val public_to_string : public -> string
val public_of_string : string -> (public, string) result
val private_to_string : private_key -> string
val private_of_string : string -> (private_key, string) result
