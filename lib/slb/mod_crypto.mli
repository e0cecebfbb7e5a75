(** Crypto PAL module (Figure 6: 2262 LOC, 31.4 KB).

    The cryptographic operations a PAL performs on the main CPU, each
    charging its calibrated latency against the simulated clock: SHA-1 at
    the measured hash rate, 1024-bit RSA key generation at 185.7 ms
    (Figure 9a), private-key operations at ~4.6 ms (Figure 9b). The
    actual computation is real — only the clock cost is modelled. *)

module Machine = Flicker_hw.Machine

val hmac_sha1 : Machine.t -> key:string -> string -> string

val rsa_generate :
  Machine.t -> Flicker_crypto.Prng.t -> bits:int -> Flicker_crypto.Rsa.private_key

val rsa_encrypt :
  Machine.t ->
  Flicker_crypto.Prng.t ->
  Flicker_crypto.Rsa.public ->
  string ->
  string
(** PKCS#1 v1.5 encryption, charging a public-key operation. *)

val rsa_decrypt :
  Machine.t -> Flicker_crypto.Rsa.private_key -> string -> (string, string) result

val rsa_sign :
  Machine.t -> Flicker_crypto.Rsa.private_key -> Flicker_crypto.Hash.algorithm -> string -> string

val elgamal_generate :
  Machine.t ->
  Flicker_crypto.Prng.t ->
  Flicker_crypto.Elgamal.params ->
  Flicker_crypto.Elgamal.private_key
(** The paper's suggested fast alternative to RSA keygen (Section 7.4.1):
    with shared group parameters, one modular exponentiation — charged at
    the private-op rate instead of the 185.7 ms keygen. *)

val md5crypt : Machine.t -> salt:string -> password:string -> string
