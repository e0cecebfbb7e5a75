(** The TPM key hierarchy.

    The Endorsement Key (EK) is burned in by the manufacturer; the Storage
    Root Key (SRK) protects sealed storage and never leaves the TPM; the
    Attestation Identity Key (AIK) signs quotes and is certified by a
    Privacy CA (Section 2.1). Private halves live only inside {!Tpm.t}. *)

type t = {
  ek : Flicker_crypto.Rsa.private_key;
  srk : Flicker_crypto.Rsa.private_key;
  aik : Flicker_crypto.Rsa.private_key;
  srk_auth : string;  (** 20-byte usage secret: the well-known zeros *)
}

val well_known_auth : string
(** 20 zero bytes. *)

val generate : Flicker_crypto.Prng.t -> key_bits:int -> t
(** Generate the hierarchy. [key_bits] sizes all three keys (the paper's
    TPM uses 2048-bit keys; tests use smaller ones for speed). *)

val aik_public : t -> Flicker_crypto.Rsa.public
val ek_public : t -> Flicker_crypto.Rsa.public
