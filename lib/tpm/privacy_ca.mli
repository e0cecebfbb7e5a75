(** The Privacy CA that certifies Attestation Identity Keys.

    A verifier trusts a quote only after validating the AIK's certificate
    chain back to a Privacy CA it trusts (Section 2.1). The simulator's CA
    checks that the AIK request is endorsed by a known EK before signing. *)

type t

type aik_certificate = {
  subject_aik : Flicker_crypto.Rsa.public;
  issuer : string;
  cert_signature : string;  (** CA signature over the serialized AIK key *)
}

val create : Flicker_crypto.Prng.t -> name:string -> key_bits:int -> t
val public_key : t -> Flicker_crypto.Rsa.public

val register_ek : t -> Flicker_crypto.Rsa.public -> unit
(** Record an endorsement key as belonging to a legitimate TPM (stands in
    for the manufacturer's EK credential). *)

val certify_aik :
  t ->
  ek:Flicker_crypto.Rsa.public ->
  aik:Flicker_crypto.Rsa.public ->
  (aik_certificate, string) result
(** Fails when the EK is not registered. *)

val verify_certificate : ca_key:Flicker_crypto.Rsa.public -> aik_certificate -> bool
