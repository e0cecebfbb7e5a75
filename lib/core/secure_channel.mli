(** Establishing a secure channel into a PAL (Section 4.4.2).

    Session one runs a setup PAL that generates a keypair under Flicker
    protection, seals the private key to its own measurement, and outputs
    the public key; the attestation covering that output convinces the
    remote party the key is genuine and its private half unreachable
    outside the PAL. The remote party then encrypts its secret (e.g., a
    password) under the public key; only a later session of the same PAL
    can unseal the private key and decrypt. *)

type established = {
  public_key : Flicker_crypto.Rsa.public;
  sealed_private : string;  (** kept by the untrusted OS for session two *)
  evidence : Attestation.evidence;
  outcome : Session.outcome;  (** the setup session's *)
}

val setup_pal : key_bits:int -> Flicker_slb.Pal.t
(** A PAL that does nothing but the setup: it outputs
    {!Flicker_slb.Mod_secure_channel.encode_setup_output}. *)

val establish :
  Platform.t ->
  pal:Flicker_slb.Pal.t ->
  ?inputs:string ->
  nonce:string ->
  unit ->
  (established, string) result
(** Server side: run [pal] on [inputs] (default none) through
    {!Session.call}, read the public key and the sealed private key from
    its output, and gather the attestation under [nonce]. [pal] runs
    {!Flicker_slb.Mod_secure_channel.setup} on those inputs: {!setup_pal},
    or an application PAL's setup mode. Fails with the session's error,
    the PAL's failure report, or a malformed setup output. *)

val client_accept :
  ca_key:Flicker_crypto.Rsa.public ->
  pal:Flicker_slb.Pal.t ->
  slb_base:int ->
  nonce:string ->
  Attestation.evidence ->
  (Flicker_crypto.Rsa.public, string) result
(** Remote-party side: check the attestation that [pal], a PAL whose
    setup mode links {!Flicker_slb.Mod_secure_channel}, produced the
    evidence's output, then read the public key from that attested
    output. Fails on any verification error — including a server that
    ran a different PAL or tampered with the output. *)
