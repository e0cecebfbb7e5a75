(** Secure Channel PAL module (Figure 6: 292 LOC, 2.0 KB; Section 4.4.2).

    First session: generate a keypair inside Flicker protection, seal the
    private key to this PAL's own PCR 17 value, and output the public
    key (whose integrity the attestation then covers). Later sessions:
    unseal the private key and decrypt what the remote party sent. *)

type setup_output = {
  public_key : Flicker_crypto.Rsa.public;
  sealed_private : string;  (** opaque blob the untrusted OS stores *)
}

val setup : Pal_env.t -> key_bits:int -> (setup_output, string) result
(** Claims the TPM via the driver, generates the keypair (charging the
    Figure 9a key-generation latency), seals under the current PCR 17
    (which, during a session, is exactly this PAL's measurement), and
    releases the TPM. *)

val recover :
  Pal_env.t -> sealed_private:string -> (Flicker_crypto.Rsa.private_key, string) result
(** Unseal the private key in a later session of the same PAL. *)

val encode_setup_output : setup_output -> string
(** Serialization for the PAL output page. *)

val decode_setup_output : string -> (setup_output, string) result
(** Inverse of {!encode_setup_output}: exactly two
    {!Flicker_crypto.Util.encode_fields} fields, the public key and the
    sealed private key. [Error] on truncated input, trailing bytes or a
    malformed key. *)
