(** OIAP/OSAP authorization sessions.

    Commands that use an authorized entity (the SRK for Seal/Unseal, the
    owner for NV definition) prove knowledge of the entity's usage secret
    with an HMAC over the command digest and a pair of rolling nonces.
    OIAP authorizes with the entity secret directly; OSAP first derives a
    session-shared secret bound to one entity. The PAL-side client half of
    this protocol lives in [Flicker_slb.Mod_tpm_utils]. *)

type kind = Oiap | Osap of { entity : string }

type session = {
  handle : int;
  kind : kind;
  mutable nonce_even : string;
  shared_secret : string option;  (** present for OSAP *)
}

type t

val create : Flicker_crypto.Prng.t -> t

val start_oiap : t -> session

val start_osap :
  t -> entity:string -> usage_auth:string -> no_osap:string -> session * string
(** [start_osap t ~entity ~usage_auth ~no_osap] returns the session and
    the TPM-side OSAP nonce [ne_osap]. The TPM derives the session secret
    from the entity's stored usage secret; the client derives the same
    value with {!osap_shared_secret} — the secret itself never crosses
    the interface. *)

val osap_shared_secret :
  usage_auth:string -> ne_osap:string -> no_osap:string -> string
(** Client-side derivation (exposed for the PAL TPM-utils module). *)

val auth_mac :
  secret:string -> command_digest:string -> nonce_even:string -> nonce_odd:string -> string
(** The authorization HMAC both sides compute. *)

val verify :
  t ->
  handle:int ->
  entity_auth:string ->
  command_digest:string ->
  nonce_odd:string ->
  mac:string ->
  (unit, Tpm_types.error) result
(** Check a command authorization against session [handle]. For OIAP the
    secret is [entity_auth]; for OSAP it is the session's shared secret.
    On success the even nonce rolls forward. *)

val close : t -> int -> unit
