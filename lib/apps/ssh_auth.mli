(** Flicker-protected SSH password authentication (Section 6.3.1,
    Figure 7).

    One PAL, two modes, one measurement — which is what lets session one
    seal the channel private key "for a future invocation of the same
    PAL". Setup mode generates the keypair and outputs the public key;
    the attestation convinces the client the private key lives only
    inside this PAL. Login mode unseals the key, decrypts the
    client-encrypted {password, nonce}, checks the nonce, and outputs
    only [md5crypt(salt, password)] for comparison against /etc/passwd.
    The cleartext password exists on the server solely inside a Flicker
    session. *)

type server

val create_server :
  Flicker_core.Platform.t ->
  ?key_bits:int ->
  users:(string * string) list ->
  unit ->
  server
(** [users] are (name, password) pairs; the server stores only salted
    md5crypt hashes, as a real /etc/passwd does. [key_bits] defaults
    to 1024. *)

val ssh_pal : key_bits:int -> Flicker_slb.Pal.t
(** Build the SSH PAL for a key size. The server and both clients each
    build the one they run or verify when created. *)

val passwd_entry : server -> user:string -> (string * string) option
(** [(salt, crypted)] for a user. *)

val server_setup :
  server -> nonce:string -> (Flicker_core.Secure_channel.established, string) result
(** First Flicker session: create the channel keypair (key generation
    dominates: Figure 9a) through the generic Section 4.4.2 setup,
    {!Flicker_core.Secure_channel.establish}, in the SSH PAL's setup
    mode. Stores the sealed private key server-side. *)

type login_result = {
  granted : bool;
  login_outcome : Flicker_core.Session.outcome;
}

val server_login :
  server -> user:string -> ciphertext:string -> nonce:string -> (login_result, string) result
(** Second Flicker session (Figure 9b): decrypt, hash, compare. *)

(** The client system (no Flicker hardware needed). *)
module Client : sig
  type t

  val create :
    rng:Flicker_crypto.Prng.t ->
    ca_key:Flicker_crypto.Rsa.public ->
    server_slb_base:int ->
    ?key_bits:int ->
    unit ->
    t

  val accept_server_key :
    t -> nonce:string -> Flicker_core.Attestation.evidence -> (unit, string) result
  (** Verify the setup attestation; remembers K_PAL on success. *)

  val encrypt_password : t -> password:string -> nonce:string -> (string, string) result
  (** [encrypt_KPAL({password, nonce})] per Figure 7. *)
end

val authenticate :
  server ->
  Client.t ->
  user:string ->
  password:string ->
  (bool * float, string) result
(** Drive the full Figure 7 protocol over the simulated network,
    reusing the server's channel key when one exists. Returns whether
    login succeeded and the total wall-clock ms. *)

(** A client machine that itself has Flicker hardware — the paper's
    "we are investigating techniques for utilizing Flicker on the client
    side". The password encryption runs inside a client-side Flicker
    session, so after the session the cleartext password has been erased
    from the client's memory too (with a plain client, "a compromise of
    the client may leak the user's password"). The remaining exposure is
    the input path from the keyboard into the session, which the paper
    leaves open. *)
module Flicker_client : sig
  type t

  val create :
    Flicker_core.Platform.t ->
    ca_key:Flicker_crypto.Rsa.public ->
    server_slb_base:int ->
    ?key_bits:int ->
    unit ->
    t

  val accept_server_key :
    t -> nonce:string -> Flicker_core.Attestation.evidence -> (unit, string) result

  val encrypt_password :
    t -> password:string -> nonce:string -> (string, string) result
  (** Runs a Flicker session on the client platform; the PAL performs the
      PKCS#1 encryption and the SLB Core erases the password during
      cleanup. *)
end
