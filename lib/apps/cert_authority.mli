(** A Flicker-protected Certificate Authority (Section 6.3.2).

    The CA's private signing key is generated inside a Flicker session
    from TPM randomness, sealed under PCR 17, and never exists outside a
    session. Signing unseals the key and the certificate database, applies
    the administrator's access-control policy to the CSR, signs, appends
    to the database, reseals, and outputs the certificate. Compromise of
    the whole OS yields at worst bogus *certificates* (revocable) — never
    the key. *)

type csr = { subject : string; subject_key : Flicker_crypto.Rsa.public }

type certificate = {
  serial : int;
  cert_subject : string;
  cert_key : Flicker_crypto.Rsa.public;
  issuer : string;
  signature : string;
}

type policy = {
  allowed_suffixes : string list;
      (** a CSR subject must end with one of these (e.g., [".example.com"]) *)
  denied_subjects : string list;
  max_certificates : int;
}

val encode_policy : policy -> string
val decode_policy : string -> (policy, string) result
val policy_allows : policy -> issued:int -> subject:string -> bool

val ca_pal : key_bits:int -> Flicker_slb.Pal.t
(** Build the CA PAL for a key size; each call links it afresh, and
    {!create} builds the one its server runs. *)

type server

val create :
  Flicker_core.Platform.t -> ?key_bits:int -> ?issuer:string -> policy -> server

val init_ca : server -> (Flicker_crypto.Rsa.public, string) result
(** Key-generation session. Idempotent: returns the existing key if
    already initialized. *)

val public_key : server -> Flicker_crypto.Rsa.public option

val sign_csr : server -> csr -> (certificate, string) result
(** {!sign_batch} of one CSR: one signing session (the paper's 906.2 ms
    operation). A policy denial is reported as an error, without
    consuming a serial. *)

val sign_batch : server -> csr list -> (certificate, string) result list
(** Sign many CSRs, amortizing the per-session TPM overhead (SKINIT, the
    ~898 ms unseal, the reseal) that dominates single-request signing:
    each Flicker session carries as many CSRs as fit the 4 KB input and
    output pages and pays that overhead once. Results are positional
    (one per CSR, in order); per-CSR policy denials consume no serial and
    do not abort the rest of the batch. *)

val issued_count : server -> int
(** From the public audit log the server keeps alongside the sealed DB. *)

val audit_log : server -> (int * string) list
(** (serial, subject) pairs, oldest first. *)

val verify_certificate :
  ca_key:Flicker_crypto.Rsa.public -> certificate -> bool

module Certificate_key : Hashtbl.HashedType with type t = certificate
(** Certificates compared by every field {!verify_certificate} reads,
    hashed by a few signature bytes: the key of a
    {!Flicker_core.Memo} over {!verify_certificate}, for a relying party
    that sees the same few certificates over and over. *)

val encode_certificate : certificate -> string
val decode_certificate : string -> (certificate, string) result
