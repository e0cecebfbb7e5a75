(** Verifier side of trusted-boot (IMA-style) attestation, for comparison
    with Flicker's fine-grained attestation (Sections 2.1 and 8).

    The verifier receives the untrusted event log and a TPM quote over the
    static PCRs. It authenticates the quote with {!Verifier}'s
    certificate, signature and freshness stages, then replays the log
    and accepts only if every quoted PCR matches its replay. Acceptance
    still leaves the hard part: deciding whether every one of the logged
    components is trustworthy — the burden Flicker removes by shrinking
    the attested code to one PAL. *)

type failure =
  | Quote_rejected of Verifier.failure
      (** the certificate, quote-signature or freshness stage failed *)
  | Log_mismatch of { pcr : int; expected : string; got : string }
  | Pcr_not_quoted of int  (** a PCR the log names is missing from the quote *)

val failure_to_string : failure -> string

val replay_log :
  Flicker_os.Measured_boot.event list -> (int * string) list
(** Expected values of the PCRs the log names, each replayed from its
    post-reboot value. *)

val verify :
  ca_key:Flicker_crypto.Rsa.public ->
  aik_cert:Flicker_tpm.Privacy_ca.aik_certificate ->
  nonce:string ->
  log:Flicker_os.Measured_boot.event list ->
  Flicker_tpm.Tpm.quote ->
  (unit, failure) result
(** Accepts iff {!Verifier.authenticate} does, every PCR the log names
    is quoted, and every quoted PCR equals its replay, or, if the log
    never names it, its post-reboot value. *)

type burden = {
  components_to_assess : int;
      (** entries the verifier must individually trust *)
  includes_full_os : bool;
}

val trusted_boot_burden : Flicker_os.Measured_boot.event list -> burden
val flicker_burden : Flicker_slb.Pal.t -> burden
(** One PAL plus the SLB Core — the paper's headline comparison. *)
