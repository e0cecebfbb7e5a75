(** The remote party's verification logic (Section 4.4.1).

    The verifier knows the PAL it expects (so it can rebuild the SLB
    image and predict the measurement), trusts a Privacy CA, and sent a
    fresh nonce. It accepts iff: the AIK certificate chains to the
    trusted CA, the TPM signature over the quoted PCRs and nonce checks
    under that AIK, the nonce is its own, and PCR 17 equals the value
    only a genuine SKINIT launch of exactly that PAL — with exactly the
    claimed inputs and outputs — could have produced. *)

type failure =
  | Bad_certificate
  | Bad_signature
  | Nonce_mismatch
  | Pcr_mismatch of { expected : string; got : string }
  | Missing_pcr17

val failure_to_string : failure -> string

type expectation = {
  pal : Flicker_slb.Pal.t;
  flavor : Flicker_slb.Builder.flavor;
  slb_base : int;  (** where the challenged platform loads SLBs *)
  nonce : string;
  pal_extends : string list;
      (** values the PAL is expected to extend into PCR 17 itself; for
          the rootkit detector this is its reported hash *)
  acm : string option;
      (** the SINIT ACM, when the platform late-launches with Intel TXT;
          [None] for AMD SKINIT *)
}

val expect :
  pal:Flicker_slb.Pal.t ->
  ?flavor:Flicker_slb.Builder.flavor ->
  ?pal_extends:string list ->
  ?acm:string ->
  slb_base:int ->
  nonce:string ->
  unit ->
  expectation
(** Build an expectation; [flavor] defaults to [Optimized],
    [pal_extends] to none, and the launch technology to AMD SKINIT. *)

val verify :
  ca_key:Flicker_crypto.Rsa.public ->
  expectation ->
  Attestation.evidence ->
  (unit, failure) result
(** Full check against the claimed inputs/outputs carried in the
    evidence: {!authenticate} with {!direct}, then {!check_pcr17}. On
    [Ok ()], the verifier knows the exact PAL ran under Flicker
    protection, consumed [claimed_inputs], and produced
    [claimed_outputs]. *)

(** {2 Stages}

    Appraisal is four stages, in order: certificate, quote signature,
    freshness, PCR 17. Each is a function of the values it reads, so a
    relying party that sees the same evidence again can memoize
    ({!Memo}) the certificate and quote-signature stages, whose cost
    scales with RSA, and the PCR-17 stage, whose host SHA-1 scales with
    the claimed I/O. Freshness depends on the challenge at hand and
    re-runs on every appraisal. *)

type runner = {
  certificate : Flicker_tpm.Privacy_ca.aik_certificate -> (unit, failure) result;
      (** Does the AIK certificate chain to the trusted CA? *)
  quote_signature :
    Flicker_crypto.Rsa.public * Flicker_tpm.Tpm.quote -> (unit, failure) result;
      (** Does the quote's signature over {!Flicker_tpm.Tpm.quote_payload}
          check under the certified AIK? *)
}
(** How the first two stages run: directly, or through a memo. *)

val direct : ca_key:Flicker_crypto.Rsa.public -> runner
(** Both stages run for real, the certificate against [ca_key]. *)

val authenticate :
  runner ->
  nonce:string ->
  Flicker_tpm.Privacy_ca.aik_certificate ->
  Flicker_tpm.Tpm.quote ->
  (unit, failure) result
(** The first three stages, in order: the certificate, the quote's
    signature under the certified AIK, and whether the quoted nonce is
    the challenge [nonce] (constant-time). The first failing stage is
    reported. *)

val check_pcr17 : expectation -> Attestation.evidence -> (unit, failure) result
(** The last stage: does quoted PCR 17 equal the value implied by the
    expectation and the claimed inputs/outputs? *)
