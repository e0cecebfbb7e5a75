(** The remote party's verification logic (Section 4.4.1).

    The verifier knows the PAL it expects (so it can rebuild the SLB
    image and predict the measurement), trusts a Privacy CA, and sent a
    fresh nonce. It accepts iff: the AIK certificate chains to the
    trusted CA, the TPM signature over the quoted PCRs and nonce checks
    under that AIK, the nonce is its own, and PCR 17 equals the value
    only a genuine SKINIT launch of exactly that PAL — with exactly the
    claimed inputs and outputs — could have produced. *)

type failure =
  | Untrusted_ca
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
    evidence. On [Ok ()], the verifier knows the exact PAL ran under
    Flicker protection, consumed [claimed_inputs], and produced
    [claimed_outputs]. *)

(** {2 Staged checks}

    [verify] is the composition of the four checks below, in order. They
    are exposed so an appraisal cache can memoize the three stages whose
    verdict is a function of the values they read: certificate and
    quote-signature verification, whose cost scales with RSA, and PCR-17
    recomputation, whose host SHA-1 scales with the claimed I/O.
    Freshness depends on the challenge at hand and re-runs on every
    appraisal. *)

val check_certificate :
  ca_key:Flicker_crypto.Rsa.public ->
  Flicker_tpm.Privacy_ca.aik_certificate ->
  (unit, failure) result
(** Does the AIK certificate chain to the trusted CA? *)

val check_quote_signature :
  aik:Flicker_crypto.Rsa.public ->
  Flicker_tpm.Tpm.quote ->
  (unit, failure) result
(** Does the quote's signature over {!Flicker_tpm.Tpm.quote_payload} check under the
    certified AIK? *)

val check_freshness : expectation -> Flicker_tpm.Tpm.quote -> (unit, failure) result
(** Is the quoted nonce the challenge we sent? (Constant-time.) *)

val check_pcr17 : expectation -> Attestation.evidence -> (unit, failure) result
(** Does quoted PCR 17 equal the value implied by the expectation and
    the claimed inputs/outputs? *)
