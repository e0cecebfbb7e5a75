(** Memoized attestation appraisal — the relying-party side of serving
    cached results.

    A front end that answers from its result cache hands every client
    the {e original} quote, so one platform's evidence is appraised over
    and over: every bundle of a chunk shares its quote, and every cache
    hit re-presents it. The appraiser runs {!Flicker_core.Verifier}'s
    stages in their one order, with three of them through a
    {!Flicker_core.Memo}: AIK-certificate validation (the same
    certificate for every quote a platform ever produces),
    quote-signature verification, and PCR-17 recomputation against the
    claimed I/O, whose host SHA-1 over the claimed inputs and outputs
    costs more than the other two together. Nonce freshness depends on
    the challenge at hand and re-runs on every appraisal.

    Each memo is keyed by the values its stage reads: the PCR-17 key is
    the (expectation, evidence) pair itself, compared with
    [String.equal] on the PAL's code, the nonce, the PAL's extends, the
    ACM, the claimed inputs and outputs and the quoted PCR 17, and [=]
    on the flavor and load address. Bundles that share a chunk's
    evidence compare by pointer; other strings are compared byte by byte
    and never hashed.

    Savings are accounted in the instrument the measurement-cache bench
    uses, {!Flicker_crypto.Sha1.bytes_hashed}: a certificate or quote
    hit credits the stage's cost to [bytes_saved]. *)

type t

val create : ca_key:Flicker_crypto.Rsa.public -> unit -> t
(** An appraiser trusting one Privacy CA. *)

val verify :
  t ->
  Flicker_core.Verifier.expectation ->
  Flicker_core.Attestation.evidence ->
  (unit, Flicker_core.Verifier.failure) result
(** Same verdict as {!Flicker_core.Verifier.verify} with the appraiser's
    CA key — the staged checks run in the same order, so the first
    failing stage reported is identical — but the certificate,
    quote-signature and PCR-17 stages run at most once per distinct
    input still in their memo. *)

type stats = {
  cert_hits : int;
  cert_misses : int;  (** certificate validations actually run *)
  quote_hits : int;  (** memoized quote verifications *)
  quote_misses : int;  (** quote-signature verifications actually run *)
  pcr_hits : int;  (** memoized PCR-17 recomputations *)
  pcr_misses : int;
      (** PCR-17 recomputations actually run; a quote without PCR 17 is
          checked without the memo and counts as neither *)
  bytes_saved : int;
      (** host-crypto bytes ({!Flicker_crypto.Sha1.bytes_hashed}) the
          certificate and quote memo hits avoided re-hashing; PCR-17
          hits are counted in [pcr_hits] only *)
}

val stats : t -> stats
