(** Expected PCR 17 values — the verifier's side of the measurement chain
    (Section 4.4.1).

    After SKINIT, PCR 17 holds [H(0x00^20 || H(SLB))] where [SLB] is the
    initialized (patched) measured region. For an optimized image the
    chain has one more link: the measured stub extends the hash of the
    full 64 KB window. After the PAL runs, the SLB Core extends
    measurements of the inputs, the outputs, the verifier's nonce (when
    present), and finally the well-known cap value, in that order. *)

type digest = Flicker_tpm.Tpm_types.digest

val extend : digest -> digest -> digest
(** [extend current value] = SHA-1(current || value). *)

val initialized : Flicker_slb.Builder.image -> slb_base:int -> string
(** The image patched for [slb_base]: [Builder.initialize], kept in the
    image's memo slot with the digests below. A lookup at the slot's
    address hits; one at any other address recomputes the slot. The
    returned string is shared: treat it as immutable. *)

val of_image : Flicker_slb.Builder.image -> slb_base:int -> digest
(** H(measured bytes) of the initialized image — what the TPM receives.
    Kept in the image's memo slot. *)

val window_hash : Flicker_slb.Builder.image -> slb_base:int -> digest
(** Hash of the full 64 KB initialized window (what the optimized stub
    extends when no page of the window was written after the load).
    Kept in the image's memo slot. *)

val cache_stats : unit -> int * int
(** (hits, misses) of every memo-slot lookup in the process so far, on
    any domain — instrumentation for [bench micro] and perf/. Only
    the counts depend on the domain layout, never a digest. *)

val after_launch : ?acm:string -> Flicker_slb.Builder.image -> slb_base:int -> digest
(** PCR 17 immediately after a late launch (including the stub's extend
    for optimized images) — the value sealed storage should bind to.
    With [acm] the chain models an Intel TXT launch: GETSEC[SENTER]
    measures the SINIT ACM before the ACM measures the MLE, adding one
    link in front. *)

val labeled_io_extends :
  inputs:string ->
  outputs:string ->
  nonce:string option ->
  (Flicker_verify.Event.pcr_kind * digest) list
(** The values the SLB Core extends after the PAL exits, each with its
    PCR kind ([Input], [Output], [Nonce]) so the session can tag the
    extends for the temporal verifier's extend-order automaton. *)

val final :
  ?acm:string ->
  ?pal_extends:digest list ->
  Flicker_slb.Builder.image ->
  slb_base:int ->
  inputs:string ->
  outputs:string ->
  nonce:string option ->
  digest
(** The capped PCR 17 value a correct session must leave behind — what a
    quote over PCR 17 is checked against. [pal_extends] lists any values
    the PAL itself extended during execution (e.g., the rootkit detector
    extends its result hash before exiting); they sit between the launch
    measurement and the SLB Core's I/O extends. *)
