(** Intel TXT late launch: GETSEC[SENTER] (Section 2.4).

    The paper implements Flicker on AMD SVM but notes that "Intel's TXT
    technology functions analogously". The architectural difference this
    simulator models is the two-stage measurement: SENTER first loads and
    measures a chipset-specific Authenticated Code Module (the SINIT
    ACM), which then measures and launches the Measured Launch
    Environment (Flicker's SLB). Both measurements land in the dynamic
    PCR chain, so a verifier expecting a TXT launch must account for the
    extra ACM link. (Real TXT splits the two across PCRs 17 and 18; the
    simulator keeps the single-register chain of its SVM model and
    documents the simplification in DESIGN.md.)

    Everything else — DEV-equivalent DMA protection (TXT's NoDMA/PMR),
    interrupt and debug lockout, the flat-mode entry — matches SKINIT. *)

exception Senter_error of string

val default_acm : string
(** A stand-in SINIT ACM image (vendor-supplied binary on real hardware);
    deterministic so measurements are reproducible. *)

val execute : Machine.t -> slb_base:int -> acm:string -> Skinit.launch
(** Run the SENTER sequence on the MLE at [slb_base]. The launch record
    is SKINIT's: the MLE occupies the same window, its [measurement] is
    the MLE's digest (the ACM's link is in PCR 17 before it), and
    {!Skinit.teardown_dev} drops its DMA protection.
    @raise Senter_error under the same preconditions as SKINIT, plus an
    empty ACM. *)
