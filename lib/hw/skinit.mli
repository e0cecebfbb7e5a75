(** Late launch (Section 2.4): AMD SVM's SKINIT instruction, and Intel
    TXT's GETSEC[SENTER] when an ACM is given.

    SKINIT atomically: verifies it runs in ring 0 on the BSP with all APs
    parked, reads the SLB header (16-bit length and entry point), enables
    the DEV over the 64 KB SLB region, disables interrupts and debug
    access, has the TPM reset the dynamic PCRs and measure the SLB into
    PCR 17, and finally enters flat 32-bit protected mode at the SLB entry
    point. Nothing that ran before SKINIT can influence the launched code,
    which is precisely the property Flicker builds on.

    The paper implements Flicker on AMD SVM but notes that "Intel's TXT
    technology functions analogously". The architectural difference this
    simulator models is SENTER's two-stage measurement: it first loads
    and measures a chipset-specific Authenticated Code Module (the SINIT
    ACM), which then measures and launches the Measured Launch
    Environment (Flicker's SLB). Both measurements land in the dynamic
    PCR chain, so a verifier expecting a TXT launch must account for the
    extra ACM link. (Real TXT splits the two across PCRs 17 and 18; the
    simulator keeps the single-register chain of its SVM model and
    documents the simplification in DESIGN.md.) Everything else — DMA
    protection (TXT's NoDMA/PMR), the interrupt and debug lockout, the
    flat-mode entry — is the same sequence. *)

exception Skinit_error of string

type launch = {
  slb_base : int;  (** physical address passed to SKINIT *)
  slb_length : int;  (** measured length from the header *)
  entry_point : int;  (** absolute physical address of the first instruction *)
  measurement : string;
      (** H(measured SLB bytes): what the TPM extended (under TXT, after
          the ACM's link) *)
  protected_base : int;
  protected_len : int;  (** always the full 64 KB DEV window *)
}

val default_acm : unit -> string
(** A stand-in SINIT ACM image (vendor-supplied binary on real hardware);
    deterministic so measurements are reproducible. Each call builds the
    20 KB image afresh. *)

val execute : ?acm:string -> Machine.t -> slb_base:int -> launch
(** Perform the launch sequence on [slb_base]: SKINIT, or SENTER under
    the SINIT ACM [acm], which the TPM measures into PCR 17 (and the
    clock charges) before the SLB.
    @raise Skinit_error when an architectural precondition fails: caller
    not in ring 0, caller not the BSP, APs not parked, an empty ACM,
    missing TPM, bad header, or the SLB exceeding its window. *)

val teardown_dev : Machine.t -> launch -> unit
(** Drop the DEV protection after the session's cleanup phase (done by the
    SLB Core just before resuming the OS). *)
