(** The paper's adversary, made executable.

    Section 3.1: the attacker controls the OS (ring 0), all applications,
    and DMA-capable expansion hardware; it can invoke SKINIT itself and
    regains control between Flicker sessions. These functions mount those
    attacks so tests can assert both that each attack was attempted and
    that it failed (or, against an unprotected configuration, succeeded —
    the control condition). *)

type report = {
  attack : string;
  succeeded : bool;
  detail : string;
}

val scan_memory : Flicker_hw.Machine.t -> pattern:string -> report
(** Ring-0 scan of all physical memory for a secret. Succeeds iff the
    pattern is present — i.e., iff the PAL failed to erase it. *)

val dma_read_probe : Flicker_hw.Dma.t -> addr:int -> len:int -> pattern:string -> report
(** Malicious device reads memory hunting for [pattern]. *)

val dma_corrupt : Flicker_hw.Dma.t -> addr:int -> data:string -> report
(** Attempt to overwrite memory (e.g., patch the SLB before it runs). *)

val forge_pcr17 :
  Flicker_tpm.Tpm.t -> target:Flicker_tpm.Tpm_types.digest -> tries:string list -> report
(** Try to drive PCR 17 to [target] using software extends only (no
    SKINIT). Each element of [tries] is extended in turn; succeeds iff
    PCR 17 ever equals [target] — which would break attestation. *)

val replay_ciphertext : original:string -> stale:string -> (string -> ('a, 'e) result) -> report
(** Substitute a [stale] sealed blob for the [original] and report whether
    the victim accepted it ([Ok _]). *)
