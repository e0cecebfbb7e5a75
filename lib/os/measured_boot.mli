(** An IBM-IMA-style integrity measurement architecture (Section 2.1).

    The trusted-boot alternative Flicker argues against: every component
    loaded since power-on — BIOS, bootloader, kernel, modules, every
    application — is hashed into static PCRs with a log entry. The
    attestation is then a quote over those PCRs plus the log, and the
    verifier must assess *all* of it; one compromised entry taints
    everything after (Section 8's critique of IMA). Implemented so the
    repository can compare the two attestation models head-to-head. *)

type event = {
  pcr_index : int;
  template_hash : Flicker_tpm.Tpm_types.digest;  (** SHA-1 of the component *)
  component : string;  (** e.g., ["/sbin/init"] *)
}

type t

val create : Flicker_tpm.Tpm.t -> t
(** Fresh measurement agent over the TPM's static PCRs. The TPM should be
    in its post-reboot state. *)

val boot_sequence : t -> Kernel.t -> unit
(** The standard chain: BIOS and option ROMs into PCR 0, bootloader into
    PCR 4, kernel text into PCR 8, modules and the early userland into
    PCR 10 — mirroring a Linux/IMA layout. *)

val run_application : t -> name:string -> code:string -> unit
(** Applications measured into PCR 10 as they execute, IMA-style. *)

val log : t -> event list
(** Oldest first. *)

val pcrs_in_use : t -> Flicker_tpm.Tpm_types.pcr_selection
