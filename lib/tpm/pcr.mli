(** The Platform Configuration Register bank.

    24 registers. PCRs 0–16 are static: only a reboot resets them (to
    zero). PCRs 17–23 are dynamic: a reboot sets them to -1 and only the
    chipset — acting on SKINIT — can reset them to zero without a reboot
    (Section 2.3). Software can extend any PCR but never directly write
    one; that asymmetry is what makes PCR 17 attest to a genuine late
    launch. *)

type t

val set_notify : t -> (?value:Tpm_types.digest -> Flicker_verify.Event.t -> unit) -> unit
(** Observe every mutation of the bank as a [Pcr_extend] (with the
    extended [value]), [Pcr_reset] or [Pcr_reboot] event (the TPM wires
    this to the machine's protocol events). *)

val count : int
(** 24 (TPM v1.2). *)

val create : unit -> t
(** Bank in post-reboot state. *)

val reboot : t -> unit
(** Static PCRs to zero, dynamic PCRs to -1. *)

val dynamic_reset : t -> unit
(** Chipset-initiated (SKINIT) reset of PCRs 17–23 to zero. Not reachable
    from the software-facing command interface. *)

val read : t -> int -> (Tpm_types.digest, Tpm_types.error) result

val extend :
  ?kind:Flicker_verify.Event.pcr_kind ->
  t ->
  int ->
  Tpm_types.digest ->
  (Tpm_types.digest, Tpm_types.error) result
(** [extend t i m] sets [PCR_i <- SHA1(PCR_i || m)] and returns the new
    value. [m] must be exactly 20 bytes. [kind] (default [Software])
    labels who extended and why: [Measure] (SKINIT's SLB transmission),
    [Stub] (the optimized stub's window hash), [Input], [Output] and
    [Nonce] (session I/O extends), [Cap] (the session-close cap), or
    [Software] (any unlabeled command-path extend). The protocol
    verifier's extend-order automaton keys on these labels. *)

val composite : t -> Tpm_types.pcr_selection -> Tpm_types.pcr_composite
(** Snapshot the selected PCRs. *)
