(** TPM Driver PAL module (Figure 6: 216 LOC, 0.8 KB).

    The TPM is a memory-mapped device; a PAL needs a minimal driver to
    claim it, keep its FIFO in a sane state, and release it so the Linux
    driver can reclaim it after the session. The simulator models the
    claim/release discipline — commands issued without an active claim
    fail, and an unreleased TPM blocks the OS-side quote daemon. *)

type t

val attach : Flicker_tpm.Tpm.t -> t
val claim : t -> (unit, string) result
(** Request locality access; fails when already claimed. *)

val release : t -> unit
val is_claimed : t -> bool

val with_tpm : t -> (Flicker_tpm.Tpm.t -> ('a, string) result) -> ('a, string) result
(** Claim the device, run the callback against it, and release the
    claim on every exit, exceptions included, so a PAL fault never
    leaves the driver wedged. This is how a PAL reaches the TPM. When
    the device is already claimed it fails without running the callback
    and leaves that claim in place. *)

val submit : t -> Flicker_tpm.Tpm_wire.command -> (Flicker_tpm.Tpm_wire.response, string) result
(** Marshal the command, push the bytes through the device's command
    buffer, and unmarshal the response — the transport a real driver
    performs for every operation. Requires an active claim. *)

val submit_raw : t -> string -> (string, string) result
(** Raw buffer in, raw buffer out (for driver-level tests: malformed
    buffers must come back as TPM error responses, never crashes). *)
