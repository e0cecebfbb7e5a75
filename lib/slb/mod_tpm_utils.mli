(** TPM Utilities PAL module (Figure 6: 889 LOC, 9.4 KB).

    The client side of the TPM protocol: GetCapability, PCR Read/Extend,
    GetRandom, Seal/Unseal together with the OIAP/OSAP session
    handshakes that authorize them, and the versioned sealed state
    Section 4.3.2 builds from counter and NV reads and writes. These are
    the calls a PAL makes through the driver during a session; each one
    is marshaled through the byte-level command transport
    ({!Flicker_tpm.Tpm_wire}), exactly as a real PAL's driver moves
    buffers to the memory-mapped device. Only the owner-authorized
    Define Space and Create Counter use the command interface directly. *)

module Tpm = Flicker_tpm.Tpm
module Tpm_types = Flicker_tpm.Tpm_types

val pcr_extend : Tpm.t -> int -> Tpm_types.digest -> (Tpm_types.digest, Tpm_types.error) result
val get_random : Tpm.t -> int -> string

val seal :
  Tpm.t ->
  rng:Flicker_crypto.Prng.t ->
  release:Tpm_types.pcr_composite ->
  string ->
  (string, Tpm_types.error) result
(** Runs the OSAP handshake on the SRK, authorizes TPM_Seal, and returns
    the sealed blob. [release] names the PCR values required at unseal
    time (Section 4.3.1: PAL P seals for PAL P' by giving PCR 17 the
    value H(0x00^20 || H(P'))). *)

val unseal :
  Tpm.t ->
  rng:Flicker_crypto.Prng.t ->
  string ->
  (string, Tpm_types.error) result

val seal_to_pcr17 :
  Tpm.t ->
  rng:Flicker_crypto.Prng.t ->
  pcr17:Tpm_types.digest ->
  string ->
  (string, Tpm_types.error) result
(** Common case: bind to a specific PCR 17 value. *)

val seal_for_self :
  Tpm.t ->
  rng:Flicker_crypto.Prng.t ->
  string ->
  (string, Tpm_types.error) result
(** Read PCR 17 and seal to the value read. Inside a session PCR 17
    holds the running PAL's own measurement, so only a later session of
    the same PAL can unseal the blob (Section 4.3.1). *)

val nv_define_space :
  Tpm.t ->
  rng:Flicker_crypto.Prng.t ->
  owner_auth:string ->
  index:int ->
  Flicker_tpm.Nvram.space_attributes ->
  (unit, Tpm_types.error) result
(** OIAP-authorized NV space definition (Section 4.3.2: possession of the
    20-byte owner secret authorizes Define Space). *)

val create_counter :
  Tpm.t ->
  rng:Flicker_crypto.Prng.t ->
  owner_auth:string ->
  label:string ->
  (int, Tpm_types.error) result

(** {1 Versioned sealed state (Section 4.3.2, Figure 4)}

    TPM_Unseal guarantees that only the intended PAL reads the
    plaintext, not that the ciphertext is the latest version. The
    untrusted OS stores the blobs, so it can hand a PAL yesterday's
    state. Each {!seal_versioned} advances a version kept in the TPM and
    seals it beside the data; {!unseal_versioned} accepts a blob only
    when its version equals the live one. Both take the claimed device,
    so a PAL opens and reseals its state under one driver claim. *)

type version_store =
  | Counter of int  (** a monotonic counter's handle, from {!create_counter} *)
  | Nv_space of int  (** a PCR-17-gated NV space's index, from {!create_nv_version} *)

val create_nv_version :
  Tpm.t ->
  rng:Flicker_crypto.Prng.t ->
  owner_auth:string ->
  index:int ->
  (unit, Tpm_types.error) result
(** Define a 4-byte NV space at [index] whose reads and writes both
    require PCR 17's current value (owner-authorized Define Space), and
    zero it. Run inside a session of the PAL that will use it: only that
    PAL, inside a genuine Flicker session, can then read or advance the
    version. *)

val seal_versioned :
  Tpm.t ->
  rng:Flicker_crypto.Prng.t ->
  version_store ->
  string ->
  (string, Tpm_types.error) result
(** Figure 4 Seal: advance the version to [j] (IncrementCounter, or an
    NV read and a write of the next value) and seal [j || data] to the
    current PCR 17. *)

type unseal_error =
  | Replay_detected of { sealed_version : int; counter : int }
  | Counter_out_of_sync of { sealed_version : int; counter : int }
      (** the version is exactly one ahead of the blob: the signature of
          a crash between the increment and the ciphertext reaching disk,
          which Section 4.3.2 says needs explicit detection. Recoverable
          by policy, and distinct from a plain replay. *)
  | Tpm_error of Tpm_types.error
      (** the TPM refused the unseal or the version read, or the
          plaintext is too short to carry a version *)

val unseal_versioned :
  Tpm.t ->
  rng:Flicker_crypto.Prng.t ->
  version_store ->
  string ->
  (string, unseal_error) result
(** Figure 4 Unseal: [d || j' <- TPM_Unseal(c)]; return [d] only when
    [j'] equals the live version. *)
