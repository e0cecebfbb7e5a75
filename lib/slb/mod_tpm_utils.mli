(** TPM Utilities PAL module (Figure 6: 889 LOC, 9.4 KB).

    The client side of the TPM protocol: GetCapability, PCR Read/Extend,
    GetRandom, and Seal/Unseal together with the OIAP/OSAP session
    handshakes that authorize them. These are the calls a PAL makes
    through the driver during a session; each one is marshaled through
    the byte-level command transport ({!Flicker_tpm.Tpm_wire}), exactly
    as a real PAL's driver moves buffers to the memory-mapped device. *)

module Tpm = Flicker_tpm.Tpm
module Tpm_types = Flicker_tpm.Tpm_types

val pcr_read : Tpm.t -> int -> (Tpm_types.digest, Tpm_types.error) result
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
