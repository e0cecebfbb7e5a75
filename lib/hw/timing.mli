(** Calibrated latency model.

    Every latency here is calibrated against a measurement in the paper's
    Section 7 (the HP dc5750 testbed: 2.2 GHz Athlon64 X2, Broadcom
    BCM0102 TPM). The Infineon profile uses the alternative TPM latencies
    the paper quotes; [future] reflects the up-to-six-orders-of-magnitude
    hardware improvements proposed in the authors' concurrent ASPLOS'08
    work, scaled conservatively. *)

type tpm_profile = {
  tpm_name : string;
  quote_ms : float;  (** TPM_Quote: 972.7 ms Broadcom, 331 ms Infineon *)
  seal_ms : float;  (** TPM_Seal: 10.2 ms *)
  unseal_ms : float;  (** TPM_Unseal: 898.3 ms Broadcom, 391 ms Infineon *)
  pcr_extend_ms : float;  (** TPM_Extend: 1.2 ms *)
  pcr_read_ms : float;
  get_random_ms_per_128b : float;  (** 1.3 ms per 128 bytes *)
  nv_read_ms : float;
  nv_write_ms : float;
  counter_increment_ms : float;
  skinit_base_ms : float;  (** CPU state change: < 1 ms (Table 2, 0 KB row) *)
  skinit_ms_per_kb : float;  (** SLB transfer+hash to TPM: Table 2 slope *)
}

type cpu_profile = {
  cpu_name : string;
  sha1_mb_per_ms : float;  (** calibrated so 5.06 MB hashes in 22.0 ms *)
  rsa_keygen_1024_ms : float;  (** 185.7 ms (Figure 9a) *)
  rsa_private_1024_ms : float;  (** 4.6 ms decrypt / 4.7 ms sign *)
  rsa_public_1024_ms : float;
  misc_op_ms : float;  (** small fixed cost for modelled syscalls etc. *)
}

type network_profile = {
  rtt_ms : float;  (** 9.45 ms average ping, 12 hops (Section 7.1) *)
  bandwidth_kb_per_ms : float;
}

type t = {
  tpm : tpm_profile;
  cpu : cpu_profile;
  network : network_profile;
}

val broadcom : tpm_profile
val infineon : tpm_profile
val future_tpm : tpm_profile

val default : t
(** Broadcom + Athlon64 X2 + the paper's 12-hop network: the primary
    testbed of Section 7.1. *)

val with_tpm : tpm_profile -> t -> t

val skinit_ms : t -> slb_bytes:int -> float
(** Latency of the SKINIT instruction for an SLB of the given size:
    CPU state change plus the CPU-to-TPM transfer and hashing of the
    measured bytes (Table 2). *)

val sha1_ms : t -> bytes:int -> float
(** CPU-side SHA-1 over [bytes] of data. *)

val rsa_keygen_ms : t -> bits:int -> float
(** Expected keypair-generation latency; scales cubically with modulus
    size from the calibrated 1024-bit point. *)

val rsa_private_ms : t -> bits:int -> float
val rsa_public_ms : t -> bits:int -> float
val get_random_ms : t -> bytes:int -> float
(** One 128-byte block per started 128 bytes; a zero-byte request (no
    command issued) costs nothing. *)

val network_ms : t -> bytes:int -> float
(** One-way message latency: half an RTT plus serialization. *)
