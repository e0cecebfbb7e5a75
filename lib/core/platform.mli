(** Assembly of one Flicker-capable machine: simulated hardware, TPM,
    untrusted OS, and the flicker-module's sysfs interface — the HP
    dc5750 of Section 7.1, in software.

    The trace-conformance gate of {!Session.execute} is off on a new
    platform; attaching a checker to its machine
    ({!Flicker_hw.Machine.attach_checker}) turns it on. *)

module Machine = Flicker_hw.Machine
module Tpm = Flicker_tpm.Tpm
module Privacy_ca = Flicker_tpm.Privacy_ca

type t = {
  machine : Machine.t;
  tpm : Tpm.t;
  kernel : Flicker_os.Kernel.t;
  scheduler : Flicker_os.Scheduler.t;
  sysfs : Flicker_os.Sysfs.t;
  rng : Flicker_crypto.Prng.t;
  aik_cert : Privacy_ca.aik_certificate;
  slb_base : int;  (** fixed allocation address of the flicker-module *)
  mutable sessions_run : int;
  mutable corrupt_next_slb : bool;
      (** test hook: flip a byte of the next loaded SLB window (a TOCTOU
          attack between patching and SKINIT) *)
}

val create :
  ?seed:string ->
  ?timing:Flicker_hw.Timing.t ->
  ?key_bits:int ->
  ?kernel_text_size:int ->
  ?ca:Privacy_ca.t ->
  unit ->
  t
(** Build a platform. [key_bits] (default 512 — tests; benches pass
    larger) sizes the TPM hierarchy. When [ca] is given, the platform's
    EK is registered there and the AIK certified by it; otherwise a
    throwaway CA is created. Deterministic for a fixed [seed]. *)

val now_ms : t -> float
val clock : t -> Flicker_hw.Clock.t
val fork_rng : t -> label:string -> Flicker_crypto.Prng.t
val fresh_nonce : t -> string
(** 20 verifier-grade random bytes. *)

val power_cycle : t -> unit
(** Crash-and-reboot the whole platform mid-whatever: volatile machine
    state, the suspended-scheduler flag, and all sysfs entries are lost;
    the TPM reboots (PCRs 17–23 go to the 0xff reboot digest) but keeps
    its NV storage, monotonic counters, and key hierarchy — so sealed
    blobs and replay counters survive, and the recovery paths of
    {!Flicker_slb.Mod_tpm_utils.unseal_versioned} can be exercised
    against a genuine reboot.
    The TPM reboots first, so its [pcr.reboot] event precedes the
    machine's [dev.clear] and the scheduler's [os.resume]. *)
