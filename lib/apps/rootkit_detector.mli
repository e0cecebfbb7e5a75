(** The Flicker rootkit detector (Section 6.1).

    A network administrator queries a remote, possibly compromised host.
    The host runs a detector PAL that hashes the kernel text segment,
    system-call table, and loaded modules straight out of physical memory
    (the PAL runs without OS protection, so it sees everything), extends
    the result into PCR 17, and outputs it. The attestation proves the
    genuine detector ran under Flicker and returned exactly this hash;
    the administrator compares it against the known-good value for that
    kernel. *)

type deployment

val deploy_on : Flicker_core.Platform.t -> deployment
(** Lay the kernel image out in physical memory (text, syscall table,
    modules at fixed addresses) and record the pristine measurement. *)

val sync : deployment -> unit
(** Re-write the (possibly rootkitted) kernel state into memory — run
    after mutating the kernel so the detector sees the live image. *)

val known_good_hash : deployment -> string
(** SHA-1 of the pristine kernel regions. *)

val detector_pal : unit -> Flicker_slb.Pal.t
(** Build the detector PAL; {!deploy_on} builds the one its deployment
    runs and verifies. *)

val measured_region_bytes : deployment -> int

type scan_result = {
  reported_hash : string;
  outcome : Flicker_core.Session.outcome;
  evidence : Flicker_core.Attestation.evidence;
  nonce : string;
}

val scan : deployment -> nonce:string -> (scan_result, string) result
(** One detection query on the host: session + attestation. *)

type admin_verdict =
  | Clean
  | Rootkit_detected of { expected : string; got : string }
  | Attestation_rejected of Flicker_core.Verifier.failure

val admin_check :
  deployment ->
  ca_key:Flicker_crypto.Rsa.public ->
  scan_result ->
  admin_verdict
(** The administrator's side: verify the attestation, then compare the
    reported hash with the known-good value. *)

val remote_query :
  deployment -> ca_key:Flicker_crypto.Rsa.public -> (admin_verdict * float, string) result
(** Full end-to-end query over the simulated network (Section 7.2's
    1.02 s experiment): returns the verdict and total latency in ms. *)
