(** One Flicker session, end to end — the Figure 2 timeline.

    The application writes the uninitialized SLB and its inputs to the
    flicker-module's sysfs entries and pokes [control]; the module
    allocates kernel memory, patches the SLB Core's skeleton GDT/TSS with
    the allocation address, saves OS state, parks the APs, and issues
    SKINIT. The SLB Core then initializes, calls the PAL, erases secrets,
    extends PCR 17 with the inputs/outputs/nonce and the cap value, and
    resumes the untrusted OS, which exposes the outputs through sysfs.

    The flicker-module is untrusted: nothing here is in the TCB because
    every action that matters is either measured (the SLB) or verified
    after the fact (the attestation). *)

type phase =
  | Load_slb  (** sysfs writes, allocation, patching *)
  | Suspend_os  (** AP hotplug + INIT IPI + state save *)
  | Skinit
  | Slb_init  (** SLB Core setup; includes the stub's hash+extend when optimized *)
  | Pal_execution
  | Cleanup  (** zeroization *)
  | Pcr_extends  (** inputs/outputs/nonce measurements + cap *)
  | Resume_os

val phase_name : phase -> string

type outcome = {
  outputs : string;
  slb_measurement : string;  (** H(measured SLB bytes), as the TPM saw them *)
  pcr17_during : string;  (** PCR 17 while the PAL ran (sealing binds to this) *)
  pcr17_final : string;  (** after the closing cap extend *)
  breakdown : (phase * float) list;  (** simulated milliseconds per phase *)
  total_ms : float;
  pal_fault : string option;  (** OS-Protection trap, if the PAL faulted *)
}

val phase_ms : outcome -> phase -> float

type error =
  | Skinit_failed of string
  | Unknown_pal
      (** the PAL region of the launched window is not the handed PAL's
          code: nothing ran *)
  | Os_busy of { transient : bool; msg : string }
      (** [transient] is [true] when another Flicker session currently
          owns the machine, or the platform was power-cycled under the
          PAL — waiting and retrying can succeed. It is [false] for a
          missing, short, or corrupt SLB image, or a PAL whose code does
          not fit the flavor's SLB: there is no full window to launch,
          and no amount of waiting fixes that. The classification is
          structural, set at the raise site — retry logic must not (and
          no longer does) parse [msg]. *)

val pp_error : Format.formatter -> error -> unit

val os_busy_transient : string -> error
(** [Os_busy { transient = true; msg }] — another session owns the
    machine, or a power cycle cut the session short. *)

val os_busy_permanent : string -> error
(** [Os_busy { transient = false; msg }] — a structural failure (missing,
    short, or corrupt SLB image, or a PAL too large for the flavor) that
    no amount of waiting fixes. *)

(** {1 Trace conformance} *)

exception
  Protocol_violation of {
    pal : string;
    violations : Flicker_verify.Checker.violation list;
  }
(** Raised at the end of a session whose protocol events broke a
    temporal automaton, when the platform's machine has a checker
    attached ({!Flicker_hw.Machine.attach_checker}). The checker sees
    every protocol event as it is emitted, so no session goes unchecked,
    however much the trace ring has evicted since it began.
    [violations] are those the checker recorded from the session's first
    event on. *)

val busy_is_transient : error -> bool
(** [true] exactly for the transient flavour of [Os_busy] (mid-session,
    or power-cycled under the PAL): waiting (and retrying) can succeed. A
    missing or short SLB image is not transient. *)

type launch_tech =
  | Svm  (** AMD SKINIT — the paper's implementation platform *)
  | Txt of { acm : string }
      (** Intel GETSEC[SENTER] with the given SINIT ACM (Section 2.4:
          "Intel's TXT technology functions analogously") *)

val execute :
  Platform.t ->
  pal:Flicker_slb.Pal.t ->
  ?flavor:Flicker_slb.Builder.flavor ->
  ?tech:launch_tech ->
  ?inputs:string ->
  ?nonce:string ->
  ?time_limit_ms:float ->
  unit ->
  (outcome, error) result
(** Run a full session on the platform. [flavor] defaults to [Optimized]
    (the paper uses the hash-then-extend loader for everything after
    Section 7.2). [nonce] is the verifier's 20-byte challenge; when
    present it is extended into PCR 17 with the outputs. A PAL whose
    code does not fit [flavor]'s SLB (see {!Flicker_slb.Pal.t}) fails
    with a permanent [Os_busy] carrying the link message, before the
    session is counted or traced.

    [time_limit_ms] arms the SLB Core's watchdog timer (the execution-time
    restriction Section 5.1.2 describes as under investigation): if the
    PAL runs past the limit, its outputs are discarded, the fault is
    recorded, and cleanup proceeds — the OS gets its machine back.

    A PAL that raises an exception other than an OS-Protection fault
    still gets the rest of its session: the wipe, the I/O extends, the
    cap, DEV teardown, OS resume and [session.end]. The exception then
    reaches the caller (unless the session broke the protocol, which
    raises {!Protocol_violation}), and the platform serves its next
    session.

    A PAL during which the platform was power-cycled
    ({!Platform.power_cycle}) ends the session with a transient
    [Os_busy]: the machine has rebooted, so the session wipes nothing,
    extends nothing and resumes nothing, and {!call} relaunches.
    @raise Invalid_argument if [inputs] exceeds the 4 KB input page, the
    nonce is not 20 bytes, or the time limit is not positive. *)

val execute_from_sysfs : Platform.t -> pal:Flicker_slb.Pal.t -> (outcome, error) result
(** The application-facing path of Section 4.2: the application has
    already written the uninitialized SLB image of [pal] to the [slb]
    sysfs entry and its inputs to [inputs]; writing [control] triggers
    this. The launch flavor is the one whose linked image of [pal]
    ({!Flicker_slb.Builder.linked}) equals the [slb] image; only flavors
    that linked are tried, and an image that neither flavor of [pal]
    links to fails with [Unknown_pal] before any launch. Outputs
    appear in the [outputs] entry. Fails with [Os_busy] when the [slb]
    entry is missing or not a full window image. *)

val corrupt_slb_in_memory : Platform.t -> unit
(** Test hook simulating an adversary flipping SLB bytes between the
    sysfs write and SKINIT: flips one byte of the loaded window the next
    time a session loads it. *)

val call :
  Platform.t ->
  pal:Flicker_slb.Pal.t ->
  ?nonce:string ->
  ?inputs:string ->
  unit ->
  (outcome, string) result
(** The host side's one way to run a PAL and read its result: {!execute}
    with the default flavor and launch technology. A {e transient}
    [Os_busy] (see {!busy_is_transient}) is retried: at most 3 attempts,
    and before each retry the platform clock advances by the backoff
    (10 ms, doubling) and the machine's [session.busy_retries] counter is
    bumped. The last session error comes back rendered by {!pp_error}. A
    PAL that reported failure with {!Flicker_slb.Pal_env.fail} comes back
    as [Error] holding its report whole.
    @raise Invalid_argument as {!execute} does. *)
