(** The simulated platform: memory, DEV, CPU cores, clock, and the hooks
    through which SKINIT drives the TPM.

    The TPM itself lives in [flicker_tpm] (which depends on this library
    for the clock and timing model); the platform assembly in
    [flicker_core.Platform] wires a TPM instance into [tpm_hooks].

    Observability: every machine carries a {!Flicker_obs.Tracer} (span
    and instant events over the simulated clock, in a bounded ring
    buffer) and a {!Flicker_obs.Metrics} registry (counters and latency
    histograms) that the TPM, session, and OS layers feed. *)

type tpm_hooks = {
  dynamic_pcr_reset : unit -> unit;
      (** Reset PCRs 17–23 to zero, as the chipset does on SKINIT. *)
  measure_into_pcr17 : len:int -> source:(string * int) option -> read:(unit -> string) -> string;
      (** Hash the [len] transmitted SLB bytes, extend PCR 17 with the
          hash, and return it. [source] is where the bytes lie when they
          are one slice [String.sub s o len] of an immutable string
          ({!Memory.source}); [read ()] returns them. The TPM keeps the
          slice it measured last and its hash: when [source] is that
          very slice (the same string, physically, at the same offset
          and length) it extends the hash again without reading or
          rehashing anything. Any other bytes (another string, another
          part of it, or no single source) are read and hashed, and
          what the TPM keeps is replaced by their slice, or by nothing
          when they have none. The digest, the extend and the launch's
          simulated cost are the same either way. *)
}

type t = {
  memory : Memory.t;
  dev : Dev.t;
  cpus : Cpu.t;
  clock : Clock.t;
  timing : Timing.t;
  tracer : Flicker_obs.Tracer.t;  (** bounded audit trail + spans *)
  metrics : Flicker_obs.Metrics.t;
  mutable tpm_hooks : tpm_hooks option;
  mutable injector : Flicker_fault.Injector.t option;
      (** fault injector consulted by the charge path, the TPM command
          layer, and DMA storms; [None] (the default) injects nothing *)
  mutable checker : Flicker_verify.Checker.t option;
      (** protocol checker fed every {!protocol_event}; [None] (the
          default) checks nothing *)
}

val create : ?memory_size:int -> ?trace_capacity:int -> Timing.t -> t
(** Two cores (the dual-core dc5750). Defaults: 16 MB of memory and a
    4096-event trace ring buffer. *)

val set_tpm_hooks : t -> tpm_hooks -> unit

val set_injector : t -> Flicker_fault.Injector.t -> unit
val injector : t -> Flicker_fault.Injector.t option

val attach_checker : t -> Flicker_verify.Checker.t -> unit
(** Feed every later protocol event to the checker, and turn on the
    conformance gate of [Flicker_core.Session.execute] on this machine. *)

val fault_event :
  t -> ?render:Flicker_obs.Tracer.render -> ?n:int -> ?s:string -> string -> unit
(** Record an instant under the ["fault"] category: hook sites emit one per
    injected fault so a chaos run's trace shows exactly what fired. Its
    args come from [render] over [n] and [s] (see
    {!Flicker_obs.Tracer.record}); by default it has none. *)

val log_event : t -> string -> unit
(** Record an instant event on the tracer (and the debug log). *)

val log_record :
  t -> render:Flicker_obs.Tracer.render -> code:int -> n:int -> string -> unit
(** {!log_event} for a line that [render] formats from [code] and [n]
    only when it is read (or debug-logged). *)

val protocol_event : t -> ?device:string -> ?value:string -> Flicker_verify.Event.t -> unit
(** The one emission point of the protocol alphabet. Hardware, TPM, OS
    and session layers call it at each protocol-relevant state change
    (SKINIT begin/end, DEV range changes, suspend/resume, PCR extends,
    NV traffic, DMA attempts, zeroization). It records the event with
    {!Flicker_verify.Event.record}, as an instant under the
    ["protocol"] category that reads back named by
    {!Flicker_verify.Event.name} with {!Flicker_verify.Event.args}, and
    feeds it to the attached {!checker}, if any. Two annotations reach
    the trace record only: [device] (a DMA attempt's device name, the
    first arg) and [value] (a PCR extend's 20-byte value, recorded last
    as its first 4 bytes in hex). *)

val charge : t -> float -> unit
(** Advance the simulated clock by [ms], scaled by the injector's clock
    skew factor when one is installed. *)

val power_cycle : t -> unit
(** Crash-and-reboot: zero all memory, clear the DEV, return every core
    to ring-0 long-mode [Running]. Volatile state is gone; the TPM's
    non-volatile state survives but its PCRs must be rebooted by the
    caller ({!Flicker_tpm.Tpm.reboot} via [Platform.power_cycle]). *)

val charge_sha1 : t -> bytes:int -> unit
(** Charge CPU time for hashing [bytes] on the main processor. *)
