(** Deterministic, seed-driven fault injection.

    The paper's whole argument is that Flicker's guarantees survive a
    hostile, unreliable platform — an OS that crashes mid-session, a TPM
    that stalls or returns transient errors, a malicious device that DMAs
    at the worst moment (Sections 4–5). This module makes those failures
    first-class simulation inputs instead of ad-hoc test hooks.

    Every fault decision is a pure function of [(seed, site, draw index,
    virtual time)], hashed through SHA-256 exactly like the
    {!Flicker_crypto.Prng} hash-chain discipline: the same seed always
    yields the same fault trace, so a chaos run is as replayable as a
    clean one. There is no hidden global state — each injector owns its
    per-site draw counters.

    Hook sites live in the layers themselves ([Machine.charge] for clock
    skew, [Tpm.charge_op] for latency spikes and transient errors,
    [Dma.fire_storm] for adversarial DMA, the fleet's dispatch loop for
    crashes); this module only answers "does a fault fire here, now?". *)

type config = {
  tpm_error_rate : float;
      (** probability a faultable TPM command returns a transient
          [Tpm_busy] (TPM_RETRY) instead of executing *)
  tpm_latency_rate : float;  (** probability a TPM command stalls *)
  tpm_latency_factor : float;
      (** multiplier applied to a stalled command's latency (>= 1) *)
  crash_rate : float;
      (** probability a dispatched batch dies mid-session: the platform
          power-cycles, losing all volatile state *)
  reboot_ms : float;  (** virtual downtime after a crash *)
  dma_storm_rate : float;
      (** probability a PAL execution draws a burst of adversarial DMA
          writes (the DEV must deny the ones that matter) *)
  dma_storm_writes : int;  (** writes per storm burst *)
  clock_skew_pct : float;
      (** each platform's oscillator error: one fixed factor per
          injector, drawn in [1 - pct, 1 + pct], applied to every
          charged latency *)
}

val disabled : config
(** All rates zero: an injector built from this never fires. *)

val scaled : float -> config
(** One-knob chaos profile: [scaled r] injects TPM errors and DMA storms
    at rate [r], latency spikes (4x) at [r/2], crashes at [r/3] with a
    500 ms reboot, and 1% clock skew. [r] is clamped to [0, 1]. *)

val enabled : config -> bool
(** Whether any fault can ever fire under this config. *)

type t

val create : ?config:config -> seed:string -> unit -> t
(** [config] defaults to {!disabled}. Rates are clamped to [0, 1],
    [tpm_latency_factor] to >= 1, [clock_skew_pct] to [0, 0.5]. *)

val config : t -> config

val uniform : t -> site:string -> now_ms:float -> float
(** One deterministic draw in [0, 1): SHA-256 of
    [(seed, site, per-site draw count, now_ms)]. Consecutive draws at
    the same site and time differ (the draw count ratchets), but the
    whole sequence replays identically for the same seed. *)

val clock_skew : t -> float
(** The injector's fixed oscillator factor (1.0 when skew is off). *)

type tpm_fault =
  | No_fault
  | Busy  (** return a transient TPM_RETRY error *)
  | Slow of float  (** charge [factor] times the normal latency *)

val tpm_fault : t -> op:string -> now_ms:float -> tpm_fault
(** Decision for one TPM command. Error and latency draws use distinct
    sites ([tpm.err.<op>] / [tpm.lat.<op>]) so enabling one never
    perturbs the other's schedule. *)

val session_crash : t -> now_ms:float -> float option
(** [Some frac] when the batch about to be dispatched should instead
    die mid-session, [frac] in [0, 1) locating the crash point within
    the batch's expected service time. *)

val dma_storm : t -> now_ms:float -> int option
(** [Some n] when a storm of [n] adversarial DMA writes should fire
    during the current PAL execution. *)
