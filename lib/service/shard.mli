(** One shard of a fleet: a contiguous window of platforms, fully owned.

    A shard holds everything mutable about its platforms — admission
    queues, breaker and crash state, its own {!Event_queue}, its own
    {!Flicker_obs.Metrics} registry, its own round-robin cursor, its own
    finalized-request table — and shares nothing writable with any other
    shard. That ownership is what lets the fleet run shards on OCaml 5
    [Domain]s: between epoch barriers each shard's [drain] touches only
    shard-local state (plus its platforms, which no other shard can
    reach), so the simulation is identical whether shards run
    sequentially on one domain or in parallel on many.

    Cross-shard effects never happen mid-epoch. A shard that cannot
    place a request locally appends it to its {e outbox}; the
    coordinator collects every outbox at the barrier and delivers the
    requests in canonical order — see {!Fleet.run}. A crash runs the
    fleet's crash hooks inline, and the fleet installs hooks only while
    it has one shard, so no hook ever runs on a second domain. *)

type params = {
  queue_depth : int;
  batch_size : int;
  policy : Dispatch.policy;
  timing : Flicker_hw.Timing.t;
  retry_budget : int;
  breaker_failures : int;
  breaker_cooldown_ms : float;
  gtotal : int;  (** platforms fleet-wide, for global homes/affinity *)
  n_shards : int;  (** bounds a request's cross-shard hop budget *)
}
(** The slice of the fleet's config a shard needs to serve requests. *)

val tier_index : Request.tier -> int
(** Index of a tier's admission queue — also the fleet's indexing for
    per-tier submission counts. *)

val n_tiers : int

type t

val create :
  params:params ->
  sid:int ->
  gstart:int ->
  workload:Workload.t ->
  interceptor:(Request.t -> string option) option ref ->
  crash_hooks:(int -> unit) list ref ->
  now:float ->
  Flicker_core.Platform.t array ->
  t
(** Wrap platforms [gstart, gstart + length) (already prepared by the
    fleet) as shard [sid]. [interceptor] and [crash_hooks] are shared
    refs so hooks installed on the fleet after creation are seen here.
    [now] is the fleet's starting virtual time. *)

val sid : t -> int
val now : t -> float
(** Shard-local virtual time: the latest event this shard processed. *)

val platform : t -> int -> Flicker_core.Platform.t
(** By global index; the caller routes to the owning shard. *)

val platform_up : t -> int -> bool
val crash_platform : t -> int -> unit
(** Crash global platform [g] now (no-op when already down): volatile
    state lost, queued requests re-dispatched within their retry budget,
    recovery scheduled. The fleet's crash hooks run at the crash, before
    the victims re-enter admission. *)

val next_event_ms : t -> float option
(** Timestamp of this shard's earliest pending event. *)

val push_arrival : t -> at_ms:float -> Request.t -> unit
(** Schedule a request to reach this shard's dispatcher at [at_ms] —
    client submissions and barrier-forwarded requests alike. *)

val drain : ?until_ms:float -> stop_before:float -> t -> unit
(** Process events strictly before [stop_before] (and at most
    [until_ms], inclusive — the fleet's run bound). Touches only
    shard-owned state, so concurrent drains of distinct shards are
    race-free. *)

val take_outbox : t -> (float * Request.t) list
(** Requests this shard could not place locally, as [(emit_ms, req)] in
    emission order; clears the outbox. The coordinator delivers them to
    the next shard at the epoch boundary. *)

val metrics : t -> Flicker_obs.Metrics.t
(** The shard's own registry (the [fleet.*] series for its share of the
    traffic); the fleet merges these in shard order. *)

val finalized : t -> (int, Request.t * Request.disposition) Hashtbl.t
(** Finalized requests by id. The fleet also writes its admission-gate
    refusals into shard 0's table (and counts them in shard 0's
    registry), from the coordinator between drains. *)

val completed_counts : t -> int array
(** Per-member completion counts, in window order. *)

val sessions : t -> int
(** Flicker sessions run across this shard's platforms. *)

val machine_counter : t -> string -> int
(** Sum of a per-machine counter over this shard's platforms. *)

val past_deadline : deadline_ms:float option -> at_ms:float -> bool
(** The one deadline-boundary convention (exactly at the deadline is on
    time); re-exported by {!Fleet.past_deadline}. *)
