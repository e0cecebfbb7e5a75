(** Request-to-platform routing policies.

    A request with a [home] platform always routes there regardless of
    policy — sealed blobs and replay counters are bound to one machine's
    TPM (Section 4.3), so running it anywhere else could only fail. The
    policy decides placement for the unconstrained rest:

    - {!Round_robin} rotates blindly: cheapest, but a run of heavy
      requests can pile onto one machine while another idles.
    - {!Least_loaded} picks the shortest queue (idle beats busy on ties,
      then the lowest index), the classic supermarket rule.
    - {!Sealed_affinity} hashes the client identity so that all of one
      client's requests — and therefore any sealed state those sessions
      create — land on the same machine deterministically; anonymous
      requests fall back to least-loaded. *)

type policy = Round_robin | Least_loaded | Sealed_affinity

val policy_name : policy -> string
val all_policies : (string * policy) list

type load = {
  queued : int;  (** requests waiting in the platform's queue *)
  busy : bool;  (** a batch is currently monopolizing the machine *)
  available : bool;
      (** up and accepting work: [false] while crashed/rebooting or while
          its circuit breaker is shedding load *)
}

val affinity_target : client:string -> total:int -> int
(** The global platform index {!Sealed_affinity} pins [client] to in a
    fleet of [total] platforms — the same FNV-1a hash [select] uses, so
    a sharded fleet can route a request to the shard owning its affinity
    target before shard-local dispatch re-derives it.
    @raise Invalid_argument when [total < 1]. *)

val select :
  gstart:int ->
  gtotal:int ->
  policy ->
  cursor:int ref ->
  request:Request.t ->
  load array ->
  int option
(** Chosen platform index among the available members; [None] when no
    available platform may take the request. A [home]d request only ever
    returns its home — [None] when the home is down (the caller must fail
    it explicitly rather than reroute, since its sealed state lives
    nowhere else). [cursor] is the round-robin rotation state, advanced
    only when that policy actually picks a platform.

    [loads] is a shard's contiguous window into the fleet: [gstart] is
    the global index of [loads.(0)] and [gtotal] the fleet-wide platform
    count. Homes and the affinity hash are interpreted as global
    indices — a home or affinity target outside the window behaves as
    unavailable (the shard forwards or falls back) — while the returned
    index, the round-robin rotation, and least-loaded comparisons are
    local to [loads].
    @raise Invalid_argument on an empty [loads] or a [home] outside
    [gtotal]. *)
