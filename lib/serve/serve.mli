(** The attested serving tier: a verifiable result cache in front of the
    fleet.

    Flicker's value proposition is paying the SKINIT + TPM session cost
    only when isolation is needed — yet the fleet pays it on {e every}
    request. This tier makes repeated inputs free: each batch runs as an
    attested session (executed under a fresh verifier nonce, PCR 17
    quoted once per chunk), and every result is stored as a {!bundle} —
    output, original quote, nonce, quoted PCR composite — keyed by
    [(PCR-17 launch composite, input hash)]. A later identical request
    is answered straight from the cache, and the client can still verify
    the bundle against the original quote: the platform is not touched,
    but nothing is taken on faith.

    Cache entries are only as trustworthy as the quoting platform's
    state, so entries are invalidated per-platform on the two events
    that change it — reboot ({!Flicker_service.Fleet.add_crash_hook}
    fires this eagerly, before crash victims are re-dispatched) and NV
    counter advance ({!advance_nv}) — plus the usual capacity (LRU) and
    virtual-clock TTL bounds of {!Cache}. A stale entry is never served:
    even if a sweep were missed, the interceptor re-checks the epoch
    structurally and {!verify_bundle} fails on it. *)

type config = {
  fleet : Flicker_service.Fleet.config;
  cache_capacity : int;
  cache_ttl_ms : float option;  (** [None]: entries never expire *)
}

val default_config : config
(** {!Flicker_service.Fleet.default_config} underneath; capacity 1024,
    no TTL. *)

type t

val create : ?config:config -> ?warm:string list -> unit -> t
(** Build the tier and its fleet. [warm] payloads are executed —
    through the same attested path as live traffic, distributed
    round-robin across platforms — during provisioning (before the
    fleet's clock starts and before fault injectors are installed), so
    their results are cached and verifiable from the first request on.
    @raise Failure if warming fails.
    @raise Invalid_argument when [config.fleet.shards > 1]: the cache is
    the fleet's interceptor and crash hook, which run inline and only on
    a one-shard fleet. *)

val fleet : t -> Flicker_service.Fleet.t
(** The fleet underneath: submit with
    {!Flicker_service.Fleet.submit} / [submit_open_loop] and drive with
    [run] as usual. The tier is installed as the fleet's interceptor, so
    cacheable requests complete with [platform = -1] and [batch = 0] in
    their disposition. A request with a home platform is never
    cacheable: it always reaches its home, whose sealed state stays
    authoritative. *)

type bundle = {
  output : string;
  payload : string;
  nonce : string;  (** the verifier nonce the quoted session ran under *)
  evidence : Flicker_core.Attestation.evidence;  (** the original quote *)
  pcr17 : string;  (** quoted final PCR 17 *)
  platform : int;
  boots : int;  (** the platform's reboot epoch when quoted *)
  nv : int;  (** the platform's NV epoch when quoted *)
  quoted_at_ms : float;
}

val bundle_for : t -> int -> bundle option
(** The verifiable bundle behind a request id: for a cache hit, the
    cached bundle it was served from; for a miss, the bundle minted by
    its session. [None] for failed/rejected/expired requests. *)

type verify_failure =
  | Stale of string
      (** the quoting platform rebooted or advanced its NV counter since
          the quote: trust state changed, the bundle must be re-earned *)
  | Crypto of Flicker_core.Verifier.failure
  | Not_in_batch
      (** the quote verifies but this (payload, output) pair is not one
          of the quoted session's positional I/O pairs *)

val verify_failure_to_string : verify_failure -> string

val verify_bundle : t -> bundle -> (unit, verify_failure) result
(** Client-side appraisal of a bundle, cached or fresh: epoch freshness,
    then the full {!Flicker_core.Verifier} chain (via {!Appraise}, so
    repeated appraisals memoize the host crypto), then positional
    membership of the (payload, output) pair in the quoted session's
    claimed I/O. [Ok ()] means exactly what a fresh attestation would:
    this output was produced from this payload by the expected PAL under
    Flicker protection. *)

type hit_appraisal = { ok : int; stale : int; bad : int }

val appraise_hits : t -> hit_appraisal
(** Appraise every cache hit the fleet has finalized so far — each
    [Completed] disposition with [batch = 0] — in request-id order:
    {!bundle_for}, then {!verify_bundle}. A hit counts as [stale] when
    its platform's trust state changed after the quote, and as [bad]
    when it has no bundle or fails any other check. *)

val advance_nv : t -> int -> unit
(** Model platform [i] advancing its TPM NV counter (e.g. a replay-
    protected state update): bumps its NV epoch and invalidates its
    cache entries. @raise Invalid_argument outside the fleet. *)

val cached : t -> string -> bool
(** Whether a payload would currently be served from the cache (present,
    unexpired, and fresh). Counts as a lookup in the cache stats. *)

val cache_stats : t -> Cache.stats

val appraiser : t -> Appraise.t
(** The tier's memoizing appraiser, shared by every {!verify_bundle}. *)

val metrics : t -> Flicker_obs.Metrics.t
(** The tier's registry, reconciled on read: [serve.cache.hits],
    [serve.cache.misses], [serve.cache.stale_rejected],
    [serve.cache.insertions], [serve.cache.evictions],
    [serve.cache.expirations], [serve.cache.invalidations] (with
    [serve.cache.invalidated_reboot] / [serve.cache.invalidated_nv]
    attributing them), and the appraiser's [serve.memo.cert_hits],
    [serve.memo.cert_misses], [serve.memo.quote_hits],
    [serve.memo.quote_misses], [serve.memo.bytes_saved]. *)
