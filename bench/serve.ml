(* Serving-tier benchmark: throughput and tail latency versus cache-hit
   fraction, plus the host-crypto savings of memoized appraisal.

   Each cell builds an attested serving tier (lib/serve) over a fresh
   fleet and offers the same 100-request, two-tier load; only the
   fraction of requests whose payload was pre-warmed into the result
   cache varies. A hit is answered from the cache with the original
   quote — no platform session — so throughput should climb steeply with
   the hit fraction while every served result stays verifiable: after
   each run every cache-hit bundle is appraised through the full
   Verifier chain and the outcome is part of the emitted row.

   The chaos cell re-runs the 50% point under seeded fault injection to
   show crash + breaker behavior composes with the cache: crashed
   platforms' entries are invalidated (never silently served), and the
   bundles that were legitimately served before a later crash fail
   verification afterwards as stale — exactly the reset semantics the
   cache must enforce.

   Everything reported is simulated time or deterministic byte counts,
   so two runs with the same seed emit byte-identical JSON. *)

module Serve = Flicker_serve.Serve
module Appraise = Flicker_serve.Appraise
module Fleet = Flicker_service.Fleet
module Request = Flicker_service.Request
module Injector = Flicker_fault.Injector
module Platform = Flicker_core.Platform
module Metrics = Flicker_obs.Metrics
module Prng = Flicker_crypto.Prng
module Rsa = Flicker_crypto.Rsa
module Sha1 = Flicker_crypto.Sha1
module CA = Flicker_apps.Cert_authority
module J = Flicker_obs.Json

let interactive_clients = 3
let batch_clients = 7
let per_client = 10
let total = (interactive_clients + batch_clients) * per_client
let pool_size = 10
let interactive_deadline_ms = 8000.0

(* request k's payload: the first [hit_tenths] of every 10 consecutive
   requests draw from the warm pool, the rest are unique — so the hit
   fraction is exact by construction *)
let payload_for ~hit_tenths k =
  if k mod 10 < hit_tenths then Printf.sprintf "hot-%d" (k mod pool_size)
  else Printf.sprintf "cold-%d" k

let run_cell ~label ~hit_tenths ~faults =
  let fleet_cfg =
    {
      Fleet.default_config with
      platforms = 2;
      batch_size = 4;
      queue_depth = 64;
      seed = "serve-bench-" ^ label;
      faults = (if faults then Some (Injector.scaled 0.5) else None);
      retry_budget = (if faults then 2 else 0);
      breaker_failures = (if faults then 3 else 0);
    }
  in
  let config = { Serve.default_config with Serve.fleet = fleet_cfg } in
  let warm =
    if hit_tenths = 0 then []
    else List.init pool_size (fun i -> Printf.sprintf "hot-%d" i)
  in
  let t = Serve.create ~config ~warm () in
  let fleet = Serve.fleet t in
  (* two-tier load over one global request index, so the warm/cold
     pattern is identical in every cell *)
  Fleet.submit_open_loop fleet ~clients:interactive_clients ~per_client
    ~mean_gap_ms:5.0 ~tier:Request.Interactive
    ~deadline_ms:interactive_deadline_ms
    ~payload:(fun ~client ~seq ->
      payload_for ~hit_tenths ((client * per_client) + seq))
    ();
  Fleet.submit_open_loop fleet ~clients:batch_clients ~per_client
    ~mean_gap_ms:5.0 ~tier:Request.Batch
    ~payload:(fun ~client ~seq ->
      payload_for ~hit_tenths (((client + interactive_clients) * per_client) + seq))
    ();
  Fleet.run fleet;
  (* appraise every cache-hit bundle through the full Verifier chain.
     Under fault injection a platform may have crashed after serving a
     hit: that bundle must now fail as stale — never as bad crypto. *)
  let hits = Serve.appraise_hits t in
  (t, Fleet.summary fleet, hits)

let tier_slice (s : Fleet.summary) tier =
  List.find (fun ts -> ts.Fleet.tier = tier) s.Fleet.by_tier

let emit_cell ~label ~hit_tenths ~faults
    (t, (s : Fleet.summary), { Serve.ok; stale; bad }) =
  let m = Serve.metrics t in
  let ap = Appraise.stats (Serve.appraiser t) in
  let ti = tier_slice s Request.Interactive in
  let tb = tier_slice s Request.Batch in
  Printf.printf
    "%-12s %5d%% %10d %9d %9d %8d %10.2f %8.1f %8.1f   %d/%d/%d\n" label
    (hit_tenths * 10) s.Fleet.completed s.Fleet.cache_served s.Fleet.sessions
    s.Fleet.crashes s.Fleet.throughput_rps s.Fleet.latency_p50_ms
    s.Fleet.latency_p95_ms ok stale bad;
  Paper.emit ~artifact:"serve" ~label
    [
      ("hit_pct", J.Int (hit_tenths * 10));
      ("faulted", J.Bool faults);
      ("submitted", J.Int s.Fleet.submitted);
      ("completed", J.Int s.Fleet.completed);
      ("rejected", J.Int s.Fleet.rejected);
      ("expired", J.Int s.Fleet.expired);
      ("failed", J.Int s.Fleet.failed);
      ("cache_served", J.Int s.Fleet.cache_served);
      ("cache_hits", J.Int (Metrics.counter m "serve.cache.hits"));
      ("cache_misses", J.Int (Metrics.counter m "serve.cache.misses"));
      ("stale_rejected", J.Int (Metrics.counter m "serve.cache.stale_rejected"));
      ("invalidations", J.Int (Metrics.counter m "serve.cache.invalidations"));
      ("sessions", J.Int s.Fleet.sessions);
      ("crashes", J.Int s.Fleet.crashes);
      ("throughput_rps", J.Float s.Fleet.throughput_rps);
      ("p50_ms", J.Float s.Fleet.latency_p50_ms);
      ("p95_ms", J.Float s.Fleet.latency_p95_ms);
      ("makespan_ms", J.Float s.Fleet.makespan_ms);
      ("interactive_p95_ms", J.Float ti.Fleet.t_p95_ms);
      ("interactive_deadline_misses", J.Int ti.Fleet.t_deadline_misses);
      ("interactive_expired", J.Int ti.Fleet.t_expired);
      ("batch_p95_ms", J.Float tb.Fleet.t_p95_ms);
      ("hits_verified", J.Int ok);
      ("hits_stale", J.Int stale);
      ("hits_bad", J.Int bad);
      ("memo_quote_hits", J.Int ap.Appraise.quote_hits);
      ("memo_cert_hits", J.Int ap.Appraise.cert_hits);
      ("memo_bytes_saved", J.Int ap.Appraise.bytes_saved);
    ];
  s.Fleet.throughput_rps

(* CA-side memoization: how many host-crypto bytes does caching
   certificate-validation verdicts save a relying party that checks the
   same few certificates over and over? *)
let ca_memo_report () =
  let platform = Platform.create ~seed:"serve-bench-ca" () in
  let server =
    CA.create platform
      {
        CA.allowed_suffixes = [ ".example.com" ];
        denied_subjects = [];
        max_certificates = 100;
      }
  in
  let ca_key =
    match CA.init_ca server with
    | Ok pub -> pub
    | Error e -> failwith ("serve bench: CA init failed: " ^ e)
  in
  let certs =
    List.filter_map Result.to_option
      (CA.sign_batch server
         (List.init 3 (fun i ->
              {
                CA.subject = Printf.sprintf "host-%d.example.com" i;
                subject_key =
                  (Rsa.generate
                     (Prng.create
                        ~seed:(Printf.sprintf "serve-bench-subject-%d" i))
                     ~bits:512)
                    .Rsa.pub;
              })))
  in
  let rounds = 5 in
  let cold_bytes =
    let before = Sha1.bytes_hashed () in
    for _ = 1 to rounds do
      List.iter
        (fun c ->
          if not (CA.verify_certificate ~ca_key c) then
            failwith "serve bench: certificate failed to verify")
        certs
    done;
    Sha1.bytes_hashed () - before
  in
  let cache = CA.verify_cache ~ca_key () in
  let cached_bytes =
    let before = Sha1.bytes_hashed () in
    for _ = 1 to rounds do
      List.iter
        (fun c ->
          if not (CA.verify_certificate_cached cache c) then
            failwith "serve bench: cached certificate failed to verify")
        certs
    done;
    Sha1.bytes_hashed () - before
  in
  let hits, misses = CA.verify_cache_stats cache in
  Printf.printf
    "\nCA certificate-validation memoization (%d certs x %d rounds):\n"
    (List.length certs) rounds;
  Printf.printf
    "  cold: %d bytes hashed; memoized: %d bytes (%d hits, %d RSA verifies)\n"
    cold_bytes cached_bytes hits misses;
  Paper.emit ~artifact:"serve" ~label:"ca-cert-memo"
    [
      ("certificates", J.Int (List.length certs));
      ("rounds", J.Int rounds);
      ("cold_bytes_hashed", J.Int cold_bytes);
      ("memoized_bytes_hashed", J.Int cached_bytes);
      ("bytes_saved", J.Int (cold_bytes - cached_bytes));
      ("cache_hits", J.Int hits);
      ("rsa_verifies", J.Int misses);
    ]

let run () =
  Printf.printf "\n=== Serve: attested result cache vs hit fraction ===\n";
  Printf.printf
    "(%d requests: %d interactive clients with %.0f ms deadlines + %d batch \
     clients; 2 platforms, batch 4)\n"
    total interactive_clients interactive_deadline_ms batch_clients;
  Printf.printf "%-12s %6s %10s %9s %9s %8s %10s %8s %8s   %s\n" "cell" "hits"
    "completed" "cached" "sessions" "crashes" "rps" "p50 ms" "p95 ms"
    "ok/stale/bad";
  let sweep =
    List.map
      (fun hit_tenths ->
        let label = Printf.sprintf "hit%d" (hit_tenths * 10) in
        let cell = run_cell ~label ~hit_tenths ~faults:false in
        (hit_tenths, emit_cell ~label ~hit_tenths ~faults:false cell))
      [ 0; 5; 9 ]
  in
  let chaos_cell = run_cell ~label:"chaos50" ~hit_tenths:5 ~faults:true in
  ignore (emit_cell ~label:"chaos50" ~hit_tenths:5 ~faults:true chaos_cell);
  let rps_at n = List.assoc n sweep in
  let speedup = if rps_at 0 > 0.0 then rps_at 9 /. rps_at 0 else 0.0 in
  Printf.printf "\nthroughput at 90%% hits / 0%% hits: %.2fx\n" speedup;
  Paper.emit ~artifact:"serve" ~label:"speedup"
    [
      ("rps_hit0", J.Float (rps_at 0));
      ("rps_hit90", J.Float (rps_at 9));
      ("speedup", J.Float speedup);
    ];
  ca_memo_report ()
