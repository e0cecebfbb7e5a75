(* Fleet benchmark: certificate-authority throughput and latency versus
   fleet size and batch size.

   Each configuration builds a fresh fleet of simulated Flicker platforms
   running the paper's CA (Section 6.3.2) as the workload, then offers an
   open-loop burst of CSRs that deliberately overloads a single machine
   (one signature session costs ~906 ms of simulated time). Batching
   amortizes the SKINIT + unseal + reseal overhead across up to
   [batch_size] CSRs per session, so throughput should rise with both
   axes of the sweep. *)

module Prng = Flicker_crypto.Prng
module Rsa = Flicker_crypto.Rsa
module CA = Flicker_apps.Cert_authority
module Workload = Flicker_service.Workload
module Fleet = Flicker_service.Fleet
module Dispatch = Flicker_service.Dispatch
module J = Flicker_obs.Json

let platform_counts = [ 1; 2; 4 ]
let batch_sizes = [ 1; 4; 16 ]
let clients = 8
let per_client = 6

let policy =
  {
    CA.allowed_suffixes = [ ".example.com" ];
    denied_subjects = [];
    max_certificates = 10_000;
  }

(* one keypair per client, shared across every configuration so the
   offered load is identical everywhere *)
let client_keys =
  lazy
    (Array.init clients (fun c ->
         (Rsa.generate
            (Prng.create ~seed:(Printf.sprintf "fleet-bench-client-%d" c))
            ~bits:512)
           .Rsa.pub))

let run_config ~platforms ~batch =
  let config =
    {
      Fleet.default_config with
      platforms;
      batch_size = batch;
      queue_depth = 64;
      policy = Dispatch.Least_loaded;
      seed = Printf.sprintf "fleet-bench-p%d-b%d" platforms batch;
    }
  in
  let fleet = Fleet.create ~config (Workload.ca policy) in
  let keys = Lazy.force client_keys in
  Fleet.submit_open_loop fleet ~clients ~per_client ~mean_gap_ms:5.0
    ~payload:(fun ~client ~seq ->
      Workload.ca_csr_payload
        ~subject:(Printf.sprintf "host-%d-%d.example.com" client seq)
        ~subject_key:keys.(client))
    ();
  Fleet.run fleet;
  Fleet.summary fleet

(* Sharded sweep: one fleet large enough that a single timeline is the
   bottleneck, split across shards and run twice — serially on one
   domain, then on [domains] — to (a) cross-check that the domain
   count is invisible in the simulated results and (b) record the
   wall-clock cost of both placements. Every submitted request must
   complete. Echo keeps the session cost flat so the measured wall is
   dominated by the event loops themselves. *)
let sharded_platforms = 64
let sharded_shards = 8
let sharded_clients = 32
let sharded_per_client = 8

let run_sharded ~domains =
  let config =
    {
      Fleet.default_config with
      platforms = sharded_platforms;
      shards = sharded_shards;
      domains;
      batch_size = 8;
      queue_depth = 64;
      policy = Dispatch.Least_loaded;
      seed = "fleet-bench-sharded-64";
    }
  in
  let fleet = Fleet.create ~config (Workload.echo ~work_ms:25.0 ()) in
  Fleet.submit_open_loop fleet ~clients:sharded_clients
    ~per_client:sharded_per_client ~mean_gap_ms:5.0
    ~payload:(fun ~client ~seq -> Printf.sprintf "shard-%d-%d" client seq)
    ();
  let t0 = Unix.gettimeofday () in
  Fleet.run fleet;
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  (Fleet.summary fleet, Fleet.dispositions fleet, wall_ms)

let run_sharded_sweep ~domains =
  Printf.printf "\n=== Fleet: sharded, %d platforms x %d shards ===\n"
    sharded_platforms sharded_shards;
  Printf.printf "(%d clients x %d echo requests; domain count must not change the simulation)\n"
    sharded_clients sharded_per_client;
  let s1, d1, wall_serial = run_sharded ~domains:1 in
  let sn, dn, wall_parallel = run_sharded ~domains in
  Paper.require (d1 = dn && s1 = sn)
    "fleet bench: sharded sweep diverged between 1 and %d domains" domains;
  Paper.require (sn.Fleet.completed = sn.submitted && sn.submitted > 0)
    "fleet bench: sharded sweep completed %d of %d requests" sn.completed
    sn.submitted;
  let speedup = if wall_parallel > 0.0 then wall_serial /. wall_parallel else 0.0 in
  Printf.printf "%-10s %7s %10s %9s %10s %12s %10s %10s\n" "platforms"
    "shards" "completed" "sessions" "forwarded" "thruput r/s" "p50 ms"
    "p95 ms";
  Printf.printf "%-10d %7d %10d %9d %10d %12.2f %10.1f %10.1f\n"
    sharded_platforms sharded_shards sn.Fleet.completed sn.sessions
    sn.forwarded sn.throughput_rps sn.latency_p50_ms sn.latency_p95_ms;
  Printf.printf
    "wall: %.1f ms on 1 domain, %.1f ms on %d domains (%.2fx)\n" wall_serial
    wall_parallel domains speedup;
  Paper.emit ~artifact:"fleet"
    ~label:(Printf.sprintf "p%d s%d" sharded_platforms sharded_shards)
    [
      ("platforms", J.Int sharded_platforms);
      ("shards", J.Int sharded_shards);
      ("submitted", J.Int sn.Fleet.submitted);
      ("completed", J.Int sn.completed);
      ("rejected", J.Int sn.rejected);
      ("expired", J.Int sn.expired);
      ("sessions", J.Int sn.sessions);
      ("forwarded", J.Int sn.forwarded);
      ("throughput_rps", J.Float sn.throughput_rps);
      ("p50_ms", J.Float sn.latency_p50_ms);
      ("p95_ms", J.Float sn.latency_p95_ms);
      ("mean_ms", J.Float sn.latency_mean_ms);
      ("makespan_ms", J.Float sn.makespan_ms);
    ];
  Paper.emit ~artifact:"fleet"
    ~label:(Printf.sprintf "p%d s%d walls" sharded_platforms sharded_shards)
    [
      ("platforms", J.Int sharded_platforms);
      ("shards", J.Int sharded_shards);
      ("wall_domains", J.Int domains);
      ("wall_ms_serial", J.Float wall_serial);
      ("wall_ms_parallel", J.Float wall_parallel);
      ("wall_speedup", J.Float speedup);
    ]

let run ~domains =
  Printf.printf "\n=== Fleet: CA throughput vs fleet size and batch size ===\n";
  Printf.printf "(%d clients x %d CSRs each, open-loop, least-loaded routing)\n"
    clients per_client;
  Printf.printf "%-10s %6s %10s %9s %12s %10s %10s\n" "platforms" "batch"
    "completed" "sessions" "thruput r/s" "p50 ms" "p95 ms";
  List.iter
    (fun platforms ->
      List.iter
        (fun batch ->
          let s = run_config ~platforms ~batch in
          Printf.printf "%-10d %6d %10d %9d %12.2f %10.1f %10.1f\n" platforms
            batch s.Fleet.completed s.sessions s.throughput_rps s.latency_p50_ms
            s.latency_p95_ms;
          Paper.emit ~artifact:"fleet"
            ~label:(Printf.sprintf "p%d b%d" platforms batch)
            [
              ("platforms", J.Int platforms);
              ("batch", J.Int batch);
              ("submitted", J.Int s.submitted);
              ("completed", J.Int s.completed);
              ("rejected", J.Int s.rejected);
              ("expired", J.Int s.expired);
              ("sessions", J.Int s.sessions);
              ("throughput_rps", J.Float s.throughput_rps);
              ("p50_ms", J.Float s.latency_p50_ms);
              ("p95_ms", J.Float s.latency_p95_ms);
              ("mean_ms", J.Float s.latency_mean_ms);
              ("makespan_ms", J.Float s.makespan_ms);
            ])
        batch_sizes)
    platform_counts;
  run_sharded_sweep ~domains
