(* Chaos benchmark: fleet degradation under seeded fault injection.

   Sweeps fault rate x fleet size with the echo workload and a bounded
   retry budget, and reports the degradation curve: goodput (completed
   requests per second), tail latency, re-dispatches, and the raw fault
   counts (crashes, TPM transients, DMA storms, breaker opens). The
   schedule of faults is a pure function of the per-configuration seed,
   so every cell — and the emitted JSON — is byte-identical across
   runs. *)

module Fleet = Flicker_service.Fleet
module Workload = Flicker_service.Workload
module Dispatch = Flicker_service.Dispatch
module Injector = Flicker_fault.Injector
module J = Flicker_obs.Json

let fault_rates = [ 0.0; 0.1; 0.3 ]
let platform_counts = [ 2; 4 ]
let clients = 6
let per_client = 5

let run_config ~platforms ~rate =
  let config =
    {
      Fleet.default_config with
      platforms;
      batch_size = 2;
      queue_depth = 32;
      policy = Dispatch.Least_loaded;
      seed = Printf.sprintf "chaos-bench-p%d-r%.2f" platforms rate;
      faults = Some (Injector.scaled rate);
      retry_budget = 2;
      breaker_failures = 3;
    }
  in
  let fleet = Fleet.create ~config (Workload.echo ~work_ms:60.0 ()) in
  Fleet.submit_open_loop fleet ~clients ~per_client ~mean_gap_ms:25.0
    ~payload:(fun ~client ~seq -> Printf.sprintf "chaos-%d-%d" client seq)
    ();
  Fleet.run fleet;
  Fleet.summary fleet

(* One sharded cell: the fault machinery (injected crashes, re-dispatch,
   breakers) running across shard boundaries, on [domains] domains — the
   emitted fields are all simulated, so the row is byte-identical at any
   domain count. *)
let run_sharded ~domains =
  let platforms = 64 and shards = 8 and rate = 0.2 in
  let config =
    {
      Fleet.default_config with
      platforms;
      shards;
      domains;
      batch_size = 2;
      queue_depth = 32;
      policy = Dispatch.Least_loaded;
      seed = Printf.sprintf "chaos-bench-sharded-p%d-r%.2f" platforms rate;
      faults = Some (Injector.scaled rate);
      retry_budget = 2;
      breaker_failures = 3;
    }
  in
  let fleet = Fleet.create ~config (Workload.echo ~work_ms:60.0 ()) in
  Fleet.submit_open_loop fleet ~clients:16 ~per_client:4 ~mean_gap_ms:10.0
    ~payload:(fun ~client ~seq -> Printf.sprintf "chaos-s-%d-%d" client seq)
    ();
  Fleet.run fleet;
  let s = Fleet.summary fleet in
  Printf.printf "%-10s %6.2f %10d %7d %8d %8d %8d %6d %10.2f %10.1f\n"
    (Printf.sprintf "%dx%ds" platforms shards)
    rate s.Fleet.completed s.failed s.crashes s.redispatched s.tpm_faults
    s.dma_storms s.throughput_rps s.latency_p95_ms;
  Paper.emit ~artifact:"chaos"
    ~label:(Printf.sprintf "p%d s%d r%.2f" platforms shards rate)
    [
      ("platforms", J.Int platforms);
      ("shards", J.Int shards);
      ("fault_rate", J.Float rate);
      ("submitted", J.Int s.Fleet.submitted);
      ("completed", J.Int s.completed);
      ("failed", J.Int s.failed);
      ("rejected", J.Int s.rejected);
      ("expired", J.Int s.expired);
      ("crashes", J.Int s.crashes);
      ("redispatched", J.Int s.redispatched);
      ("forwarded", J.Int s.forwarded);
      ("breaker_opens", J.Int s.breaker_opens);
      ("tpm_faults", J.Int s.tpm_faults);
      ("dma_storms", J.Int s.dma_storms);
      ("goodput_rps", J.Float s.throughput_rps);
      ("p95_ms", J.Float s.latency_p95_ms);
      ("makespan_ms", J.Float s.makespan_ms);
    ]

let run ~domains =
  Printf.printf "\n=== Chaos: fleet degradation vs fault rate ===\n";
  Printf.printf
    "(%d clients x %d echo requests, retry budget 2, breaker after 3 failures)\n"
    clients per_client;
  Printf.printf "%-10s %6s %10s %7s %8s %8s %8s %6s %10s %10s\n" "platforms"
    "rate" "completed" "failed" "crashes" "retries" "tpm" "dma" "goodput r/s"
    "p95 ms";
  List.iter
    (fun platforms ->
      List.iter
        (fun rate ->
          let s = run_config ~platforms ~rate in
          Printf.printf "%-10d %6.2f %10d %7d %8d %8d %8d %6d %10.2f %10.1f\n"
            platforms rate s.Fleet.completed s.failed s.crashes s.redispatched
            s.tpm_faults s.dma_storms s.throughput_rps s.latency_p95_ms;
          Paper.emit ~artifact:"chaos"
            ~label:(Printf.sprintf "p%d r%.2f" platforms rate)
            [
              ("platforms", J.Int platforms);
              ("fault_rate", J.Float rate);
              ("submitted", J.Int s.submitted);
              ("completed", J.Int s.completed);
              ("failed", J.Int s.failed);
              ("rejected", J.Int s.rejected);
              ("expired", J.Int s.expired);
              ("crashes", J.Int s.crashes);
              ("redispatched", J.Int s.redispatched);
              ("breaker_opens", J.Int s.breaker_opens);
              ("tpm_faults", J.Int s.tpm_faults);
              ("dma_storms", J.Int s.dma_storms);
              ("goodput_rps", J.Float s.throughput_rps);
              ("p95_ms", J.Float s.latency_p95_ms);
              ("makespan_ms", J.Float s.makespan_ms);
            ])
        fault_rates)
    platform_counts;
  run_sharded ~domains
