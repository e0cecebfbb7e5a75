(* The benchmark's four workloads.

   Each workload generates its inputs from the seed (untimed: client
   keys, then each round's CSRs or payloads just before that round),
   builds its system inside the timed set-up, and is then driven round
   by round: round 0 is the warm-up, rounds 1.. are timed. Every round
   offers the same load. The fleet is drained at the end of each round
   and the next round is submitted to the same fleet, so virtual time
   keeps running.

   Layers are measured from outside: spans wrap the benchmark's own
   calls into public functions, and the [Workload.t] the fleets run is
   wrapped with timing closures. Counters are read through the public
   accessors before and after the measurement window. *)

module Fleet = Flicker_service.Fleet
module Request = Flicker_service.Request
module Workload = Flicker_service.Workload
module Serve = Flicker_serve.Serve
module Appraise = Flicker_serve.Appraise
module Platform = Flicker_core.Platform
module Measurement = Flicker_core.Measurement
module Machine = Flicker_hw.Machine
module Metrics = Flicker_obs.Metrics
module Sha1 = Flicker_crypto.Sha1
module Rsa = Flicker_crypto.Rsa
module Prng = Flicker_crypto.Prng
module Util = Flicker_crypto.Util
module CA = Flicker_apps.Cert_authority
module V = Flicker_verify

type size = Full | Smoke

(* The window is the rounds every simulated number and count is taken
   over: the first twenty timed rounds (the only one in a smoke run).
   Rounds past it only add host samples, so simulated numbers do not
   depend on how long a run measures. *)
type window = {
  rounds : int;  (* rounds run, warm-up included *)
  first : int;
  last : int;
  delta : string -> float;  (* counter change across the window *)
  spans : Spans.span list;  (* spans inside the window (traced runs) *)
  all_spans : Spans.span list;  (* every span, set-up included *)
}

type outcome = {
  attempted : int;  (* checked operations, every round *)
  failed : int;  (* bad outcomes, every round *)
  deviations : string list;  (* failed checks; any one fails the run *)
  metrics : Metric.t list;
}

type instance = {
  round : int -> unit -> int;
      (* [round r] makes round [r]'s inputs, untimed, and returns the
         round itself, which returns its op count; rounds run in order *)
  counters : unit -> (string * float) list;
  report : window -> outcome;
}

type t = {
  name : string;
  make : seed:int -> size -> unit -> instance;
      (* generates the inputs every round shares and returns the timed
         set-up *)
}

(* --- helpers --------------------------------------------------------- *)

let secs ns = float_of_int ns /. 1e9
let dur s = s.Spans.stop_ns - s.Spans.start_ns
let named name spans = List.filter (fun s -> s.Spans.name = name) spans
let total_s spans = secs (List.fold_left (fun acc s -> acc + dur s) 0 spans)
let durs_ms spans = List.map (fun s -> float_of_int (dur s) /. 1e6) spans
let count_if f l = List.fold_left (fun acc x -> if f x then acc + 1 else acc) 0 l
let range first last = List.init (last - first + 1) (fun i -> first + i)

(* the fleet's workload with every prepare and run_batch call timed; the
   reference loop is sampled after each prepare, so a long set-up gauges
   the host's speed once per platform *)
let timed (w : Workload.t) =
  {
    w with
    Workload.prepare =
      (fun p i ->
        Spans.with_span "Workload.prepare" (fun () -> w.Workload.prepare p i);
        ignore (Spans.with_span "Refloop.sample" Refloop.sample));
    run_batch =
      (fun p reqs ->
        Spans.with_span "Workload.run_batch"
          ~ids:(fun () -> List.map (fun (r : Request.t) -> r.Request.id) reqs)
          (fun () -> w.Workload.run_batch p reqs));
  }

let tpm_ops = [ "quote"; "seal"; "unseal"; "pcr_extend"; "get_random" ]

let is_tpm_ms name =
  String.length name > 7
  && String.sub name 0 4 = "tpm."
  && String.sub name (String.length name - 3) 3 = ".ms"

(* counters of the fleet, its machines, and the calling domain's
   measurement cache; every gated number runs on one domain, so that
   cache sees all of the fleet's measurements *)
let fleet_counters fleet () =
  let m = Fleet.metrics fleet in
  let fill_n, fill_sum =
    match Metrics.histogram m "fleet.batch_fill" with
    | Some h -> (float_of_int h.Metrics.count, h.Metrics.sum)
    | None -> (0.0, 0.0)
  in
  let machines =
    List.init (Fleet.config fleet).Fleet.platforms (fun i ->
        (Fleet.platform fleet i).Platform.machine.Machine.metrics)
  in
  let sum f = List.fold_left (fun acc mm -> acc +. f mm) 0.0 machines in
  let count name = sum (fun mm -> float_of_int (Metrics.counter mm name)) in
  let tpm_ms =
    sum (fun mm ->
        List.fold_left
          (fun acc h -> if is_tpm_ms h.Metrics.h_name then acc +. h.Metrics.sum else acc)
          0.0 (Metrics.histograms mm))
  in
  let hits, misses = Measurement.cache_stats () in
  [
    ("fleet.batches", float_of_int (Metrics.counter m "fleet.batches"));
    ("fleet.forwarded", float_of_int (Metrics.counter m "fleet.forwarded"));
    ("fleet.batch_fill.n", fill_n);
    ("fleet.batch_fill.sum", fill_sum);
    ("session.runs", count "session.runs");
    ("session.busy_retries", count "session.busy_retries");
    ("tpm.ms", tpm_ms);
    ("sha1.bytes", float_of_int (Sha1.bytes_hashed ()));
    ("measure.hits", float_of_int hits);
    ("measure.misses", float_of_int misses);
  ]
  @ List.map (fun op -> ("tpm." ^ op ^ ".count", count ("tpm." ^ op ^ ".count"))) tpm_ops

(* the window's requests, by the fleet's sequential ids: round [r] of
   [per_round] requests holds ids r*per_round+1 .. (r+1)*per_round *)
let in_rounds ~per_round ~first ~last (r : Request.t) =
  r.Request.id > first * per_round && r.Request.id <= (last + 1) * per_round

let completion = function Request.Completed c -> Some c | _ -> None

(* end-to-end simulated numbers over the window's requests; latency is
   client-perceived, counted from each request's [sent_ms] *)
let sim_metrics ~bad reqs =
  let done_ = List.filter_map (fun (r, d) -> Option.map (fun c -> (r, c)) (completion d)) reqs in
  let lat = List.map (fun (_, c) -> c.Request.latency_ms) done_ in
  let n = List.length lat in
  let first_sent =
    List.fold_left (fun acc ((r : Request.t), _) -> min acc r.Request.sent_ms) infinity reqs
  in
  let last_done =
    List.fold_left
      (fun acc ((r : Request.t), c) -> max acc (r.Request.sent_ms +. c.Request.latency_ms))
      neg_infinity done_
  in
  let makespan_s = if n = 0 then 0.0 else (last_done -. first_sent) /. 1000.0 in
  [
    Metric.sim "sim_goodput_rps" "req/s" (Metric.ratio (float_of_int n) makespan_s);
    Metric.sim ~n "sim_p50_ms" "ms" (Metric.percentile lat 50.0);
    Metric.sim ~n "sim_p99_ms" "ms" (Metric.percentile lat 99.0);
    Metric.sim "error_rate" "fraction"
      (Metric.ratio (float_of_int bad) (float_of_int (List.length reqs)));
  ]

(* Fleet/Shard/Dispatch, session and TPM numbers shared by every
   workload that runs a fleet *)
let fleet_layer_metrics (w : window) reqs =
  let served =
    List.filter_map
      (fun ((r : Request.t), d) ->
        match completion d with
        | Some c when c.Request.platform >= 0 -> Some (r, c)
        | _ -> None)
      reqs
  in
  let wait =
    List.map (fun ((r : Request.t), c) -> c.Request.dispatched_ms -. r.Request.arrival_ms) served
  in
  let service =
    List.map (fun (_, c) -> c.Request.finished_ms -. c.Request.dispatched_ms) served
  in
  let n = float_of_int (List.length reqs) in
  let d = w.delta in
  let hits = d "measure.hits" and misses = d "measure.misses" in
  [
    Metric.sim "service.batches" "count" (d "fleet.batches");
    Metric.sim "service.batch_fill_mean" "req/batch"
      (Metric.ratio (d "fleet.batch_fill.sum") (d "fleet.batch_fill.n"));
    Metric.sim "service.forwarded" "count" (d "fleet.forwarded");
    Metric.sim "service.sim_queue_wait_ms_p50" "ms" (Metric.percentile wait 50.0);
    Metric.sim "service.sim_queue_wait_ms_p99" "ms" (Metric.percentile wait 99.0);
    Metric.sim "service.sim_service_ms_p50" "ms" (Metric.percentile service 50.0);
    Metric.sim "service.sim_service_ms_p99" "ms" (Metric.percentile service 99.0);
    Metric.sim "core.sessions" "count" (d "session.runs");
    Metric.sim "core.sessions_per_req" "ratio" (Metric.ratio (d "session.runs") n);
    Metric.sim "core.busy_retries" "count" (d "session.busy_retries");
    Metric.sim "core.measure_cache_hits" "count" hits;
    Metric.sim "core.measure_cache_misses" "count" misses;
    Metric.sim "core.measure_cache_hit_ratio" "ratio" (Metric.ratio hits (hits +. misses));
    Metric.sim "tpm.sim_ms_per_req" "ms" (Metric.ratio (d "tpm.ms") n);
    Metric.sim "crypto.sha1_bytes_per_op" "bytes/op" (Metric.ratio (d "sha1.bytes") n);
  ]
  @ List.map
      (fun op -> Metric.sim ("tpm." ^ op ^ ".count") "count" (d ("tpm." ^ op ^ ".count")))
      tpm_ops

(* host time of the calls into the fleet, from the traced run *)
let fleet_span_metrics (w : window) ~requests ~platforms =
  if w.spans = [] then []
  else
    let runs = named "Fleet.run" w.spans in
    let batches = named "Workload.run_batch" w.spans in
    let self =
      List.fold_left
        (fun acc run ->
          let inside =
            List.filter
              (fun b ->
                b.Spans.start_ns < run.Spans.stop_ns && b.Spans.stop_ns > run.Spans.start_ns)
              batches
          in
          acc + Spans.self_ns run inside)
        0 runs
    in
    let busy = total_s batches in
    let prepare = total_s (named "Workload.prepare" w.all_spans) in
    let create =
      total_s (named "Fleet.create" w.all_spans) -. total_s (named "Refloop.sample" w.all_spans)
    in
    let n = float_of_int requests in
    [
      Metric.host "service.run_s" "s" (total_s runs);
      Metric.host "service.submit_s" "s" (total_s (named "Fleet.submit_open_loop" w.spans));
      Metric.host "service.self_us_per_req" "us" (Metric.ratio (secs self *. 1e6) n);
      Metric.host "service.prepare_s" "s" prepare;
      Metric.host ~n:(List.length batches) "core.run_batch_ms_p50" "ms"
        (Metric.percentile (durs_ms batches) 50.0);
      Metric.host ~n:(List.length batches) "core.run_batch_ms_p99" "ms"
        (Metric.percentile (durs_ms batches) 99.0);
      Metric.host "core.run_batch_busy_s" "s" busy;
      Metric.host "core.host_us_per_session" "us"
        (Metric.ratio (busy *. 1e6) (w.delta "session.runs"));
      Metric.host "core.platform_build_ms" "ms"
        ((create -. prepare) *. 1000.0 /. float_of_int platforms);
    ]

(* --- fleet workloads -------------------------------------------------- *)

type fleet_shape = {
  config : Fleet.config;
  clients : int;
  per_client : int;
  mean_gap_ms : float;
}

(* Judges every finalized request with [check] (on its output, when it
   completed). Returns the failed checks, the number of failures
   (requests never finalized included), the window's requests, and how
   many of those failed. *)
let judge_requests ~expected ~per_round (w : window) all check =
  let verdict ((r : Request.t), d) =
    let fail why = Some (Printf.sprintf "request %d: %s" r.Request.id why) in
    match d with
    | Request.Completed c -> (
        match check r c.Request.output with Ok () -> None | Error e -> fail e)
    | d -> fail (Request.disposition_name d)
  in
  let verdicts = List.map (fun x -> (x, verdict x)) all in
  let missing = expected - List.length all in
  let deviations =
    (if missing = 0 then []
     else [ Printf.sprintf "%d of %d requests finalized" (List.length all) expected ])
    @ List.filter_map snd verdicts
  in
  let window =
    List.filter (fun ((r, _), _) -> in_rounds ~per_round ~first:w.first ~last:w.last r) verdicts
  in
  let bad l = count_if (fun (_, v) -> v <> None) l in
  (deviations, bad verdicts + missing, List.map fst window, bad window)

let echo_check (r : Request.t) out =
  if String.equal out ("echo:" ^ r.Request.payload) then Ok ()
  else Error "echo output differs from its payload"

(* A fleet driven by one open-loop client population per round.
   [(payloads r).(c * per_client + s)] is client c's s-th request of
   round r; [check] judges a completed request's output. *)
let fleet_instance shape workload ~payloads ~check () =
  let fleet =
    Spans.with_span "Fleet.create" (fun () -> Fleet.create ~config:shape.config (timed workload))
  in
  let per_round = shape.clients * shape.per_client in
  let round r =
    let p = payloads r in
    fun () ->
      Spans.with_span "Fleet.submit_open_loop" (fun () ->
          Fleet.submit_open_loop fleet ~clients:shape.clients ~per_client:shape.per_client
            ~mean_gap_ms:shape.mean_gap_ms
            ~payload:(fun ~client ~seq -> p.((client * shape.per_client) + seq))
            ());
      Spans.with_span "Fleet.run" (fun () -> Fleet.run fleet);
      per_round
  in
  let report (w : window) =
    let expected = w.rounds * per_round in
    let deviations, failed, reqs, bad =
      judge_requests ~expected ~per_round w (Fleet.dispositions fleet) check
    in
    {
      attempted = expected;
      failed;
      deviations;
      metrics =
        sim_metrics ~bad reqs
        @ fleet_layer_metrics w reqs
        @ fleet_span_metrics w ~requests:(List.length reqs)
            ~platforms:shape.config.Fleet.platforms;
    }
  in
  { round; counters = fleet_counters fleet; report }

let fleet_echo =
  let make ~seed size =
    (* one client per platform in both sizes, so the load per platform
       is the same *)
    let platforms, shards, per_client =
      match size with Full -> (64, 8, 16) | Smoke -> (8, 2, 40)
    in
    let shape =
      {
        config =
          {
            Fleet.default_config with
            platforms;
            shards;
            domains = 1;
            batch_size = 8;
            queue_depth = 64;
            seed = Printf.sprintf "perf-echo-%d" seed;
          };
        clients = platforms;
        per_client;
        mean_gap_ms = 35.0;
      }
    in
    let payloads r =
      let rng = Prng.create ~seed:(Printf.sprintf "perf-echo-payloads-%d-%d" seed r) in
      Array.init (shape.clients * shape.per_client) (fun _ -> "e-" ^ Util.to_hex (Prng.bytes rng 8))
    in
    (* 64 machines hold 16 MB of simulated RAM each, a 1 GB live heap
       that the runtime's default space overhead (120) lets grow to
       3.4 GB; 40 holds the process under 2 GB at the same round times.
       Workloads with small heaps keep the default: there, 40 multiplies
       major collections and slows rounds as the heap grows. *)
    Gc.set { (Gc.get ()) with space_overhead = 40 };
    fleet_instance shape (Workload.echo ~work_ms:25.0 ()) ~payloads ~check:echo_check
  in
  { name = "fleet-echo-p64"; make }

let ca_policy =
  { CA.allowed_suffixes = [ ".example.com" ]; denied_subjects = []; max_certificates = max_int }

let fleet_ca =
  let make ~seed size =
    let shape =
      {
        config =
          {
            Fleet.default_config with
            platforms = 4;
            shards = 1;
            domains = 1;
            batch_size = 4;
            queue_depth = 64;
            seed = Printf.sprintf "perf-ca-%d" seed;
          };
        clients = 8;
        per_client = (match size with Full -> 8 | Smoke -> 2);
        mean_gap_ms = 600.0;
      }
    in
    let keys =
      Array.init shape.clients (fun c ->
          (Rsa.generate
             (Prng.create ~seed:(Printf.sprintf "perf-ca-client-%d-%d" seed c))
             ~bits:512)
            .Rsa.pub)
    in
    let payloads r =
      Array.init (shape.clients * shape.per_client) (fun i ->
          let c = i / shape.per_client and s = i mod shape.per_client in
          Workload.ca_csr_payload
            ~subject:(Printf.sprintf "c%d-r%d-%d.example.com" c r s)
            ~subject_key:keys.(c))
    in
    let check (r : Request.t) out =
      match (Util.decode_fields r.Request.payload, Workload.decode_ca_output out) with
      | _, Error e -> Error ("certificate does not decode: " ^ e)
      | Ok [ "csr"; subject; key ], Ok (cert, issuer_key) ->
          if not (CA.verify_certificate ~ca_key:issuer_key cert) then
            Error "certificate signature does not verify"
          else if cert.CA.cert_subject <> subject || Rsa.public_to_string cert.CA.cert_key <> key
          then Error "certificate names another subject or key"
          else Ok ()
      | _ -> Error "malformed CSR payload"
    in
    fleet_instance shape (Workload.ca ~key_bits:512 ca_policy) ~payloads ~check
  in
  { name = "fleet-ca-p4"; make }

(* --- serving tier ----------------------------------------------------- *)

let serve_pool = 200
let interactive_clients = 3
let batch_clients = 7
let interactive_deadline_ms = 8000.0

(* request k (counted across all rounds) reads one of the warm payloads
   nine times in ten and a payload never seen before otherwise *)
let serve_payload k =
  if k mod 10 < 9 then Printf.sprintf "hot-%d" (k * 7919 mod serve_pool)
  else Printf.sprintf "cold-%d" k

let serve_counters t fleet () =
  let m = Serve.metrics t in
  let a = Appraise.stats (Serve.appraiser t) in
  let c name = float_of_int (Metrics.counter m name) in
  fleet_counters fleet ()
  @ [
      ("serve.hits", c "serve.cache.hits");
      ("serve.misses", c "serve.cache.misses");
      ("serve.insertions", c "serve.cache.insertions");
      ("serve.evictions", c "serve.cache.evictions");
      ("memo.quote_hits", float_of_int a.Appraise.quote_hits);
      ("memo.quote_misses", float_of_int a.Appraise.quote_misses);
      ("memo.cert_hits", float_of_int a.Appraise.cert_hits);
      ("memo.cert_misses", float_of_int a.Appraise.cert_misses);
      ("memo.bytes_saved", float_of_int a.Appraise.bytes_saved);
    ]

let serve_hit90 =
  let make ~seed size =
    let per_client = match size with Full -> 80 | Smoke -> 16 in
    let clients = interactive_clients + batch_clients in
    let per_round = clients * per_client in
    (* the hot payloads, then fillers up to the cache's capacity: the
       cache starts full, so every miss evicts from the first round on,
       as in the steady state of a long run *)
    let warm =
      List.init serve_pool (Printf.sprintf "hot-%d")
      @ List.init
          (Serve.default_config.Serve.cache_capacity - serve_pool)
          (Printf.sprintf "fill-%d")
    in
    let config =
      {
        Serve.default_config with
        Serve.fleet =
          {
            Fleet.default_config with
            platforms = 2;
            batch_size = 4;
            queue_depth = 64;
            domains = 1;
            seed = Printf.sprintf "perf-serve-%d" seed;
          };
      }
    in
    fun () ->
      let t = Spans.with_span "Serve.create" (fun () -> Serve.create ~config ~warm ()) in
      let fleet = Serve.fleet t in
      (* round -> bundles that failed appraisal or were never made *)
      let appraisal_failures = Hashtbl.create 16 in
      let failures r = Option.value (Hashtbl.find_opt appraisal_failures r) ~default:0 in
      let submit ~first_client ~clients ?tier ?deadline_ms p =
        Spans.with_span "Fleet.submit_open_loop" (fun () ->
            Fleet.submit_open_loop fleet ~clients ~per_client ~mean_gap_ms:180.0 ?tier
              ?deadline_ms
              ~payload:(fun ~client ~seq -> p.(((first_client + client) * per_client) + seq))
              ())
      in
      (* one op: a request served, then appraised by its client *)
      let round r =
        let base = r * per_round in
        let p = Array.init per_round (fun i -> serve_payload (base + i)) in
        fun () ->
          submit ~first_client:0 ~clients:interactive_clients ~tier:Request.Interactive
            ~deadline_ms:interactive_deadline_ms p;
          submit ~first_client:interactive_clients ~clients:batch_clients p;
          Spans.with_span "Fleet.run" (fun () -> Fleet.run fleet);
          let failed = ref 0 in
          for id = base + 1 to base + per_round do
            match Serve.bundle_for t id with
            | None -> incr failed
            | Some b -> (
                match
                  Spans.with_span "Serve.verify_bundle" ~ids:(fun () -> [ id ]) (fun () ->
                      Serve.verify_bundle t b)
                with
                | Ok () -> ()
                | Error _ -> incr failed)
          done;
          Hashtbl.replace appraisal_failures r !failed;
          per_round
      in
      let report (w : window) =
        let expected = w.rounds * per_round in
        let deviations, failed, reqs, bad =
          judge_requests ~expected ~per_round w (Fleet.dispositions fleet) echo_check
        in
        let sum_failures first last =
          List.fold_left (fun acc r -> acc + failures r) 0 (range first last)
        in
        let unappraised = sum_failures 0 (w.rounds - 1) in
        let window_unappraised = sum_failures w.first w.last in
        let d = w.delta in
        let hits = d "serve.hits" and misses = d "serve.misses" in
        let memo_hits = d "memo.quote_hits" +. d "memo.cert_hits" in
        let memo_all = memo_hits +. d "memo.quote_misses" +. d "memo.cert_misses" in
        let verify = named "Serve.verify_bundle" w.spans in
        let serve_spans =
          if w.spans = [] then []
          else
            let rounds_s = total_s (named "round" w.spans) in
            [
              Metric.host "service.run_s" "s" (total_s (named "Fleet.run" w.spans));
              Metric.host "service.submit_s" "s"
                (total_s (named "Fleet.submit_open_loop" w.spans));
              Metric.host ~n:(List.length verify) "serve.verify_us_p50" "us"
                (1000.0 *. Metric.percentile (durs_ms verify) 50.0);
              Metric.host ~n:(List.length verify) "serve.verify_us_p99" "us"
                (1000.0 *. Metric.percentile (durs_ms verify) 99.0);
              Metric.host "serve.verify_busy_s" "s" (total_s verify);
              Metric.host "serve.run_s" "s" (rounds_s -. total_s verify);
            ]
        in
        {
          attempted = expected;
          failed = failed + unappraised;
          deviations =
            (deviations
            @ if unappraised = 0 then []
              else [ Printf.sprintf "%d bundles failed appraisal" unappraised ]);
          metrics =
            sim_metrics ~bad:(bad + window_unappraised) reqs @ fleet_layer_metrics w reqs
            @ [
                Metric.sim "serve.cache_hits" "count" hits;
                Metric.sim "serve.cache_misses" "count" misses;
                Metric.sim "serve.cache_hit_ratio" "ratio" (Metric.ratio hits (hits +. misses));
                Metric.sim "serve.cache_insertions" "count" (d "serve.insertions");
                Metric.sim "serve.cache_evictions" "count" (d "serve.evictions");
                Metric.sim "serve.memo_quote_hits" "count" (d "memo.quote_hits");
                Metric.sim "serve.memo_cert_hits" "count" (d "memo.cert_hits");
                Metric.sim "serve.memo_hit_ratio" "ratio" (Metric.ratio memo_hits memo_all);
                Metric.sim "serve.memo_bytes_saved" "bytes" (d "memo.bytes_saved");
              ]
            @ serve_spans;
        }
      in
      { round; counters = serve_counters t fleet; report }
  in
  { name = "serve-hit90"; make }

(* --- model checker ---------------------------------------------------- *)

(* minimal counterexample lengths, as CI pins them *)
let minimal_cex =
  [
    ("resume-before-cap", 13);
    ("clear-dev-early", 5);
    ("skip-zeroize", 12);
    ("nv-rollback", 8);
    ("launch-unsuspended", 2);
    ("out-of-order-extends", 9);
    ("reseal-without-counter-check", 24);
    ("trust-state-across-reset", 5);
  ]

type check = { label : string; por : bool; result : V.Mc.result }

(* one sweep: every variant under its intended adversary, then the good
   session against all four adversary models with and without the
   partial-order reduction *)
let sweep () =
  let run ~label ~por ~adversary ~sessions variant =
    let result =
      Spans.with_span (if por then "Mc.run" else "Mc.run/no-por") (fun () ->
          V.Mc.run ~adversary ~sessions ~por variant)
    in
    { label; por; result }
  in
  List.map
    (fun v ->
      let adversary, sessions = V.Model.intended_adversary v in
      run ~label:(V.Model.variant_name v) ~por:true ~adversary ~sessions v)
    V.Model.all_variants
  @ List.map
      (fun por ->
        run ~label:"good-all" ~por
          ~adversary:(V.Adversary.of_kinds V.Adversary.all_kinds)
          ~sessions:2 V.Model.Good)
      [ true; false ]

let verdict_error c =
  match (c.result.V.Mc.outcome, List.assoc_opt c.label minimal_cex) with
  | V.Mc.Verified, None when not c.result.V.Mc.stats.V.Mc.truncated -> None
  | V.Mc.Verified, None -> Some (c.label ^ ": search truncated")
  | V.Mc.Violation cex, Some n when List.length cex.V.Mc.steps = n -> None
  | V.Mc.Violation cex, Some n ->
      Some
        (Printf.sprintf "%s: counterexample of %d steps, minimum is %d" c.label
           (List.length cex.V.Mc.steps) n)
  | V.Mc.Violation _, None -> Some (c.label ^ ": violation in a session that must verify")
  | V.Mc.Verified, Some _ -> Some (c.label ^ ": planted bug not caught")

let verify_mc =
  (* a round is one sweep, in both sizes *)
  let make ~seed:_ _ () =
    (* round -> its checks *)
    let results = Hashtbl.create 16 in
    (* one op: one model-checker state expanded *)
    let round r () =
      let checks = sweep () in
      Hashtbl.replace results r checks;
      List.fold_left (fun acc c -> acc + c.result.V.Mc.stats.V.Mc.states) 0 checks
    in
    let report (w : window) =
      let checks first last =
        List.concat_map
          (fun r -> Option.value (Hashtbl.find_opt results r) ~default:[])
          (range first last)
      in
      let all = checks 0 (w.rounds - 1) and window = checks w.first w.last in
      let errors = List.filter_map verdict_error all in
      let per_sweep f =
        float_of_int (List.fold_left (fun acc c -> acc + f c.result.V.Mc.stats) 0 window)
        /. float_of_int (w.last - w.first + 1)
      in
      let states por =
        List.fold_left
          (fun acc c -> if c.por = por then acc + c.result.V.Mc.stats.V.Mc.states else acc)
          0 window
      in
      let runs = named "Mc.run" w.spans and full = named "Mc.run/no-por" w.spans in
      let span_metrics =
        if w.spans = [] then []
        else
          let all_runs = durs_ms (runs @ full) in
          let n = List.length all_runs in
          [
            Metric.host ~n "verify.mc_ms_p50" "ms" (Metric.percentile all_runs 50.0);
            Metric.host ~n "verify.mc_ms_p99" "ms" (Metric.percentile all_runs 99.0);
            Metric.host "verify.states_per_s_por" "1/s"
              (Metric.ratio (float_of_int (states true)) (total_s runs));
            Metric.host "verify.states_per_s_full" "1/s"
              (Metric.ratio (float_of_int (states false)) (total_s full));
          ]
      in
      {
        attempted = List.length all;
        failed = List.length errors;
        deviations = errors;
        metrics =
          [
            Metric.sim "error_rate" "fraction"
              (Metric.ratio
                 (float_of_int (count_if (fun c -> verdict_error c <> None) window))
                 (float_of_int (List.length window)));
            Metric.sim "verify.states" "count" (per_sweep (fun s -> s.V.Mc.states));
            Metric.sim "verify.transitions" "count" (per_sweep (fun s -> s.V.Mc.transitions));
            Metric.sim "verify.ample_states" "count" (per_sweep (fun s -> s.V.Mc.ample));
            Metric.sim "verify.peak_queue" "count"
              (float_of_int
                 (List.fold_left
                   (fun acc c -> max acc c.result.V.Mc.stats.V.Mc.peak_queue)
                   0 window));
          ]
          @ span_metrics;
      }
    in
    { round; counters = (fun () -> []); report }
  in
  { name = "verify-mc"; make }

let all = [ fleet_echo; fleet_ca; serve_hit90; verify_mc ]
let find name = List.find_opt (fun w -> w.name = name) all
