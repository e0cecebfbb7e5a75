(* Domain-safety and sharded-fleet regression tests.

   The first group hammers the host-side state that two domains reach
   at once (an SLB image's measurement memo slot, the SHA scratch
   contexts) and checks the results against single-domain references:
   the slot holds one immutable value that any domain may replace with
   an equal one, and each domain keeps its own scratch context in
   Domain.DLS. It also runs the paper's CA and SSH PALs on two domains
   at once, alone and in a sharded fleet: each PAL is a plain value its
   server or client builds, so no PAL table is shared between domains.

   The second group pins down the sharded fleet's core contract: the
   simulation is a pure function of the config — the domain count only
   chooses execution placement — so dispositions and summaries must be
   exactly equal for 1, 2, and 4 domains, across random workloads,
   policies, shard counts, and fault schedules. Every fleet, one shard
   included, runs the same epoch loop, so the third group checks that a
   one-shard fleet's results do not depend on the epoch width, and that
   its inline crash hooks (accepted only with one shard) run before any
   crash victim re-enters admission. *)

open Flicker_crypto
module Measurement = Flicker_core.Measurement
module Builder = Flicker_slb.Builder
module Fleet = Flicker_service.Fleet
module Workload = Flicker_service.Workload
module Dispatch = Flicker_service.Dispatch
module Request = Flicker_service.Request
module Injector = Flicker_fault.Injector
module Serve = Flicker_serve.Serve
module Metrics = Flicker_obs.Metrics
module Platform = Flicker_core.Platform
module Privacy_ca = Flicker_tpm.Privacy_ca
module CA = Flicker_apps.Cert_authority
module Ssh_auth = Flicker_apps.Ssh_auth

(* --- shared-state hammers ---------------------------------------------- *)

(* join both domains and re-raise the first failure, so an assertion
   tripping inside a spawned domain fails the test instead of vanishing *)
let join_all domains =
  let results = List.map Domain.join domains in
  List.iter (function Ok () -> () | Error e -> raise e) results

let spawn_catching f =
  Domain.spawn (fun () ->
      match f () with () -> Ok () | exception e -> Error e)

(* Two domains share one fresh image's memo slot while each alternates
   between two load addresses, so a lookup may find the other domain's
   address in the slot, or lose its own to it, and publish over it.
   Every answer must equal the unmemoized reference. *)
let test_measurement_slot_two_domains () =
  let pal = Flicker_slb.Pal.define ~name:"multicore-memo-slot" (fun _ -> ()) in
  let image = Builder.build ~flavor:Builder.Optimized pal in
  let bases = [| 0x100000; 0x200000 |] in
  (* unmemoized reference values, computed before any hammering *)
  let reference =
    Array.map
      (fun slb_base ->
        let bytes = Builder.initialize image ~slb_base in
        let measured = Sha1.digest (String.sub bytes 0 image.Builder.measured_length) in
        let window = Sha1.digest bytes in
        let launch =
          Sha1.digest (Sha1.digest (String.make 20 '\000' ^ measured) ^ window)
        in
        (bytes, measured, window, launch))
      bases
  in
  let rounds = 100 in
  let hammer first () =
    for i = 0 to rounds - 1 do
      let k = (first + i) mod 2 in
      let slb_base = bases.(k) in
      let bytes, measured, window, launch = reference.(k) in
      if
        not
          (String.equal (Measurement.initialized image ~slb_base) bytes
          && String.equal (Measurement.of_image image ~slb_base) measured
          && String.equal (Measurement.window_hash image ~slb_base) window
          && String.equal (Measurement.after_launch image ~slb_base) launch)
      then Alcotest.failf "stale or torn memo slot at %#x, round %d" slb_base i
    done
  in
  join_all [ spawn_catching (hammer 0); spawn_catching (hammer 1) ]

(* The hit and miss counters behind [Measurement.cache_stats] are shared
   by every domain: two domains looking up one warm image count every
   hit, none lost to the other domain's increments. *)
let test_measurement_stats_two_domains () =
  let pal = Flicker_slb.Pal.define ~name:"multicore-memo-stats" (fun _ -> ()) in
  let image = Builder.build ~flavor:Builder.Optimized pal in
  let slb_base = 0x200000 in
  ignore (Measurement.of_image image ~slb_base);
  let lookups = 200_000 in
  (* both domains start hammering together *)
  let ready = Atomic.make 0 in
  let hammer () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    for _ = 1 to lookups do
      ignore (Measurement.of_image image ~slb_base)
    done
  in
  let hits0, misses0 = Measurement.cache_stats () in
  join_all [ spawn_catching hammer; spawn_catching hammer ];
  let hits1, misses1 = Measurement.cache_stats () in
  Alcotest.(check int) "every hit counted" (2 * lookups) (hits1 - hits0);
  Alcotest.(check int) "no miss" 0 (misses1 - misses0)

let test_sha_scratch_two_domains () =
  let inputs =
    Array.init 64 (fun i -> String.make ((i * 17 mod 300) + 1) (Char.chr (40 + i)))
  in
  (* sequential single-domain references *)
  let ref1 = Array.map Sha1.digest inputs in
  let ref256 = Array.map Sha256.digest inputs in
  let hammer () =
    for pass = 0 to 49 do
      ignore pass;
      Array.iteri
        (fun i s ->
          if not (String.equal (Sha1.digest s) ref1.(i)) then
            Alcotest.failf "Sha1.digest diverged concurrently on input %d" i;
          if not (String.equal (Sha256.digest s) ref256.(i)) then
            Alcotest.failf "Sha256.digest diverged concurrently on input %d" i)
        inputs
    done
  in
  join_all [ spawn_catching hammer; spawn_catching hammer ]

(* --- PALs on several domains -------------------------------------------- *)

let ca_policy =
  { CA.allowed_suffixes = [ ".example.com" ]; denied_subjects = []; max_certificates = 16 }

(* one domain's share, all built where it runs: a platform, a 512-bit CA
   that signs a batch, and an SSH server and client that complete a
   login; returns the encoded certificates and the login verdict *)
let ca_and_ssh seed =
  let privacy_ca =
    Privacy_ca.create (Prng.create ~seed:(seed ^ "/privacy-ca")) ~name:"MultiCA" ~key_bits:512
  in
  let p = Platform.create ~seed ~key_bits:512 ~ca:privacy_ca () in
  let ca = CA.create p ~key_bits:512 ca_policy in
  (match CA.init_ca ca with Ok _ -> () | Error e -> failwith ("init_ca: " ^ e));
  let keys = Prng.create ~seed:(seed ^ "/csr") in
  let csrs =
    List.init 4 (fun i ->
        {
          CA.subject = Printf.sprintf "%s-%d.example.com" seed i;
          subject_key = (Rsa.generate keys ~bits:256).Rsa.pub;
        })
  in
  let certs = List.map (Result.map CA.encode_certificate) (CA.sign_batch ca csrs) in
  let server = Ssh_auth.create_server p ~key_bits:512 ~users:[ ("alice", "hunter2") ] () in
  let client =
    Ssh_auth.Client.create ~rng:(Prng.create ~seed:(seed ^ "/client"))
      ~ca_key:(Privacy_ca.public_key privacy_ca) ~server_slb_base:p.Platform.slb_base
      ~key_bits:512 ()
  in
  (certs, Ssh_auth.authenticate server client ~user:"alice" ~password:"hunter2")

let test_ca_and_ssh_two_domains () =
  let seeds = [ "mc-pal-a"; "mc-pal-b" ] in
  let sequential = List.map ca_and_ssh seeds in
  let parallel =
    List.map Domain.join (List.map (fun s -> Domain.spawn (fun () -> ca_and_ssh s)) seeds)
  in
  List.iter2
    (fun (certs, login) (certs', login') ->
      Alcotest.(check int) "every CSR signed" 4
        (List.length (List.filter Result.is_ok certs));
      Alcotest.(check (list (result string string))) "certificates" certs certs';
      (match login with
      | Ok (granted, _) -> Alcotest.(check bool) "login granted" true granted
      | Error e -> Alcotest.fail e);
      Alcotest.(check (result (pair bool (float 0.0)) string)) "login" login login')
    sequential parallel

let test_ca_fleet_domains () =
  let keys =
    Array.init 2 (fun c ->
        (Rsa.generate (Prng.create ~seed:(Printf.sprintf "mc-ca-client-%d" c)) ~bits:512)
          .Rsa.pub)
  in
  let run ~domains =
    let config =
      {
        Fleet.default_config with
        platforms = 4;
        shards = 2;
        domains;
        batch_size = 2;
        queue_depth = 16;
        seed = "mc-ca-fleet";
      }
    in
    let fleet = Fleet.create ~config (Workload.ca ~key_bits:512 ca_policy) in
    Fleet.submit_open_loop fleet ~clients:2 ~per_client:4 ~mean_gap_ms:400.0
      ~payload:(fun ~client ~seq ->
        Workload.ca_csr_payload
          ~subject:(Printf.sprintf "c%d-%d.example.com" client seq)
          ~subject_key:keys.(client))
      ();
    Fleet.run fleet;
    (Fleet.dispositions fleet, Fleet.summary fleet)
  in
  let d1, s1 = run ~domains:1 in
  let d2, s2 = run ~domains:2 in
  List.iter
    (fun ((r : Request.t), d) ->
      match d with
      | Request.Completed c -> (
          match Workload.decode_ca_output c.Request.output with
          | Ok (cert, issuer) ->
              Alcotest.(check bool) "certificate verifies" true
                (CA.verify_certificate ~ca_key:issuer cert)
          | Error e -> Alcotest.failf "request %d: %s" r.Request.id e)
      | d -> Alcotest.failf "request %d: %s" r.Request.id (Request.disposition_name d))
    d1;
  Alcotest.(check int) "all eight served" 8 (List.length d1);
  Alcotest.(check bool) "dispositions identical" true (d1 = d2);
  Alcotest.(check bool) "summaries identical" true (s1 = s2)

(* --- sharded fleet ---------------------------------------------------- *)

let strip_outputs dispositions =
  (* (id, disposition kind, completion platform, finalization time) —
     the multiset the determinism property is about *)
  List.map
    (fun ((r : Request.t), d) ->
      let at =
        match d with
        | Request.Completed c -> c.Request.finished_ms
        | Request.Rejected x -> x.at_ms
        | Request.Expired x -> x.at_ms
        | Request.Failed x -> x.at_ms
      in
      let platform =
        match d with Request.Completed c -> c.Request.platform | _ -> -1
      in
      (r.Request.id, Request.disposition_name d, platform, at))
    dispositions

let run_echo_case ~domains ~platforms ~shards ~batch ~policy ~faults
    ~retry_budget ~breaker_failures ~epoch_ms ~clients ~per_client ~work_ms
    ~deadline ~seed =
  let config =
    {
      Fleet.default_config with
      platforms;
      shards;
      domains;
      batch_size = batch;
      queue_depth = 8;
      policy;
      seed;
      faults;
      retry_budget;
      breaker_failures;
      epoch_ms;
    }
  in
  let fleet = Fleet.create ~config (Workload.echo ~work_ms ()) in
  Fleet.submit_open_loop fleet ~clients ~per_client ~mean_gap_ms:20.0
    ?deadline_ms:deadline
    ~payload:(fun ~client ~seq -> Printf.sprintf "mc-%d-%d" client seq)
    ();
  Fleet.run fleet;
  (Fleet.dispositions fleet, Fleet.summary fleet)

let test_rr_parity_across_domains () =
  let run ~domains =
    let config =
      {
        Fleet.default_config with
        platforms = 4;
        shards = 2;
        domains;
        batch_size = 1;
        policy = Dispatch.Round_robin;
        seed = "rr-parity";
      }
    in
    let fleet = Fleet.create ~config (Workload.echo ~work_ms:30.0 ()) in
    for i = 1 to 16 do
      ignore (Fleet.submit fleet (Printf.sprintf "rr-%d" i))
    done;
    Fleet.run fleet;
    let order =
      (* dispatch order: which platform served each request, by id *)
      List.filter_map
        (fun ((r : Request.t), d) ->
          match d with
          | Request.Completed c -> Some (r.Request.id, c.Request.platform)
          | _ -> None)
        (Fleet.dispositions fleet)
    in
    (order, Fleet.summary fleet)
  in
  let order1, s1 = run ~domains:1 in
  let order4, s4 = run ~domains:4 in
  Alcotest.(check (list (pair int int)))
    "round-robin dispatch order identical for 1 and 4 domains" order1 order4;
  Alcotest.(check bool) "summaries identical" true (s1 = s4);
  (* and the shard-local cursors actually rotated within each window *)
  let platforms_hit = List.sort_uniq compare (List.map snd order1) in
  Alcotest.(check (list int)) "every platform served" [ 0; 1; 2; 3 ] platforms_hit

let test_cross_shard_forwarding () =
  let config =
    {
      Fleet.default_config with
      platforms = 2;
      shards = 2;
      domains = 2;
      batch_size = 1;
      queue_depth = 8;
      policy = Dispatch.Least_loaded;
      seed = "forward";
    }
  in
  let fleet = Fleet.create ~config (Workload.echo ~work_ms:10.0 ()) in
  (* shard 0's only platform goes down: its arrivals cannot be placed
     locally and must ride the barrier to shard 1 *)
  Fleet.crash_platform fleet 0;
  Alcotest.(check bool) "platform 0 down" false (Fleet.platform_up fleet 0);
  let ids = List.init 6 (fun i -> Fleet.submit fleet (Printf.sprintf "f-%d" i)) in
  Fleet.run fleet;
  let s = Fleet.summary fleet in
  Alcotest.(check int) "everything completed" 6 s.Fleet.completed;
  Alcotest.(check bool) "requests crossed shards" true (s.Fleet.forwarded > 0);
  List.iter
    (fun id ->
      match Fleet.disposition_of fleet id with
      | Some (Request.Completed c) ->
          Alcotest.(check int) "served by shard 1's platform" 1 c.Request.platform
      | d ->
          Alcotest.failf "request %d: expected completion, got %s" id
            (match d with
            | Some disp -> Request.disposition_name disp
            | None -> "nothing"))
    ids

(* --- one-shard fleet: inline hooks, epoch width invisible ------------- *)

let raises_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_hooks_need_one_shard () =
  let config =
    { Fleet.default_config with platforms = 2; shards = 2; seed = "two-shard" }
  in
  let fleet = Fleet.create ~config (Workload.echo ()) in
  raises_invalid "add_crash_hook" (fun () -> Fleet.add_crash_hook fleet ignore);
  raises_invalid "set_interceptor" (fun () ->
      Fleet.set_interceptor fleet (fun _ -> None));
  raises_invalid "Serve.create" (fun () ->
      Serve.create
        ~config:{ Serve.default_config with Serve.fleet = config }
        ())

(* the crash-heavy shape both one-shard tests share: 3 platforms
   serving one request per session at half the default fault rates,
   two retries per request *)
let crashy_config ~seed ~epoch_ms =
  {
    Fleet.default_config with
    platforms = 3;
    queue_depth = 16;
    batch_size = 1;
    seed;
    faults = Some (Injector.scaled 0.5);
    retry_budget = 2;
    epoch_ms;
  }

let epoch_widths = [ 1.0; 250.0; 1e9 ]

type admission_event = Crash of int | Readmit of int * int

let test_hooks_run_before_readmission () =
  let run epoch_ms =
    let fleet =
      Fleet.create
        ~config:(crashy_config ~seed:"hook-order" ~epoch_ms)
        (Workload.echo ~work_ms:40.0 ())
    in
    let log = ref [] and hooks_run = ref 0 in
    Fleet.add_crash_hook fleet (fun g ->
        incr hooks_run;
        log := Crash g :: !log);
    Fleet.set_interceptor fleet (fun req ->
        if req.Request.attempts > 0 then begin
          (* a re-admission: every crash so far has had its hook *)
          let crashes = Metrics.counter (Fleet.metrics fleet) "fleet.crashes" in
          if crashes <> !hooks_run then
            Alcotest.failf "request %d re-admitted with %d crashes but %d hooks run"
              req.Request.id crashes !hooks_run;
          log := Readmit (req.Request.id, req.Request.attempts) :: !log
        end;
        None);
    Fleet.submit_open_loop fleet ~clients:4 ~per_client:10 ~mean_gap_ms:20.0
      ~payload:(fun ~client ~seq -> Printf.sprintf "order-%d-%d" client seq)
      ();
    Fleet.run fleet;
    (List.rev !log, Fleet.dispositions fleet, Fleet.summary fleet)
  in
  let runs = List.map run epoch_widths in
  let log, d, s = List.hd runs in
  Alcotest.(check bool) "crashes happened" true (s.Fleet.crashes > 0);
  Alcotest.(check bool) "victims were re-admitted" true (s.Fleet.redispatched > 0);
  Alcotest.(check int) "one hook per crash" s.Fleet.crashes
    (List.length (List.filter (function Crash _ -> true | _ -> false) log));
  List.iter
    (fun (log', d', s') ->
      Alcotest.(check bool) "same crash/re-admission order" true (log = log');
      Alcotest.(check bool) "same dispositions" true (d = d');
      Alcotest.(check bool) "same summary" true (s = s'))
    (List.tl runs)

let test_serve_epoch_width_invisible () =
  let run epoch_ms =
    let config =
      {
        Serve.default_config with
        Serve.fleet = crashy_config ~seed:"serve-epochs" ~epoch_ms;
      }
    in
    let t = Serve.create ~config () in
    let fleet = Serve.fleet t in
    (* runs after the tier's own hook: (platform, crash time) in order *)
    let crashes = ref [] in
    Fleet.add_crash_hook fleet (fun g ->
        crashes := (g, Fleet.now_ms fleet) :: !crashes);
    (* half the load repeats one of five payloads, half is unique *)
    Fleet.submit_open_loop fleet ~clients:4 ~per_client:10 ~mean_gap_ms:20.0
      ~payload:(fun ~client ~seq ->
        let k = (client * 10) + seq in
        if k mod 2 = 0 then Printf.sprintf "hot-%d" (k / 2 mod 5)
        else Printf.sprintf "cold-%d" k)
      ();
    Fleet.run fleet;
    (* the tier's hook runs at the crash, so no hit served later in
       virtual time can carry a bundle quoted before that crash: a
       bundle from [boots] reboots ago is dead from its platform's next
       crash on *)
    let crash_times g =
      List.rev !crashes |> List.filter (fun (p, _) -> p = g) |> List.map snd
    in
    List.iter
      (fun ((r : Request.t), d) ->
        match (d, Serve.bundle_for t r.Request.id) with
        | Request.Completed c, Some b when c.Request.batch = 0 -> (
            match List.nth_opt (crash_times b.Serve.platform) b.Serve.boots with
            | Some at when c.Request.dispatched_ms > at ->
                Alcotest.failf "request %d hit a bundle its platform lost at %.1f ms"
                  r.Request.id at
            | _ -> ())
        | _ -> ())
      (Fleet.dispositions fleet);
    let hits = Serve.appraise_hits t in
    ( Fleet.dispositions fleet,
      Fleet.summary fleet,
      hits,
      Metrics.counters (Serve.metrics t) )
  in
  let runs = List.map run epoch_widths in
  let d, s, hits, m = List.hd runs in
  Alcotest.(check bool) "crashes happened" true (s.Fleet.crashes > 0);
  Alcotest.(check bool) "victims re-dispatched" true (s.Fleet.redispatched > 0);
  Alcotest.(check bool) "cache hits served" true (s.Fleet.cache_served > 0);
  Alcotest.(check int) "every hit appraised" s.Fleet.cache_served
    (hits.Serve.ok + hits.Serve.stale + hits.Serve.bad);
  Alcotest.(check int) "no hit is bad" 0 hits.Serve.bad;
  List.iter
    (fun (d', s', hits', m') ->
      Alcotest.(check bool) "same dispositions" true (d = d');
      Alcotest.(check bool) "same summary" true (s = s');
      Alcotest.(check bool) "same hit appraisal" true (hits = hits');
      Alcotest.(check bool) "same serve metrics" true (m = m'))
    (List.tl runs)

(* every case runs at 1, 2 and 4 shards, each on 1, 2 and 4 domains *)
let prop_domain_count_invisible =
  QCheck.Test.make ~name:"random workload x seed x {1,2,4} domains agree"
    ~count:2
    QCheck.(int_bound 100_000)
    (fun n ->
      let rng = Prng.create ~seed:(Printf.sprintf "mc-prop-%d" n) in
      let platforms = 4 + Prng.int_below rng 2 in
      let batch = 1 + Prng.int_below rng 3 in
      let policy =
        match Prng.int_below rng 3 with
        | 0 -> Dispatch.Round_robin
        | 1 -> Dispatch.Least_loaded
        | _ -> Dispatch.Sealed_affinity
      in
      let faulty = Prng.int_below rng 2 = 1 in
      let faults = if faulty then Some (Injector.scaled 0.25) else None in
      let retry_budget = if faulty then 2 else 0 in
      let breaker_failures = if faulty then 2 else 0 in
      let epoch_ms = if Prng.int_below rng 2 = 0 then 50.0 else 250.0 in
      let clients = 1 + Prng.int_below rng 3 in
      let per_client = 1 + Prng.int_below rng 4 in
      let work_ms = 10.0 +. float_of_int (Prng.int_below rng 90) in
      let deadline =
        if Prng.int_below rng 3 = 0 then Some 500.0 else None
      in
      let seed = Printf.sprintf "mc-case-%d" n in
      List.iter
        (fun shards ->
          let case domains =
            run_echo_case ~domains ~platforms ~shards ~batch ~policy ~faults
              ~retry_budget ~breaker_failures ~epoch_ms ~clients ~per_client
              ~work_ms ~deadline ~seed
          in
          let d1, s1 = case 1 in
          List.iter
            (fun domains ->
              let d, s = case domains in
              if strip_outputs d <> strip_outputs d1 then
                QCheck.Test.fail_reportf
                  "finalized multisets differ at %d shards, %d domains" shards
                  domains;
              if d <> d1 then
                QCheck.Test.fail_reportf
                  "full dispositions differ at %d shards, %d domains" shards
                  domains;
              if s <> s1 then
                QCheck.Test.fail_reportf
                  "summaries differ at %d shards, %d domains" shards domains)
            [ 2; 4 ])
        [ 1; 2; 4 ];
      true)

let () =
  Alcotest.run "multicore"
    [
      ( "domain safety",
        [
          Alcotest.test_case "measurement slot: 2-base hammer" `Quick
            test_measurement_slot_two_domains;
          Alcotest.test_case "sha scratch: 2-domain hammer" `Quick
            test_sha_scratch_two_domains;
          Alcotest.test_case "measurement stats: 2-domain hammer" `Quick
            test_measurement_stats_two_domains;
          Alcotest.test_case "CA + SSH: 2 domains = sequential" `Quick
            test_ca_and_ssh_two_domains;
          Alcotest.test_case "CA fleet: 1 vs 2 domains agree" `Quick test_ca_fleet_domains;
        ] );
      ( "sharded fleet",
        [
          Alcotest.test_case "round-robin parity: 1 vs 4 domains" `Quick
            test_rr_parity_across_domains;
          Alcotest.test_case "cross-shard forwarding completes" `Quick
            test_cross_shard_forwarding;
          QCheck_alcotest.to_alcotest prop_domain_count_invisible;
        ] );
      ( "single shard",
        [
          Alcotest.test_case "hooks and interceptors need one shard" `Quick
            test_hooks_need_one_shard;
          Alcotest.test_case "crash hooks run before re-admission" `Quick
            test_hooks_run_before_readmission;
          Alcotest.test_case "serve tier: epoch width invisible" `Quick
            test_serve_epoch_width_invisible;
        ] );
    ]
