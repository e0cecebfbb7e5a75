(* Bechamel microbenchmarks: the real wall-clock cost of the simulator
   itself (not the simulated latencies). One Test.make per paper table or
   figure, exercising the code path that regenerates it, plus the hot
   crypto primitives underneath. *)

open Bechamel
open Toolkit
open Flicker_core
module Prng = Flicker_crypto.Prng
module Sha1 = Flicker_crypto.Sha1
module Sha256 = Flicker_crypto.Sha256
module Rsa = Flicker_crypto.Rsa
module Pkcs1 = Flicker_crypto.Pkcs1
module Hash = Flicker_crypto.Hash
module Aes = Flicker_crypto.Aes
module Util = Flicker_crypto.Util
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Machine = Flicker_hw.Machine
module Memory = Flicker_hw.Memory
module Skinit = Flicker_hw.Skinit
module Apic = Flicker_hw.Apic
module Tpm = Flicker_tpm.Tpm
module Scheduler = Flicker_os.Scheduler
module Tcb = Flicker_slb.Tcb
module Distcomp = Flicker_apps.Distcomp
module Ssh_auth = Flicker_apps.Ssh_auth
module CA = Flicker_apps.Cert_authority
module Fleet = Flicker_service.Fleet
module Serve = Flicker_serve.Serve
module Appraise = Flicker_serve.Appraise
module V = Flicker_verify

(* staged state, built once *)
let platform = lazy (Platform.create ~seed:"micro" ~key_bits:512 ())

let hello_pal = Pal.define ~name:"micro-hello" (fun env -> Pal_env.set_output env "hi")

let skinit_machine =
  lazy
    (let m = Machine.create ~memory_size:(1024 * 1024) Flicker_hw.Timing.default in
     let tpm = Tpm.create m (Prng.create ~seed:"micro-skinit") ~key_bits:512 in
     Machine.set_tpm_hooks m (Tpm.skinit_hooks tpm);
     Memory.write_u16_le m.Machine.memory 0x10000 65532;
     Memory.write_u16_le m.Machine.memory 0x10002 4;
     m)

let ssh_login = lazy begin
  let p = Lazy.force platform in
  let server = Ssh_auth.create_server p ~key_bits:512 ~users:[ ("u", "p") ] () in
  let nonce = Platform.fresh_nonce p in
  let setup =
    match Ssh_auth.server_setup server ~nonce with Ok s -> s | Error e -> failwith e
  in
  let rng = Prng.create ~seed:"micro-ssh-client" in
  let login_nonce = Platform.fresh_nonce p in
  (* the bench does not verify the setup attestation: it encrypts to the
     channel key the setup read from the PAL's output *)
  let ct =
    Flicker_crypto.Pkcs1.encrypt rng setup.Secure_channel.public_key
      (Flicker_crypto.Util.encode_fields [ "p"; login_nonce ])
  in
  (server, ct, login_nonce)
  end

let ca_server = lazy begin
  let p = Lazy.force platform in
  let ca =
    CA.create p ~key_bits:512
      { CA.allowed_suffixes = [ ".x" ]; denied_subjects = []; max_certificates = max_int }
  in
  (match CA.init_ca ca with Ok _ -> () | Error e -> failwith e);
  let csr =
    { CA.subject = "a.x"; subject_key = (Rsa.generate (Prng.create ~seed:"mc") ~bits:256).Rsa.pub }
  in
  (ca, csr)
  end

let distcomp_client = lazy (Distcomp.create_client (Lazy.force platform))

(* A one-platform serving tier warmed with two payloads, which share one
   chunk and its quote, and the two cache-hit bundles. *)
let serve_chunk () =
  let config =
    {
      Serve.default_config with
      Serve.fleet = { Fleet.default_config with Fleet.platforms = 1; seed = "micro-serve" };
    }
  in
  let t = Serve.create ~config ~warm:[ "alpha"; "beta" ] () in
  let fleet = Serve.fleet t in
  let ids = List.map (Fleet.submit fleet) [ "alpha"; "beta" ] in
  Fleet.run fleet;
  match List.map (Serve.bundle_for t) ids with
  | [ Some b; Some sibling ] -> (t, b, sibling)
  | _ -> failwith "micro: a warm payload was not served"

let appraise t b =
  match Serve.verify_bundle t b with
  | Ok () -> ()
  | Error f -> failwith (Serve.verify_failure_to_string f)

let warm_bundle = lazy (serve_chunk ())

(* The largest reduced model-checker run: the good session against all
   four adversary models over two sessions. *)
let mc_good_all () =
  V.Mc.run ~adversary:(V.Adversary.of_kinds V.Adversary.all_kinds) ~sessions:2 V.Model.Good

(* e = 65537, so verify takes the short-exponent path *)
let rsa_signed =
  lazy
    (let key = Rsa.generate (Prng.create ~seed:"micro-rsa") ~bits:512 in
     (key, Pkcs1.sign key Hash.SHA1 "micro"))

(* A 512-byte message under an AES-128 key, and its CBC ciphertext
   (528 bytes with the padding block). *)
let aes_cbc =
  lazy
    (let key = Aes.expand_key (String.make 16 'k') and iv = String.make 16 'i' in
     let plaintext = String.make 512 'p' in
     (key, iv, plaintext, Aes.encrypt_cbc key ~iv plaintext))

(* The state the CA PAL seals every session: its 512-bit private key,
   issuer and issue count, laid out as Cert_authority lays them out
   (about 350 bytes). *)
let ca_state =
  lazy
    (let key, _ = Lazy.force rsa_signed in
     Util.encode_fields [ Rsa.private_to_string key; "micro CA"; Util.be32_of_int 1 ])

let tests =
  [
    Test.make ~name:"table1:rootkit-style session (64KB hash PAL)"
      (Staged.stage (fun () ->
           let p = Lazy.force platform in
           match Session.call p ~pal:hello_pal () with
           | Ok _ -> ()
           | Error e -> failwith e));
    Test.make ~name:"table2:skinit instruction"
      (* two SLB contents in turn, written byte by byte: the window is
         never one slice of a string, so every launch is measured *)
      (let flip = ref 0 in
       Staged.stage (fun () ->
           let m = Lazy.force skinit_machine in
           flip := 1 - !flip;
           Memory.write_byte m.Machine.memory 0x10004 !flip;
           Apic.deschedule_aps m;
           Apic.send_init_ipi m;
           let launch = Skinit.execute m ~slb_base:0x10000 in
           Skinit.teardown_dev m launch;
           Apic.release_aps m));
    Test.make ~name:"table3:scheduler 1s slice"
      (Staged.stage (fun () ->
           let p = Lazy.force platform in
           ignore (Scheduler.spawn p.Platform.scheduler ~name:"slice" ~work_ms:10.0);
           Scheduler.run_for p.Platform.scheduler 1000.0));
    Test.make ~name:"table4:distcomp start session"
      (Staged.stage (fun () ->
           let client = Lazy.force distcomp_client in
           let unit_ = { Distcomp.unit_id = 1; number = 1234577; lo = 2; hi = 100000 } in
           match Distcomp.start client unit_ ~slice_ms:1.0 with
           | Ok _ -> ()
           | Error e -> failwith e));
    Test.make ~name:"figure8:efficiency sweep"
      (Staged.stage (fun () ->
           for s = 1 to 10 do
             ignore
               (Distcomp.efficiency Flicker_hw.Timing.default
                  ~work_ms:(float_of_int s *. 1000.0))
           done));
    Test.make ~name:"figure9:ssh login session"
      (Staged.stage (fun () ->
           let server, ct, nonce = Lazy.force ssh_login in
           match Ssh_auth.server_login server ~user:"u" ~ciphertext:ct ~nonce with
           | Ok _ -> ()
           | Error e -> failwith e));
    Test.make ~name:"figure6:tcb accounting"
      (Staged.stage (fun () -> ignore (Tcb.totals (Tcb.figure6 ()))));
    Test.make ~name:"ca:certificate signing session"
      (Staged.stage (fun () ->
           let ca, csr = Lazy.force ca_server in
           match CA.sign_csr ca csr with Ok _ -> () | Error e -> failwith e));
    Test.make ~name:"serve:appraise warm bundle"
      (Staged.stage (fun () ->
           let t, b, _ = Lazy.force warm_bundle in
           appraise t b));
    Test.make ~name:"verify:mc good-all" (Staged.stage (fun () -> ignore (mc_good_all ())));
    Test.make ~name:"crypto:sha1 64KB"
      (let buf = String.make (64 * 1024) 'x' in
       Staged.stage (fun () -> ignore (Sha1.digest buf)));
    Test.make ~name:"crypto:sha1 40B (one PCR extend)"
      (let buf = String.make 40 'x' in
       Staged.stage (fun () -> ignore (Sha1.digest buf)));
    Test.make ~name:"crypto:sha256 64B"
      (let buf = String.make 64 'x' in
       Staged.stage (fun () -> ignore (Sha256.digest buf)));
    Test.make ~name:"crypto:rsa-512 keygen"
      (let rng = Prng.create ~seed:"micro-keygen" in
       Staged.stage (fun () -> ignore (Rsa.generate rng ~bits:512)));
    Test.make ~name:"crypto:rsa-512 sign"
      (Staged.stage (fun () ->
           let key, _ = Lazy.force rsa_signed in
           ignore (Pkcs1.sign key Hash.SHA1 "micro")));
    Test.make ~name:"crypto:rsa-512 verify"
      (Staged.stage (fun () ->
           let key, signature = Lazy.force rsa_signed in
           if not (Pkcs1.verify key.Rsa.pub Hash.SHA1 ~msg:"micro" ~signature) then
             failwith "signature rejected"));
    Test.make ~name:"crypto:aes-128-cbc 512B encrypt"
      (Staged.stage (fun () ->
           let key, iv, plaintext, _ = Lazy.force aes_cbc in
           ignore (Aes.encrypt_cbc key ~iv plaintext)));
    Test.make ~name:"crypto:aes-128-cbc 512B decrypt"
      (Staged.stage (fun () ->
           let key, iv, _, ciphertext = Lazy.force aes_cbc in
           ignore (Aes.decrypt_cbc key ~iv ciphertext)));
    Test.make ~name:"tpm:seal+unseal"
      (let p = Lazy.force platform in
       let rng = Prng.create ~seed:"micro-seal" in
       Staged.stage (fun () ->
           let blob =
             Result.get_ok
               (Flicker_slb.Mod_tpm_utils.seal p.Platform.tpm ~rng ~release:[]
                  (Lazy.force ca_state))
           in
           ignore (Flicker_slb.Mod_tpm_utils.unseal p.Platform.tpm ~rng blob)));
    Test.make ~name:"tpm:quote"
      (let p = Lazy.force platform in
       Staged.stage (fun () ->
           ignore (Tpm.quote p.Platform.tpm ~nonce:(String.make 20 'n') ~selection:[ 17 ])));
    (* the per-event cost of the trace ring, in its steady state (full,
       evicting): one PCR extend with its value and one phase span *)
    Test.make ~name:"trace:record (pcr.extend + phase span)"
      (let m = Machine.create ~memory_size:(1024 * 1024) Flicker_hw.Timing.default in
       let tracer = m.Machine.tracer in
       let value = String.make 20 '\x5a' in
       let extend = V.Event.Pcr_extend { index = 17; kind = V.Event.Cap } in
       Staged.stage (fun () ->
           Machine.protocol_event m ~value extend;
           let span = Flicker_obs.Tracer.begin_span tracer ~cat:"session.phase" "Extend PCR" in
           Flicker_obs.Tracer.end_span tracer span));
  ]

(* Host SHA-1 bytes per Optimized session — the measurement-memoization
   number. "cold" defines a fresh PAL for every session, so each session
   fills a fresh image's memo slot (the window patched and hashed again,
   as before memoization); "warm" relaunches one PAL, the shipping
   configuration. Both run on one platform, whose TPM hashes the
   measured stub on the first launch only and reuses that digest for
   every launch after. Simulated TPM costs are charged identically
   either way; only the simulator's own hashing changes. The byte counts
   and the warm run's memo lookups are recorded as the "micro" artifact's
   row. Then the allocation meter: major-heap words (promoted words
   included) per warm Optimized session, each read after a minor
   collection so it counts every word the sessions allocated. *)
let measurement_cache_report () =
  let p = Platform.create ~seed:"micro-memo" ~key_bits:512 () in
  let define name = Pal.define ~name (fun env -> Pal_env.set_output env "hi") in
  let session pal =
    match Session.call p ~pal () with Ok _ -> () | Error e -> failwith e
  in
  let n = 20 in
  let bytes_per_session pals =
    let start = Sha1.bytes_hashed () in
    List.iter session pals;
    (Sha1.bytes_hashed () - start) / List.length pals
  in
  let cold =
    bytes_per_session (List.init n (fun i -> define (Printf.sprintf "micro-memo-cold-%d" i)))
  in
  let pal = define "micro-memo" in
  let hits0, misses0 = Measurement.cache_stats () in
  session pal (* fill the memo slot once, uncounted *);
  let warm = bytes_per_session (List.init n (fun _ -> pal)) in
  let hits, misses =
    let hits1, misses1 = Measurement.cache_stats () in
    (hits1 - hits0, misses1 - misses0)
  in
  let major_words =
    let n = 200 in
    let major () =
      Gc.minor ();
      let _, _, major = Gc.counters () in
      major
    in
    let before = major () in
    for _ = 1 to n do
      session pal
    done;
    (major () -. before) /. float_of_int n
  in
  print_endline "\n=== measurement cache (host SHA-1 bytes per Optimized session) ===";
  Printf.printf "cold (fresh PAL each session):     %7d bytes/session\n" cold;
  Printf.printf "warm (shipping configuration):     %7d bytes/session  (%.1fx fewer)\n"
    warm
    (float_of_int cold /. float_of_int (max 1 warm));
  Printf.printf "cache stats over the warm run: %d hits, %d misses\n" hits misses;
  Paper.emit ~artifact:"micro" ~label:"measurement cache"
    [
      ("cold_sha1_bytes_per_session", Paper.J.Int cold);
      ("warm_sha1_bytes_per_session", Paper.J.Int warm);
      ("cache_hits", Paper.J.Int hits);
      ("cache_misses", Paper.J.Int misses);
    ];
  Printf.printf "major-heap words per Optimized session: %.0f\n" major_words

(* Host SHA-1 bytes of appraising a bundle a second time, and of
   appraising its sibling from the same chunk after it: every stage
   answers from the appraiser's memos, so both are 0 and the PCR-17
   memo misses once, on the first appraisal. Recorded as the "micro"
   artifact's "appraisal" row. *)
let appraisal_report () =
  let t, b, sibling = serve_chunk () in
  let hashed b =
    let start = Sha1.bytes_hashed () in
    appraise t b;
    Sha1.bytes_hashed () - start
  in
  let first = hashed b in
  let warm = hashed b in
  let sibling = hashed sibling in
  let s = Appraise.stats (Serve.appraiser t) in
  print_endline "\n=== appraisal memo (host SHA-1 bytes per bundle appraisal) ===";
  Printf.printf "first appraisal:            %7d bytes\n" first;
  Printf.printf "same bundle again:          %7d bytes\n" warm;
  Printf.printf "sibling from the same chunk: %6d bytes\n" sibling;
  Printf.printf "PCR-17 memo: %d hits, %d misses\n" s.Appraise.pcr_hits s.Appraise.pcr_misses;
  Paper.emit ~artifact:"micro" ~label:"appraisal"
    [
      ("warm_sha1_bytes", Paper.J.Int warm);
      ("sibling_sha1_bytes", Paper.J.Int sibling);
      ("pcr_memo_hits", Paper.J.Int s.Appraise.pcr_hits);
      ("pcr_memo_misses", Paper.J.Int s.Appraise.pcr_misses);
    ]

(* States and transitions of [mc_good_all], and the minor-heap words it
   allocates per expanded state after a warm-up run. Recorded as the
   "micro" artifact's "model checker" row. *)
let model_checker_report () =
  ignore (mc_good_all ());
  let before = Gc.minor_words () in
  let s = (mc_good_all ()).V.Mc.stats in
  let per_state = (Gc.minor_words () -. before) /. float_of_int s.V.Mc.states in
  print_endline "\n=== model checker (good session, all four adversaries, two sessions, POR) ===";
  Printf.printf "%d states, %d transitions, %.0f minor words per expanded state\n"
    s.V.Mc.states s.V.Mc.transitions per_state;
  Paper.emit ~artifact:"micro" ~label:"model checker"
    [
      ("states", Paper.J.Int s.V.Mc.states);
      ("transitions", Paper.J.Int s.V.Mc.transitions);
      ("minor_words_per_state", Paper.J.Int (Float.to_int (Float.round per_state)));
    ]

let run () =
  print_endline "\n=== Bechamel microbenchmarks (real wall-clock of the simulator) ===";
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~stabilize:false () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      List.iter
        (fun tst ->
          let raw = Benchmark.run cfg [ instance ] tst in
          let result = Analyze.one ols instance raw in
          let estimate =
            match Analyze.OLS.estimates result with
            | Some [ v ] -> v
            | Some (v :: _) -> v
            | _ -> nan
          in
          Printf.printf "%-46s %12.1f us/run\n" (Test.Elt.name tst) (estimate /. 1000.0))
        (Test.elements test))
    tests;
  measurement_cache_report ();
  appraisal_report ();
  model_checker_report ()
