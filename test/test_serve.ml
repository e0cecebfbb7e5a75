(* Tests for the attested serving tier (flicker_serve): the
   deterministic LRU+TTL cache, the memoizing appraiser and its
   transparency (every verdict equals a fresh Verifier's), positional
   batch membership, cache-hit bundles that still verify, invalidation
   on reboot and NV advance, sealed-affinity homing on the miss path,
   and two-tier admission. *)

module Cache = Flicker_serve.Cache
module Appraise = Flicker_serve.Appraise
module Serve = Flicker_serve.Serve
module Fleet = Flicker_service.Fleet
module Request = Flicker_service.Request
module Metrics = Flicker_obs.Metrics
module Prng = Flicker_crypto.Prng
module Sha1 = Flicker_crypto.Sha1
module Platform = Flicker_core.Platform
module Session = Flicker_core.Session
module Attestation = Flicker_core.Attestation
module Verifier = Flicker_core.Verifier
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Tpm = Flicker_tpm.Tpm
module Tpm_types = Flicker_tpm.Tpm_types
module Privacy_ca = Flicker_tpm.Privacy_ca
module Workload = Flicker_service.Workload

(* --- cache ----------------------------------------------------------- *)

let test_cache_ttl () =
  let c = Cache.create ~capacity:8 ~ttl_ms:100.0 () in
  Cache.insert c ~now_ms:1000.0 "k" 42;
  Alcotest.(check (option int)) "fresh hit" (Some 42)
    (Cache.find c ~now_ms:1050.0 "k");
  (* the boundary instant is still a hit (matches the fleet's deadline
     convention) *)
  Alcotest.(check (option int)) "boundary hit" (Some 42)
    (Cache.find c ~now_ms:1100.0 "k");
  Alcotest.(check (option int)) "expired" None
    (Cache.find c ~now_ms:1100.5 "k");
  let s = Cache.stats c in
  Alcotest.(check int) "expirations" 1 s.Cache.expirations;
  Alcotest.(check int) "hits" 2 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "gone" 0 (Cache.length c)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 () in
  Cache.insert c ~now_ms:0.0 "a" 1;
  Cache.insert c ~now_ms:1.0 "b" 2;
  (* touch "a" so "b" is the LRU victim *)
  ignore (Cache.find c ~now_ms:2.0 "a");
  Cache.insert c ~now_ms:3.0 "c" 3;
  Alcotest.(check (option int)) "a survives" (Some 1)
    (Cache.find c ~now_ms:4.0 "a");
  Alcotest.(check (option int)) "b evicted" None (Cache.find c ~now_ms:4.0 "b");
  Alcotest.(check (option int)) "c present" (Some 3)
    (Cache.find c ~now_ms:4.0 "c");
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.evictions

(* the same seeded operation sequence must leave two caches in exactly
   the same state: eviction choice depends only on recency, never on
   hash-table iteration luck *)
let test_cache_lru_deterministic () =
  let run () =
    let rng = Prng.create ~seed:"serve-lru" in
    let c = Cache.create ~capacity:16 () in
    let survivors = ref [] in
    for step = 0 to 499 do
      let k = Printf.sprintf "key-%d" (Prng.int_below rng 64) in
      if Prng.int_below rng 3 = 0 then ignore (Cache.find c ~now_ms:(float_of_int step) k)
      else Cache.insert c ~now_ms:(float_of_int step) k step
    done;
    for i = 0 to 63 do
      let k = Printf.sprintf "key-%d" i in
      if Cache.find c ~now_ms:1000.0 k <> None then survivors := k :: !survivors
    done;
    (!survivors, (Cache.stats c).Cache.evictions)
  in
  let a, ea = run () in
  let b, eb = run () in
  Alcotest.(check (list string)) "same survivors" a b;
  Alcotest.(check int) "same eviction count" ea eb;
  Alcotest.(check bool) "evictions happened" true (ea > 0)

let test_cache_remove_if () =
  let c = Cache.create () in
  List.iter (fun (k, v) -> Cache.insert c ~now_ms:0.0 k v)
    [ ("p0/a", 0); ("p0/b", 0); ("p1/a", 1) ];
  let dropped = Cache.remove_if c (fun _ v -> v = 0) in
  Alcotest.(check int) "swept" 2 dropped;
  Alcotest.(check int) "left" 1 (Cache.length c);
  Alcotest.(check int) "counted" 2 (Cache.stats c).Cache.invalidations

(* --- serve helpers --------------------------------------------------- *)

let quick_config ?(ttl = None) ?(capacity = 64) () =
  {
    Serve.fleet = { Fleet.default_config with Fleet.seed = "test-serve" };
    cache_ttl_ms = ttl;
    cache_capacity = capacity;
  }

let completion fleet id =
  match Fleet.disposition_of fleet id with
  | Some (Request.Completed c) -> c
  | Some d ->
      Alcotest.failf "request %d not completed: %a" id Request.pp_disposition d
  | None -> Alcotest.failf "request %d never finalized" id

(* a one-platform tier warmed with [payloads], which therefore share one
   chunk and its quote, and each payload's cache-hit bundle *)
let warm_chunk payloads =
  let config = quick_config () in
  let config =
    { config with Serve.fleet = { config.Serve.fleet with Fleet.platforms = 1 } }
  in
  let t = Serve.create ~config ~warm:payloads () in
  let fleet = Serve.fleet t in
  let ids = List.map (Fleet.submit fleet) payloads in
  Fleet.run fleet;
  (t, List.map (fun id -> Option.get (Serve.bundle_for t id)) ids)

let verdict =
  Alcotest.testable
    (fun ppf -> function
      | Ok () -> Format.pp_print_string ppf "Ok"
      | Error f -> Format.pp_print_string ppf (Serve.verify_failure_to_string f))
    ( = )

let copy s = Bytes.to_string (Bytes.of_string s)

(* --- serve: hit path and verification -------------------------------- *)

let test_hit_returns_verifiable_bundle () =
  let t = Serve.create ~config:(quick_config ()) ~warm:[ "alpha"; "beta" ] () in
  let fleet = Serve.fleet t in
  Alcotest.(check bool) "warm entry cached" true (Serve.cached t "alpha");
  let hit = Fleet.submit fleet "alpha" in
  let miss = Fleet.submit fleet "gamma" in
  Fleet.run fleet;
  let ch = completion fleet hit in
  Alcotest.(check int) "hit served by the front end" (-1) ch.Request.platform;
  Alcotest.(check int) "hit ran no session" 0 ch.Request.batch;
  Alcotest.(check string) "hit output" "echo:alpha" ch.Request.output;
  let cm = completion fleet miss in
  Alcotest.(check bool) "miss ran a session" true (cm.Request.batch >= 1);
  (* both the cached bundle and the fresh one must pass full appraisal *)
  List.iter
    (fun id ->
      match Serve.bundle_for t id with
      | None -> Alcotest.failf "no bundle for %d" id
      | Some b -> (
          match Serve.verify_bundle t b with
          | Ok () -> ()
          | Error f ->
              Alcotest.failf "bundle %d failed verification: %s" id
                (Serve.verify_failure_to_string f)))
    [ hit; miss ];
  let m = Serve.metrics t in
  Alcotest.(check bool) "hits counted" true (Metrics.counter m "serve.cache.hits" >= 1);
  Alcotest.(check bool) "misses counted" true
    (Metrics.counter m "serve.cache.misses" >= 1);
  let s = Fleet.summary fleet in
  Alcotest.(check int) "summary cache_served" 1 s.Fleet.cache_served

(* appraising the same bundle twice must memoize the host crypto *)
let test_appraisal_memoized () =
  let t = Serve.create ~config:(quick_config ()) ~warm:[ "alpha" ] () in
  let fleet = Serve.fleet t in
  let id = Fleet.submit fleet "alpha" in
  Fleet.run fleet;
  let b = Option.get (Serve.bundle_for t id) in
  Alcotest.(check bool) "first appraisal" true (Serve.verify_bundle t b = Ok ());
  let s1 = Appraise.stats (Serve.appraiser t) in
  Alcotest.(check bool) "second appraisal" true (Serve.verify_bundle t b = Ok ());
  let s2 = Appraise.stats (Serve.appraiser t) in
  Alcotest.(check int) "quote verified once"
    s1.Appraise.quote_misses s2.Appraise.quote_misses;
  Alcotest.(check bool) "quote memo hit" true
    (s2.Appraise.quote_hits > s1.Appraise.quote_hits);
  Alcotest.(check bool) "cert memo hit" true
    (s2.Appraise.cert_hits > s1.Appraise.cert_hits);
  Alcotest.(check bool) "host-crypto bytes saved" true
    (s2.Appraise.bytes_saved > s1.Appraise.bytes_saved)

(* --- serve: batch membership ----------------------------------------- *)

(* every case below passes the certificate, quote and PCR-17 stages and
   fails, if at all, only on positional membership *)

let test_first_and_last_accepted () =
  let t, bs = warm_chunk [ "first"; "middle"; "last" ] in
  let first = List.hd bs and last = List.nth bs 2 in
  Alcotest.(check bool) "one chunk" true (first.Serve.evidence == last.Serve.evidence);
  Alcotest.check verdict "first position" (Ok ()) (Serve.verify_bundle t first);
  Alcotest.check verdict "last position" (Ok ()) (Serve.verify_bundle t last)

let test_payload_from_other_chunk () =
  let t, bs = warm_chunk [ "a1"; "a2" ] in
  let fleet = Serve.fleet t in
  let id = Fleet.submit fleet "elsewhere" in
  Fleet.run fleet;
  let other = Option.get (Serve.bundle_for t id) in
  Alcotest.check verdict "other chunk verifies" (Ok ()) (Serve.verify_bundle t other);
  let b = List.hd bs in
  Alcotest.check verdict "intact evidence, foreign pair" (Error Serve.Not_in_batch)
    (Serve.verify_bundle t
       { b with Serve.payload = other.Serve.payload; output = other.Serve.output })

let test_crossed_pair () =
  let t, bs = warm_chunk [ "i"; "j" ] in
  let bi = List.hd bs and bj = List.nth bs 1 in
  Alcotest.check verdict "payload i, output j" (Error Serve.Not_in_batch)
    (Serve.verify_bundle t { bi with Serve.output = bj.Serve.output })

(* a genuine quote of an echo session whose inputs end in a truncated
   field header: the PAL answers an error, the quote still verifies *)
let test_truncated_header_rejected () =
  let t, _ = warm_chunk [ "w" ] in
  let platform = Fleet.platform (Serve.fleet t) 0 in
  let inputs = Flicker_crypto.Util.encode_fields [ "1.000"; "p" ] ^ "\000\000" in
  let nonce = Platform.fresh_nonce platform in
  let outputs =
    match Session.execute platform ~pal:Workload.echo_pal ~inputs ~nonce () with
    | Ok o -> o.Session.outputs
    | Error e -> Alcotest.failf "session: %a" Session.pp_error e
  in
  let evidence = Attestation.generate platform ~nonce ~inputs ~outputs in
  let b =
    {
      Serve.output = "echo:p";
      payload = "p";
      nonce;
      evidence;
      pcr17 = "";
      platform = 0;
      boots = 0;
      nv = 0;
      quoted_at_ms = Platform.now_ms platform;
    }
  in
  Alcotest.check verdict "truncated header" (Error Serve.Not_in_batch)
    (Serve.verify_bundle t b)

(* --- appraisal memo: transparency and bound -------------------------- *)

let pcr_counts t =
  let s = Appraise.stats (Serve.appraiser t) in
  (s.Appraise.pcr_hits, s.Appraise.pcr_misses)

let test_tamper_after_hit () =
  let t, bs = warm_chunk [ "alpha" ] in
  let b = List.hd bs in
  Alcotest.check verdict "first" (Ok ()) (Serve.verify_bundle t b);
  Alcotest.check verdict "hit" (Ok ()) (Serve.verify_bundle t b);
  Alcotest.(check (pair int int)) "one miss, one hit" (1, 1) (pcr_counts t);
  let out = Bytes.of_string b.Serve.evidence.Attestation.claimed_outputs in
  Bytes.set out 7 (Char.chr (Char.code (Bytes.get out 7) lxor 1));
  let evil = Attestation.tamper_outputs b.Serve.evidence (Bytes.to_string out) in
  match Serve.verify_bundle t { b with Serve.evidence = evil } with
  | Error (Serve.Crypto (Verifier.Pcr_mismatch _)) -> ()
  | r -> Alcotest.failf "tampered outputs: %a" (Alcotest.pp verdict) r

let test_copies_hit () =
  let t, bs = warm_chunk [ "alpha" ] in
  let b = List.hd bs in
  Alcotest.check verdict "first" (Ok ()) (Serve.verify_bundle t b);
  let ev = b.Serve.evidence in
  let copied =
    {
      ev with
      Attestation.claimed_inputs = copy ev.Attestation.claimed_inputs;
      claimed_outputs = copy ev.Attestation.claimed_outputs;
    }
  in
  Alcotest.(check bool) "not physically equal" false
    (copied.Attestation.claimed_inputs == ev.Attestation.claimed_inputs);
  Alcotest.check verdict "copies verify" (Ok ())
    (Serve.verify_bundle t { b with Serve.evidence = copied });
  Alcotest.(check (pair int int)) "copies hit the PCR memo" (1, 1) (pcr_counts t)

let test_reappraisal_hashes_nothing () =
  let t, bs = warm_chunk [ "alpha"; "beta" ] in
  let b = List.hd bs and sibling = List.nth bs 1 in
  Alcotest.check verdict "first" (Ok ()) (Serve.verify_bundle t b);
  let hashed f =
    let before = Sha1.bytes_hashed () in
    Alcotest.check verdict "verifies" (Ok ()) (f ());
    Sha1.bytes_hashed () - before
  in
  Alcotest.(check int) "same bundle again" 0 (hashed (fun () -> Serve.verify_bundle t b));
  Alcotest.(check int) "sibling bundle" 0
    (hashed (fun () -> Serve.verify_bundle t sibling))

(* a standalone platform and PAL, for appraisals outside the tier *)
let ca = Privacy_ca.create (Prng.create ~seed:"serve-memo-ca") ~name:"MemoCA" ~key_bits:512
let ca_key = Privacy_ca.public_key ca

let worker =
  Pal.define ~name:"serve-memo-worker" (fun env ->
      Pal_env.set_output env ("result:" ^ env.Pal_env.inputs))

(* Three sessions, each with its expectation and seven appraisals of it:
   honest; outputs, or inputs, with one byte changed; fresh copies of
   the claimed I/O and the quoted digests; a second quote of the same
   PCR 17 under another nonce; the honest evidence against another load
   address; a genuine quote that does not cover PCR 17. Then the first
   two sessions' nonces and I/O quoted again after the third, over a
   PCR 17 that has moved on. *)
let appraisals =
  lazy
    (let p = Platform.create ~seed:"serve-memo" ~key_bits:512 ~ca () in
     let flip = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) in
     let session inputs =
       let nonce = Platform.fresh_nonce p in
       let outputs =
         match Session.execute p ~pal:worker ~inputs ~nonce () with
         | Ok o -> o.Session.outputs
         | Error e -> Alcotest.failf "session: %a" Session.pp_error e
       in
       let ev = Attestation.generate p ~nonce ~inputs ~outputs in
       let exp = Verifier.expect ~pal:worker ~slb_base:p.Platform.slb_base ~nonce () in
       let other_nonce = Platform.fresh_nonce p in
       let q = ev.Attestation.quote in
       let copied =
         {
           Attestation.quote =
             {
               q with
               Tpm.quoted_composite =
                 List.map (fun (i, d) -> (i, copy d)) q.Tpm.quoted_composite;
             };
           aik_cert = ev.Attestation.aik_cert;
           claimed_inputs = copy inputs;
           claimed_outputs = copy outputs;
         }
       in
       let cases =
         [
           ("honest", exp, ev);
           ("tampered outputs", exp, Attestation.tamper_outputs ev (flip outputs));
           ("tampered inputs", exp, { ev with Attestation.claimed_inputs = flip inputs });
           ("copied", exp, copied);
           ( "other nonce",
             { exp with Verifier.nonce = other_nonce },
             Attestation.generate p ~nonce:other_nonce ~inputs ~outputs );
           ( "other slb_base",
             { exp with Verifier.slb_base = exp.Verifier.slb_base + 0x10000 },
             ev );
           ( "no PCR 17",
             exp,
             {
               ev with
               Attestation.quote =
                 Tpm.quote p.Platform.tpm ~nonce ~selection:(Tpm_types.selection [ 18 ]);
             } );
         ]
       in
       (cases, fun () -> ("later PCR 17", exp, Attestation.generate p ~nonce ~inputs ~outputs))
     in
     let sessions = List.map session [ "in-0"; "in-1"; "in-2" ] in
     let later = List.filteri (fun i _ -> i < 2) sessions |> List.map (fun (_, requote) -> requote ()) in
     Array.of_list (List.concat_map fst sessions @ later))

let prop_memo_transparent =
  QCheck.Test.make ~name:"memoized verdicts equal Verifier's" ~count:60
    QCheck.(list_of_size Gen.(1 -- 40) (int_bound 99))
    (fun picks ->
      let pool = Lazy.force appraisals in
      let appraiser = Appraise.create ~ca_key () in
      List.for_all
        (fun k ->
          let name, exp, ev = pool.(k mod Array.length pool) in
          let memo = Appraise.verify appraiser exp ev in
          memo = Verifier.verify ~ca_key exp ev
          || QCheck.Test.fail_reportf "%s: memo %s" name
               (match memo with Ok () -> "Ok" | Error f -> Verifier.failure_to_string f))
        picks)

(* every memo holds at most 1,024 entries and evicts its oldest first *)
let test_memo_bound () =
  let _, exp, ev = (Lazy.force appraisals).(0) in
  let appraiser = Appraise.create ~ca_key () in
  let forged k =
    let q = ev.Attestation.quote in
    { ev with Attestation.quote = { q with Tpm.quote_nonce = Printf.sprintf "%020d" k } }
  in
  let appraise k =
    match Appraise.verify appraiser exp (forged k) with
    | Error Verifier.Bad_signature -> ()
    | r ->
        Alcotest.failf "forged quote %d: %s" k
          (match r with Ok () -> "Ok" | Error f -> Verifier.failure_to_string f)
  in
  for k = 1 to 1100 do
    appraise k
  done;
  let quotes () =
    let s = Appraise.stats appraiser in
    (s.Appraise.quote_hits, s.Appraise.quote_misses)
  in
  Alcotest.(check (pair int int)) "every forgery ran" (0, 1100) (quotes ());
  appraise 1;
  Alcotest.(check (pair int int)) "the first was evicted" (0, 1101) (quotes ());
  appraise 1100;
  Alcotest.(check (pair int int)) "the newest is kept" (1, 1101) (quotes ())

(* --- serve: invalidation --------------------------------------------- *)

let test_reboot_invalidates () =
  let t = Serve.create ~config:(quick_config ()) ~warm:[ "alpha" ] () in
  let fleet = Serve.fleet t in
  let id = Fleet.submit fleet "alpha" in
  Fleet.run fleet;
  let b = Option.get (Serve.bundle_for t id) in
  (* crash the platform that minted the entry: its volatile state and
     PCRs are gone, so the cached quote no longer reflects it *)
  Fleet.crash_platform fleet b.Serve.platform;
  Alcotest.(check bool) "entry invalidated" false (Serve.cached t "alpha");
  (match Serve.verify_bundle t b with
  | Error (Serve.Stale _) -> ()
  | Ok () -> Alcotest.fail "stale bundle verified"
  | Error f ->
      Alcotest.failf "wrong failure: %s" (Serve.verify_failure_to_string f));
  (* a new request for the same payload must run a real session again *)
  let id2 = Fleet.submit fleet "alpha" in
  Fleet.run fleet;
  let c2 = completion fleet id2 in
  Alcotest.(check bool) "re-executed after reboot" true (c2.Request.batch >= 1);
  let m = Serve.metrics t in
  Alcotest.(check bool) "reboot invalidation counted" true
    (Metrics.counter m "serve.cache.invalidated_reboot" >= 1)

let test_nv_advance_invalidates () =
  let t = Serve.create ~config:(quick_config ()) ~warm:[ "alpha" ] () in
  let fleet = Serve.fleet t in
  let id = Fleet.submit fleet "alpha" in
  Fleet.run fleet;
  let b = Option.get (Serve.bundle_for t id) in
  Serve.advance_nv t b.Serve.platform;
  Alcotest.(check bool) "entry invalidated" false (Serve.cached t "alpha");
  (match Serve.verify_bundle t b with
  | Error (Serve.Stale _) -> ()
  | _ -> Alcotest.fail "NV-stale bundle did not fail as stale");
  let m = Serve.metrics t in
  Alcotest.(check bool) "nv invalidation counted" true
    (Metrics.counter m "serve.cache.invalidated_nv" >= 1);
  Alcotest.check_raises "advance_nv validates index"
    (Invalid_argument "Serve.advance_nv: platform index outside fleet")
    (fun () -> Serve.advance_nv t 99)

let test_ttl_expiry_in_serve () =
  let t =
    Serve.create ~config:(quick_config ~ttl:(Some 500.0) ()) ~warm:[ "alpha" ] ()
  in
  let fleet = Serve.fleet t in
  (* a request arriving well past the entry's TTL must miss and
     re-execute *)
  let id =
    Fleet.submit fleet ~sent_ms:(Fleet.now_ms fleet +. 2000.0) "alpha"
  in
  Fleet.run fleet;
  let c = completion fleet id in
  Alcotest.(check bool) "expired entry re-executed" true (c.Request.batch >= 1);
  Alcotest.(check bool) "expiration counted" true
    ((Serve.cache_stats t).Cache.expirations >= 1)

(* --- serve: homing and tiers ----------------------------------------- *)

let test_homed_requests_bypass_cache () =
  let t = Serve.create ~config:(quick_config ()) ~warm:[ "alpha" ] () in
  let fleet = Serve.fleet t in
  let id = Fleet.submit fleet ~home:1 ~client:"sealed-1" "alpha" in
  Fleet.run fleet;
  let c = completion fleet id in
  (* even with the payload cached, a homed request runs on its home
     platform: its sealed state stays authoritative *)
  Alcotest.(check int) "served on its home" 1 c.Request.platform;
  Alcotest.(check bool) "ran a session" true (c.Request.batch >= 1)

let test_tiered_admission () =
  let config =
    {
      Fleet.default_config with
      Fleet.seed = "test-serve-tiers";
      platforms = 1;
      batch_size = 1;
    }
  in
  let fleet = Fleet.create ~config (Flicker_service.Workload.echo ()) in
  (* four batch requests queue up; the interactive one arrives last but
     must be dispatched ahead of the queued batch work *)
  let batch_ids =
    List.init 4 (fun i -> Fleet.submit fleet (Printf.sprintf "b%d" i))
  in
  let interactive =
    Fleet.submit fleet ~tier:Request.Interactive ~sent_ms:(Fleet.now_ms fleet +. 1.0)
      "urgent"
  in
  Fleet.run fleet;
  let fin id = (completion fleet id).Request.finished_ms in
  let later_batches = List.filteri (fun i _ -> i > 0) batch_ids in
  List.iter
    (fun b ->
      Alcotest.(check bool) "interactive overtakes queued batch work" true
        (fin interactive < fin b))
    later_batches;
  let s = Fleet.summary fleet in
  let tier_of name =
    List.find (fun ts -> Request.tier_name ts.Fleet.tier = name) s.Fleet.by_tier
  in
  let ti = tier_of "interactive" and tb = tier_of "batch" in
  Alcotest.(check int) "interactive submitted" 1 ti.Fleet.t_submitted;
  Alcotest.(check int) "interactive completed" 1 ti.Fleet.t_completed;
  Alcotest.(check int) "batch submitted" 4 tb.Fleet.t_submitted;
  Alcotest.(check int) "batch completed" 4 tb.Fleet.t_completed;
  Alcotest.(check bool) "interactive p95 below batch p95" true
    (ti.Fleet.t_p95_ms < tb.Fleet.t_p95_ms)

let () =
  Alcotest.run "serve"
    [
      ( "cache",
        [
          Alcotest.test_case "ttl against the virtual clock" `Quick test_cache_ttl;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "lru determinism under a fixed seed" `Quick
            test_cache_lru_deterministic;
          Alcotest.test_case "remove_if sweeps" `Quick test_cache_remove_if;
        ] );
      ( "serve",
        [
          Alcotest.test_case "hit returns a verifiable bundle" `Quick
            test_hit_returns_verifiable_bundle;
          Alcotest.test_case "appraisal memoizes host crypto" `Quick
            test_appraisal_memoized;
          Alcotest.test_case "reboot invalidates" `Quick test_reboot_invalidates;
          Alcotest.test_case "nv advance invalidates" `Quick
            test_nv_advance_invalidates;
          Alcotest.test_case "ttl expiry re-executes" `Quick
            test_ttl_expiry_in_serve;
          Alcotest.test_case "homed requests bypass the cache" `Quick
            test_homed_requests_bypass_cache;
          Alcotest.test_case "tiered admission" `Quick test_tiered_admission;
        ] );
      ( "batch",
        [
          Alcotest.test_case "first and last positions verify" `Quick
            test_first_and_last_accepted;
          Alcotest.test_case "payload from another chunk" `Quick
            test_payload_from_other_chunk;
          Alcotest.test_case "payload i with output j" `Quick test_crossed_pair;
          Alcotest.test_case "truncated field header" `Quick
            test_truncated_header_rejected;
        ] );
      ( "memo",
        [
          Alcotest.test_case "tampered outputs after a hit" `Quick test_tamper_after_hit;
          Alcotest.test_case "fresh copies hit the PCR memo" `Quick test_copies_hit;
          Alcotest.test_case "re-appraisal hashes 0 bytes" `Quick
            test_reappraisal_hashes_nothing;
          Alcotest.test_case "1,024-entry FIFO bound" `Quick test_memo_bound;
          QCheck_alcotest.to_alcotest prop_memo_transparent;
        ] );
    ]
