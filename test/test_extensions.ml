(* Tests for the paper's discussion-section features: the BOINC server's
   attested result acceptance, NV-storage replay protection with crash
   detection, the SLB Core watchdog, trusted-boot (IMA) attestation and
   the verification-burden comparison, and Flicker-aware device drivers. *)

open Flicker_crypto
open Flicker_core
open Flicker_apps
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Privacy_ca = Flicker_tpm.Privacy_ca
module Measured_boot = Flicker_os.Measured_boot
module Blockdev = Flicker_os.Blockdev
module Scheduler = Flicker_os.Scheduler
module Tpm = Flicker_tpm.Tpm

let ca = Privacy_ca.create (Prng.create ~seed:"ext-ca") ~name:"ExtCA" ~key_bits:512
let ca_key = Privacy_ca.public_key ca
let make_platform ~seed = Platform.create ~seed ~key_bits:512 ~ca ()

(* --- BOINC server with attested submissions --- *)

let run_unit_for_server server client =
  match Boinc.next_unit server with
  | None -> Alcotest.fail "no unit available"
  | Some unit_ -> (
      (* work until one slice from done, then run the final session
         against the server's nonce *)
      match Distcomp.start client unit_ ~slice_ms:5.0 with
      | Error e -> Alcotest.fail e
      | Ok step ->
          let rec advance step =
            (* finish when the remaining candidates fit one more slice *)
            let remaining =
              step.Distcomp.state.Distcomp.unit_.Distcomp.hi
              - step.Distcomp.state.Distcomp.next_candidate + 1
            in
            if step.Distcomp.state.Distcomp.finished then
              Alcotest.fail "finished before the attested session"
            else if float_of_int remaining <= 5.0 *. Distcomp.candidates_per_ms then begin
              let nonce = Boinc.fresh_nonce server in
              match Distcomp.resume_attested ~nonce client step.Distcomp.state ~slice_ms:5.0 with
              | Error e -> Alcotest.fail e
              | Ok (final_step, pal_inputs) -> (final_step, pal_inputs, nonce)
            end
            else begin
              match Distcomp.resume client step.Distcomp.state ~slice_ms:5.0 with
              | Error e -> Alcotest.fail e
              | Ok step -> advance step
            end
          in
          let final_step, pal_inputs, nonce = advance step in
          Alcotest.(check bool) "finished" true final_step.Distcomp.state.Distcomp.finished;
          (unit_, final_step, pal_inputs, nonce))

let test_boinc_accepts_honest_result () =
  let server = Boinc.create ~ca_key ~number:9699690 ~lo:2 ~hi:4000 ~unit_size:2000 in
  let p = make_platform ~seed:"boinc-honest" in
  let client = Distcomp.create_client p in
  let _unit, final_step, pal_inputs, nonce = run_unit_for_server server client in
  let evidence =
    Attestation.generate p ~nonce ~inputs:pal_inputs
      ~outputs:final_step.Distcomp.outcome.Session.outputs
  in
  let submission =
    {
      Boinc.final_state = final_step.Distcomp.state;
      pal_inputs;
      evidence;
      sub_nonce = nonce;
      volunteer_slb_base = p.Platform.slb_base;
    }
  in
  (match Boinc.submit server submission with
  | Ok () -> ()
  | Error r -> Alcotest.fail (Boinc.rejection_to_string r));
  Alcotest.(check bool) "divisors recorded" true (Boinc.accepted_divisors server <> []);
  Alcotest.(check int) "unit retired" 0 (Boinc.outstanding_units server);
  (* replaying the same submission fails: the nonce was consumed *)
  match Boinc.submit server submission with
  | Error Boinc.Unknown_nonce -> ()
  | _ -> Alcotest.fail "submission replay accepted"

let test_boinc_rejects_forged_results () =
  let server = Boinc.create ~ca_key ~number:9699690 ~lo:2 ~hi:2000 ~unit_size:2000 in
  let p = make_platform ~seed:"boinc-forged" in
  let client = Distcomp.create_client p in
  let _unit, final_step, pal_inputs, nonce = run_unit_for_server server client in
  let honest = final_step.Distcomp.state in
  (* the volunteer's OS claims extra divisors (to earn more credit, say);
     divisors that do divide, so the spot check alone cannot catch it *)
  let forged_state =
    { honest with Distcomp.divisors_found = 2 :: honest.Distcomp.divisors_found }
  in
  let evidence =
    Attestation.generate p ~nonce ~inputs:pal_inputs
      ~outputs:final_step.Distcomp.outcome.Session.outputs
  in
  let submission =
    {
      Boinc.final_state = forged_state;
      pal_inputs;
      evidence;
      sub_nonce = nonce;
      volunteer_slb_base = p.Platform.slb_base;
    }
  in
  match Boinc.submit server submission with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "forged results accepted"

let test_boinc_rejects_bogus_divisor () =
  let server = Boinc.create ~ca_key ~number:101 (* prime *) ~lo:2 ~hi:2500 ~unit_size:2500 in
  let p = make_platform ~seed:"boinc-bogus" in
  let client = Distcomp.create_client p in
  let unit_, final_step, pal_inputs, nonce = run_unit_for_server server client in
  ignore unit_;
  let forged =
    { final_step.Distcomp.state with Distcomp.divisors_found = [ 7 ] }
  in
  let evidence =
    Attestation.generate p ~nonce ~inputs:pal_inputs
      ~outputs:final_step.Distcomp.outcome.Session.outputs
  in
  match
    Boinc.submit server
      {
        Boinc.final_state = forged;
        pal_inputs;
        evidence;
        sub_nonce = nonce;
        volunteer_slb_base = p.Platform.slb_base;
      }
  with
  | Error (Boinc.Bogus_divisor 7) -> ()
  | Error r -> Alcotest.fail ("wrong rejection: " ^ Boinc.rejection_to_string r)
  | Ok () -> Alcotest.fail "bogus divisor accepted"

let test_boinc_unit_management () =
  let server = Boinc.create ~ca_key ~number:1000 ~lo:2 ~hi:101 ~unit_size:25 in
  let units = List.init 4 (fun _ -> Boinc.next_unit server) in
  Alcotest.(check int) "four units" 4
    (List.length (List.filter Option.is_some units));
  Alcotest.(check bool) "exhausted" true (Boinc.next_unit server = None);
  Alcotest.(check int) "all outstanding" 4 (Boinc.outstanding_units server);
  Alcotest.(check bool) "not complete" false (Boinc.complete server);
  (* ranges tile [2, 101] without overlap *)
  let ranges =
    List.filter_map (Option.map (fun u -> (u.Distcomp.lo, u.Distcomp.hi))) units
  in
  Alcotest.(check (list (pair int int))) "tiling"
    [ (2, 26); (27, 51); (52, 76); (77, 101) ]
    (List.sort compare ranges)

(* --- NV-based replay protection (Section 4.3.2): test_attestation's
   versioned-state steps over a PCR-17-gated NV space --- *)

let test_nv_replay_protocol () =
  let p = make_platform ~seed:"nv-replay" in
  Versioned_state.protocol p (Versioned_state.nv_space p ~index:42)

let test_nv_crash_detection () =
  let p = make_platform ~seed:"nv-crash" in
  Versioned_state.crash p (Versioned_state.nv_space p ~index:43)

let test_nv_counter_gated_from_os () =
  (* the versioned-state NV space is PCR-gated: with PCR 17 capped, the
     OS cannot read or advance the counter *)
  let p = make_platform ~seed:"nv-gate" in
  ignore (Versioned_state.nv_space p ~index:44);
  (match Tpm.nv_read p.Platform.tpm ~index:44 with
  | Error Flicker_tpm.Tpm_types.Wrong_pcr_value -> ()
  | Error e -> Alcotest.fail (Flicker_tpm.Tpm_types.error_to_string e)
  | Ok _ -> Alcotest.fail "OS read the gated counter");
  match Tpm.nv_write p.Platform.tpm ~index:44 "\xff\xff\xff\xff" with
  | Error Flicker_tpm.Tpm_types.Wrong_pcr_value -> ()
  | _ -> Alcotest.fail "OS advanced the gated counter"

(* --- the SLB Core watchdog (Section 5.1.2) --- *)

let contains ~needle hay =
  let h = String.lowercase_ascii hay and n = String.lowercase_ascii needle in
  let rec scan i =
    i + String.length n <= String.length h
    && (String.sub h i (String.length n) = n || scan (i + 1))
  in
  scan 0

let test_watchdog_aborts_runaway_pal () =
  let runaway =
    Pal.define ~name:"ext-runaway" (fun env ->
        Pal_env.set_output env "about to spin";
        Pal_env.compute env ~ms:60_000.0)
  in
  let p = make_platform ~seed:"watchdog" in
  match Session.execute p ~pal:runaway ~time_limit_ms:1000.0 () with
  | Error e -> Alcotest.failf "session: %a" Session.pp_error e
  | Ok outcome ->
      Alcotest.(check bool) "fault recorded" true
        (match outcome.Session.pal_fault with
        | Some msg -> contains ~needle:"watchdog" msg
        | None -> false);
      Alcotest.(check string) "outputs discarded" "" outcome.Session.outputs

let test_watchdog_spares_wellbehaved_pal () =
  let prompt =
    Pal.define ~name:"ext-prompt" (fun env ->
        Pal_env.compute env ~ms:50.0;
        Pal_env.set_output env "done in time")
  in
  let p = make_platform ~seed:"watchdog-ok" in
  match Session.execute p ~pal:prompt ~time_limit_ms:1000.0 () with
  | Error e -> Alcotest.failf "session: %a" Session.pp_error e
  | Ok outcome ->
      Alcotest.(check string) "outputs kept" "done in time" outcome.Session.outputs;
      Alcotest.(check bool) "no fault" true (outcome.Session.pal_fault = None)

let test_watchdog_validation () =
  let pal = Pal.define ~name:"ext-wd-val" (fun env -> Pal_env.set_output env "") in
  let p = make_platform ~seed:"watchdog-val" in
  Alcotest.(check bool) "non-positive limit rejected" true
    (match Session.execute p ~pal ~time_limit_ms:0.0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- trusted boot (IMA) vs Flicker --- *)

let test_measured_boot_log_replay () =
  let p = make_platform ~seed:"ima" in
  Tpm.reboot p.Platform.tpm;
  let ima = Measured_boot.create p.Platform.tpm in
  Measured_boot.boot_sequence ima p.Platform.kernel;
  Measured_boot.run_application ima ~name:"/usr/bin/seti" ~code:"seti-binary";
  let log = Measured_boot.log ima in
  Alcotest.(check bool) "log populated" true (List.length log > 5);
  (* the replayed log matches the live PCRs *)
  List.iter
    (fun (pcr, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "PCR %d replays" pcr)
        expected
        (Result.get_ok (Tpm.pcr_read p.Platform.tpm pcr)))
    (Trusted_boot.replay_log log)

(* a platform right after a measured boot, its IMA log, and a quote over
   the log's PCRs under a fresh nonce *)
let ima_quote ~seed =
  let p = make_platform ~seed in
  Tpm.reboot p.Platform.tpm;
  let ima = Measured_boot.create p.Platform.tpm in
  Measured_boot.boot_sequence ima p.Platform.kernel;
  let nonce = Platform.fresh_nonce p in
  let quote = Tpm.quote p.Platform.tpm ~nonce ~selection:(Measured_boot.pcrs_in_use ima) in
  (p, Measured_boot.log ima, nonce, quote)

let test_trusted_boot_attestation () =
  let p, log, nonce, quote = ima_quote ~seed:"ima-attest" in
  (match
     Trusted_boot.verify ~ca_key ~aik_cert:p.Platform.aik_cert ~nonce ~log quote
   with
  | Ok () -> ()
  | Error f -> Alcotest.fail (Trusted_boot.failure_to_string f));
  (* hiding a log entry (to conceal a loaded rootkit) breaks replay *)
  let censored = List.filter (fun e -> e.Measured_boot.component <> "BIOS") log in
  (match Trusted_boot.verify ~ca_key ~aik_cert:p.Platform.aik_cert ~nonce ~log:censored quote with
  | Error (Trusted_boot.Log_mismatch _) -> ()
  | Error f -> Alcotest.fail ("wrong failure: " ^ Trusted_boot.failure_to_string f)
  | Ok () -> Alcotest.fail "censored log accepted");
  (* an extra (fabricated) entry also breaks it *)
  let padded =
    log @ [ { Measured_boot.pcr_index = 10; template_hash = Sha1.digest "x"; component = "fake" } ]
  in
  match Trusted_boot.verify ~ca_key ~aik_cert:p.Platform.aik_cert ~nonce ~log:padded quote with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "padded log accepted"

(* hiding every entry of one PCR leaves a log that never names it, but
   the quote still covers it: its value must be the post-reboot zero *)
let test_trusted_boot_censored_pcr () =
  let p, log, nonce, quote = ima_quote ~seed:"ima-attest" in
  let censored = List.filter (fun e -> e.Measured_boot.pcr_index <> 0) log in
  Alcotest.(check int) "BIOS and option ROMs hidden" 2 (List.length log - List.length censored);
  match Trusted_boot.verify ~ca_key ~aik_cert:p.Platform.aik_cert ~nonce ~log:censored quote with
  | Error (Trusted_boot.Log_mismatch { pcr = 0; _ }) -> ()
  | Error f -> Alcotest.fail ("wrong failure: " ^ Trusted_boot.failure_to_string f)
  | Ok () -> Alcotest.fail "log without PCR 0 accepted"

(* a bad certificate, signature or nonce fails Trusted_boot with the
   failure Verifier's own stages give the same quote *)
let test_trusted_boot_stage_parity () =
  let p, log, nonce, quote = ima_quote ~seed:"ima-parity" in
  let aik_cert = p.Platform.aik_cert in
  let forged_cert =
    let rogue = Privacy_ca.create (Prng.create ~seed:"ext-rogue-ca") ~name:"ExtCA" ~key_bits:512 in
    let ek = Tpm.ek_public p.Platform.tpm in
    Privacy_ca.register_ek rogue ek;
    Result.get_ok (Privacy_ca.certify_aik rogue ~ek ~aik:aik_cert.Privacy_ca.subject_aik)
  in
  let flipped =
    let s = quote.Tpm.signature in
    {
      quote with
      Tpm.signature =
        String.mapi (fun i c -> if i = 5 then Char.chr (Char.code c lxor 1) else c) s;
    }
  in
  let stale = Platform.fresh_nonce p in
  let pal = Pal.define ~name:"ext-parity-pal" (fun env -> Pal_env.set_output env "") in
  List.iter
    (fun (name, aik_cert, nonce, quote, expected) ->
      let flicker =
        Verifier.verify ~ca_key
          (Verifier.expect ~pal ~slb_base:p.Platform.slb_base ~nonce ())
          { Attestation.quote; aik_cert; claimed_inputs = ""; claimed_outputs = "" }
      in
      Alcotest.(check bool) (name ^ ": Verifier's stage") true (flicker = Error expected);
      Alcotest.(check bool) (name ^ ": Trusted_boot's") true
        (Trusted_boot.verify ~ca_key ~aik_cert ~nonce ~log quote
        = Error (Trusted_boot.Quote_rejected expected)))
    [
      ("forged AIK certificate", forged_cert, nonce, quote, Verifier.Bad_certificate);
      ("flipped signature byte", aik_cert, nonce, flipped, Verifier.Bad_signature);
      ("stale nonce", aik_cert, stale, quote, Verifier.Nonce_mismatch);
    ]

let test_verification_burden_comparison () =
  let p = make_platform ~seed:"burden" in
  Tpm.reboot p.Platform.tpm;
  let ima = Measured_boot.create p.Platform.tpm in
  Measured_boot.boot_sequence ima p.Platform.kernel;
  (* a realistic day: many applications run and are measured *)
  for i = 1 to 40 do
    Measured_boot.run_application ima ~name:(Printf.sprintf "/usr/bin/app%d" i)
      ~code:(Printf.sprintf "binary-%d" i)
  done;
  let tb = Trusted_boot.trusted_boot_burden (Measured_boot.log ima) in
  let pal =
    Pal.define ~name:"ext-burden-pal" ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities ]
      (fun env -> Pal_env.set_output env "")
  in
  let fl = Trusted_boot.flicker_burden pal in
  Alcotest.(check bool) "trusted boot assesses the whole stack" true
    tb.Trusted_boot.includes_full_os;
  Alcotest.(check bool) "flicker does not" false fl.Trusted_boot.includes_full_os;
  Alcotest.(check bool)
    (Printf.sprintf "burden %d vs %d" tb.Trusted_boot.components_to_assess
       fl.Trusted_boot.components_to_assess)
    true
    (fl.Trusted_boot.components_to_assess * 10 < tb.Trusted_boot.components_to_assess)

let test_ima_misses_runtime_compromise () =
  (* Section 8's critique made executable: IMA measures components at
     load time, so a post-boot inline hook in already-measured kernel
     text leaves the event log verifying cleanly — while the Flicker
     rootkit detector, which hashes live memory, catches it *)
  let p = make_platform ~seed:"ima-blindspot" in
  Tpm.reboot p.Platform.tpm;
  let ima = Measured_boot.create p.Platform.tpm in
  Measured_boot.boot_sequence ima p.Platform.kernel;
  let log = Measured_boot.log ima in
  let d = Rootkit_detector.deploy_on p in
  (* the runtime compromise: after boot, malware patches kernel text *)
  Flicker_os.Kernel.install_text_rootkit p.Platform.kernel;
  Rootkit_detector.sync d;
  (* IMA: the log still replays against the live PCRs — attacker invisible *)
  let nonce = Platform.fresh_nonce p in
  let quote = Tpm.quote p.Platform.tpm ~nonce ~selection:(Measured_boot.pcrs_in_use ima) in
  (match Trusted_boot.verify ~ca_key ~aik_cert:p.Platform.aik_cert ~nonce ~log quote with
  | Ok () -> () (* verifies "clean": the blind spot *)
  | Error f -> Alcotest.fail ("IMA unexpectedly failed: " ^ Trusted_boot.failure_to_string f));
  (* Flicker: a fresh detector session sees the live bytes *)
  let nonce2 = Platform.fresh_nonce p in
  match Rootkit_detector.scan d ~nonce:nonce2 with
  | Error e -> Alcotest.fail e
  | Ok result -> (
      match Rootkit_detector.admin_check d ~ca_key result with
      | Rootkit_detector.Rootkit_detected _ -> ()
      | Rootkit_detector.Clean -> Alcotest.fail "flicker detector missed the rootkit"
      | Rootkit_detector.Attestation_rejected f ->
          Alcotest.fail (Verifier.failure_to_string f))

(* --- Flicker-aware device drivers (Section 7.5) --- *)

let copy_under_sessions ~driver ~session_ms p =
  let hd = Blockdev.create ~name:"hd" ~rate_kb_per_ms:50.0 in
  let usb = Blockdev.create ~name:"usb" ~rate_kb_per_ms:20.0 in
  let data = Prng.bytes (Prng.create ~seed:"drv") (256 * 1024) in
  Blockdev.store hd ~file:"f" data;
  let long_pal =
    Pal.define ~name:(Printf.sprintf "ext-drv-%.0f" session_ms) (fun env ->
        Pal_env.compute env ~ms:session_ms;
        Pal_env.set_output env "x")
  in
  let ran = ref false in
  let between_chunks () =
    if not !ran then begin
      ran := true;
      match Session.execute p ~pal:long_pal () with
      | Ok _ -> ()
      | Error e -> Format.kasprintf failwith "%a" Session.pp_error e
    end
  in
  let result =
    Blockdev.transfer p.Platform.machine ~scheduler:p.Platform.scheduler ~src:hd
      ~dst:usb ~file:"f" ~chunk_kb:64 ~between_chunks ~driver ()
  in
  (result, Blockdev.md5sum usb ~file:"f" = Ok (Md5.hex data))

let test_legacy_driver_survives_short_sessions () =
  (* the paper's 8.3 s sessions: below the 30 s timeout, no errors *)
  let p = make_platform ~seed:"drv-short" in
  let result, intact = copy_under_sessions ~driver:Blockdev.Legacy ~session_ms:8300.0 p in
  Alcotest.(check bool) "copy ok" true (Result.is_ok result);
  Alcotest.(check bool) "md5 intact" true intact

let test_legacy_driver_times_out_on_long_session () =
  let p = make_platform ~seed:"drv-long" in
  let result, _ = copy_under_sessions ~driver:Blockdev.Legacy ~session_ms:45_000.0 p in
  match result with
  | Error msg -> Alcotest.(check bool) "timeout reported" true (contains ~needle:"timeout" msg)
  | Ok _ -> Alcotest.fail "45 s stall did not time out a legacy driver"

let test_flicker_aware_driver_survives_long_session () =
  let p = make_platform ~seed:"drv-aware" in
  let result, intact =
    copy_under_sessions ~driver:Blockdev.Flicker_aware ~session_ms:45_000.0 p
  in
  Alcotest.(check bool) "copy ok" true (Result.is_ok result);
  Alcotest.(check bool) "md5 intact" true intact

let () =
  Alcotest.run "extensions"
    [
      ( "boinc server",
        [
          Alcotest.test_case "accepts honest result" `Quick test_boinc_accepts_honest_result;
          Alcotest.test_case "rejects forged results" `Quick test_boinc_rejects_forged_results;
          Alcotest.test_case "rejects bogus divisor" `Quick test_boinc_rejects_bogus_divisor;
          Alcotest.test_case "unit management" `Quick test_boinc_unit_management;
        ] );
      ( "nv replay",
        [
          Alcotest.test_case "protocol" `Quick test_nv_replay_protocol;
          Alcotest.test_case "crash detection" `Quick test_nv_crash_detection;
          Alcotest.test_case "counter gated from OS" `Quick test_nv_counter_gated_from_os;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "aborts runaway pal" `Quick test_watchdog_aborts_runaway_pal;
          Alcotest.test_case "spares well-behaved pal" `Quick test_watchdog_spares_wellbehaved_pal;
          Alcotest.test_case "validation" `Quick test_watchdog_validation;
        ] );
      ( "trusted boot",
        [
          Alcotest.test_case "log replay" `Quick test_measured_boot_log_replay;
          Alcotest.test_case "attestation" `Quick test_trusted_boot_attestation;
          Alcotest.test_case "censored pcr" `Quick test_trusted_boot_censored_pcr;
          Alcotest.test_case "stage parity" `Quick test_trusted_boot_stage_parity;
          Alcotest.test_case "burden comparison" `Quick test_verification_burden_comparison;
          Alcotest.test_case "ima runtime blind spot" `Quick test_ima_misses_runtime_compromise;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "legacy + short sessions" `Quick
            test_legacy_driver_survives_short_sessions;
          Alcotest.test_case "legacy + long session" `Quick
            test_legacy_driver_times_out_on_long_session;
          Alcotest.test_case "flicker-aware + long session" `Quick
            test_flicker_aware_driver_survives_long_session;
        ] );
    ]
