open Flicker_core
open Flicker_apps
module Timing = Flicker_hw.Timing

let make ~seed = Platform.create ~seed ~key_bits:512 ()

let test_state_codec () =
  let st =
    {
      Distcomp.unit_ = { Distcomp.unit_id = 7; number = 91; lo = 2; hi = 20 };
      next_candidate = 5;
      divisors_found = [ 13; 7 ];
      finished = false;
    }
  in
  match Distcomp.decode_state (Distcomp.encode_state st) with
  | Ok st' ->
      Alcotest.(check int) "unit id" 7 st'.Distcomp.unit_.Distcomp.unit_id;
      Alcotest.(check int) "next" 5 st'.Distcomp.next_candidate;
      Alcotest.(check (list int)) "divisors" [ 13; 7 ] st'.Distcomp.divisors_found;
      Alcotest.(check bool) "running" false st'.Distcomp.finished
  | Error e -> Alcotest.fail e

let test_state_codec_errors () =
  Alcotest.(check bool) "garbage" true (Result.is_error (Distcomp.decode_state "junk"));
  Alcotest.(check bool) "truncated" true
    (Result.is_error (Distcomp.decode_state (Flicker_crypto.Util.encode_fields [ "a" ])))

let test_finds_real_factors () =
  let p = make ~seed:"factors" in
  let client = Distcomp.create_client p in
  (* 3 * 5 * 7 * 11 * 13 = 15015; search all candidates in [2, 130] *)
  let unit_ = { Distcomp.unit_id = 1; number = 15015; lo = 2; hi = 130 } in
  match Distcomp.run_to_completion client unit_ ~slice_ms:0.2 with
  | Error e -> Alcotest.fail e
  | Ok (final, sessions) ->
      Alcotest.(check bool) "finished" true final.Distcomp.finished;
      Alcotest.(check bool) "multiple sessions" true (sessions > 1);
      let divisors = List.sort compare final.Distcomp.divisors_found in
      (* every divisor of 15015 in [2,130] *)
      let expected =
        List.filter (fun c -> 15015 mod c = 0) (List.init 129 (fun i -> i + 2))
      in
      Alcotest.(check (list int)) "all divisors found" expected divisors

let test_single_session_completion () =
  let p = make ~seed:"single" in
  let client = Distcomp.create_client p in
  let unit_ = { Distcomp.unit_id = 2; number = 35; lo = 2; hi = 10 } in
  match Distcomp.run_to_completion client unit_ ~slice_ms:1000.0 with
  | Error e -> Alcotest.fail e
  | Ok (final, sessions) ->
      Alcotest.(check int) "one session" 1 sessions;
      Alcotest.(check (list int)) "5 and 7" [ 5; 7 ]
        (List.sort compare final.Distcomp.divisors_found)

let test_mac_tamper_detected () =
  let p = make ~seed:"tamper" in
  let client = Distcomp.create_client p in
  let unit_ = { Distcomp.unit_id = 3; number = 1_000_003; lo = 2; hi = 100_000 } in
  match Distcomp.start client unit_ ~slice_ms:5.0 with
  | Error e -> Alcotest.fail e
  | Ok step -> (
      Alcotest.(check bool) "not finished yet" false step.Distcomp.state.Distcomp.finished;
      (* the untrusted OS tampers with the stored state *)
      let blob = Distcomp.tamper_state (Distcomp.encode_state step.Distcomp.state) in
      match Distcomp.resume_raw client ~state_blob:blob ~slice_ms:5.0 with
      | Error msg ->
          Alcotest.(check bool) "MAC mismatch reported" true
            (let lower = String.lowercase_ascii msg in
             let rec contains i =
               i + 3 <= String.length lower
               && (String.sub lower i 3 = "mac" || contains (i + 1))
             in
             contains 0)
      | Ok _ -> Alcotest.fail "tampered state accepted")

let test_honest_resume_continues () =
  let p = make ~seed:"resume" in
  let client = Distcomp.create_client p in
  let unit_ = { Distcomp.unit_id = 4; number = 9_999_991; lo = 2; hi = 10_000 } in
  match Distcomp.start client unit_ ~slice_ms:10.0 with
  | Error e -> Alcotest.fail e
  | Ok step1 -> (
      let progress1 = step1.Distcomp.state.Distcomp.next_candidate in
      Alcotest.(check bool) "made progress" true (progress1 > 2);
      match Distcomp.resume client step1.Distcomp.state ~slice_ms:10.0 with
      | Error e -> Alcotest.fail e
      | Ok step2 ->
          Alcotest.(check bool) "continued from checkpoint" true
            (step2.Distcomp.state.Distcomp.next_candidate > progress1))

let test_resume_finished_raises () =
  let p = make ~seed:"finished" in
  let client = Distcomp.create_client p in
  let st =
    {
      Distcomp.unit_ = { Distcomp.unit_id = 5; number = 6; lo = 2; hi = 3 };
      next_candidate = 4;
      divisors_found = [ 2; 3 ];
      finished = true;
    }
  in
  Alcotest.(check bool) "raises" true
    (match Distcomp.resume client st ~slice_ms:1.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_overhead_dominated_by_unseal () =
  (* Table 4: resume-session overhead = SKINIT (~14 ms) + Unseal (~898 ms) *)
  let p = make ~seed:"overhead" in
  let client = Distcomp.create_client p in
  let unit_ = { Distcomp.unit_id = 6; number = 1_000_003; lo = 2; hi = 500_000 } in
  match Distcomp.start client unit_ ~slice_ms:100.0 with
  | Error e -> Alcotest.fail e
  | Ok step1 -> (
      match Distcomp.resume client step1.Distcomp.state ~slice_ms:1000.0 with
      | Error e -> Alcotest.fail e
      | Ok step2 ->
          let overhead = step2.Distcomp.session_overhead_ms in
          Alcotest.(check bool)
            (Printf.sprintf "overhead ~912 ms (got %.1f)" overhead)
            true
            (overhead > 880.0 && overhead < 960.0))

let test_efficiency_table4 () =
  (* the analytic efficiency model must reproduce Table 4's overheads *)
  let t = Timing.default in
  let check_overhead work expected =
    let eff = Distcomp.efficiency t ~work_ms:work in
    let overhead_pct = (1.0 -. eff) *. 100.0 in
    Alcotest.(check (float 2.0))
      (Printf.sprintf "%.0f ms work" work)
      expected overhead_pct
  in
  check_overhead 1000.0 47.0;
  check_overhead 2000.0 30.0;
  check_overhead 4000.0 18.0;
  check_overhead 8000.0 10.0

let test_efficiency_figure8 () =
  let t = Timing.default in
  (* Flicker beats 3-way replication somewhere below 2 s of user latency *)
  Alcotest.(check bool) "2s beats 3-way" true
    (Distcomp.efficiency t ~work_ms:2000.0 > Distcomp.replication_efficiency 3);
  Alcotest.(check bool) "10s close to 1" true (Distcomp.efficiency t ~work_ms:10000.0 > 0.9);
  (* replication efficiencies *)
  Alcotest.(check (float 1e-9)) "3-way" (1.0 /. 3.0) (Distcomp.replication_efficiency 3);
  Alcotest.(check (float 1e-9)) "7-way" (1.0 /. 7.0) (Distcomp.replication_efficiency 7);
  (* efficiency is monotone in work *)
  Alcotest.(check bool) "monotone" true
    (Distcomp.efficiency t ~work_ms:1000.0 < Distcomp.efficiency t ~work_ms:4000.0);
  (* Infineon improves efficiency *)
  let infineon = Timing.with_tpm Timing.infineon t in
  Alcotest.(check bool) "faster TPM helps" true
    (Distcomp.efficiency infineon ~work_ms:1000.0 > Distcomp.efficiency t ~work_ms:1000.0)

let test_results_extended_into_pcr () =
  (* the final session extends the result hash, so the attested PCR
     differs from a session that produced different results *)
  let p = make ~seed:"extend-results" in
  let client = Distcomp.create_client p in
  let unit_ = { Distcomp.unit_id = 8; number = 21; lo = 2; hi = 10 } in
  match Distcomp.run_to_completion client unit_ ~slice_ms:1000.0 with
  | Error e -> Alcotest.fail e
  | Ok (final, _) ->
      Alcotest.(check (list int)) "3 and 7" [ 3; 7 ]
        (List.sort compare final.Distcomp.divisors_found)

(* The slice comes from the untrusted OS. A malformed one gets an ERROR:
   reply from a session that still ends normally, so the platform stays
   usable. *)
let test_malformed_slice_refused () =
  let p = make ~seed:"bad-slice" in
  let pal = Distcomp.pal () in
  let run fields =
    match Session.execute p ~pal ~inputs:(Flicker_crypto.Util.encode_fields fields) () with
    | Ok outcome -> outcome.Session.outputs
    | Error e -> Alcotest.failf "session: %a" Session.pp_error e
  in
  let refused out = String.length out >= 6 && String.sub out 0 6 = "ERROR:" in
  let unit_ = { Distcomp.unit_id = 4; number = 91; lo = 2; hi = 50 } in
  let st = { Distcomp.unit_; next_candidate = 2; divisors_found = []; finished = false } in
  Alcotest.(check bool) "start, slice x" true
    (refused (run [ "start"; Distcomp.encode_state st; "x" ]));
  Alcotest.(check bool) "start, negative slice" true
    (refused (run [ "start"; Distcomp.encode_state st; "-1" ]));
  let client = Distcomp.create_client p in
  match Distcomp.start client unit_ ~slice_ms:0.05 with
  | Error e -> Alcotest.failf "clean start: %s" e
  | Ok step -> (
      (match Flicker_crypto.Util.decode_fields step.Distcomp.outcome.Session.outputs with
      | Ok [ "ok"; sealed_key; state_blob; mac; _ ] ->
          Alcotest.(check bool) "resume, slice x" true
            (refused (run [ "resume"; sealed_key; state_blob; mac; "x" ]))
      | _ -> Alcotest.fail "malformed start output");
      match Distcomp.resume client step.Distcomp.state ~slice_ms:0.05 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "clean resume: %s" e)

(* The OS rolls the state back (Section 6.2): after two resumes it hands
   the PAL the first step's sealed key, state and MAC again. The state is
   unversioned, so the PAL accepts them; it only redoes the second slice,
   and the unit still ends as it does without the rollback. *)
let test_rollback_redoes_work () =
  let p = make ~seed:"rollback" in
  let unit_ = { Distcomp.unit_id = 9; number = 15015; lo = 2; hi = 130 } in
  let slice_ms = 0.2 in
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  let client = Distcomp.create_client p in
  let step1 = ok (Distcomp.start client unit_ ~slice_ms) in
  let step2 = ok (Distcomp.resume client step1.Distcomp.state ~slice_ms) in
  let step3 = ok (Distcomp.resume client step2.Distcomp.state ~slice_ms) in
  Alcotest.(check bool) "unfinished after three sessions" false
    step3.Distcomp.state.Distcomp.finished;
  let pal = Distcomp.pal () in
  (* one resume session on what the OS hands in; the PAL's reply is what
     the OS stores next *)
  let resume (sealed_key, state_blob, mac) =
    let inputs =
      Flicker_crypto.Util.encode_fields
        [ "resume"; sealed_key; state_blob; mac; Printf.sprintf "%f" slice_ms ]
    in
    match Session.execute p ~pal ~inputs () with
    | Error e -> Alcotest.failf "session: %a" Session.pp_error e
    | Ok outcome -> (
        match Flicker_crypto.Util.decode_fields outcome.Session.outputs with
        | Ok [ "ok"; sealed_key; state_blob; mac; _ ] ->
            ((sealed_key, state_blob, mac), ok (Distcomp.decode_state state_blob))
        | _ -> Alcotest.failf "rolled-back state refused: %s" outcome.Session.outputs)
  in
  let first =
    match Flicker_crypto.Util.decode_fields step1.Distcomp.outcome.Session.outputs with
    | Ok [ "ok"; sealed_key; state_blob; mac; _ ] -> (sealed_key, state_blob, mac)
    | _ -> Alcotest.fail "malformed first step"
  in
  let stored, state = resume first in
  Alcotest.(check string) "the second slice, redone"
    (Distcomp.encode_state step2.Distcomp.state) (Distcomp.encode_state state);
  let rec finish (stored, state) =
    if state.Distcomp.finished then state else finish (resume stored)
  in
  let final, _ = ok (Distcomp.run_to_completion (Distcomp.create_client p) unit_ ~slice_ms) in
  Alcotest.(check string) "same final state" (Distcomp.encode_state final)
    (Distcomp.encode_state (finish (stored, state)))

(* A client session that finds its platform busy rides it out like a
   fleet session: three attempts, two retries, then the busy error. *)
let test_busy_platform_retried () =
  let p = make ~seed:"busy" in
  let client = Distcomp.create_client p in
  let unit_ = { Distcomp.unit_id = 10; number = 91; lo = 2; hi = 20 } in
  Flicker_os.Scheduler.suspend p.Platform.scheduler;
  (match Distcomp.start client unit_ ~slice_ms:0.2 with
  | Error e ->
      Alcotest.(check string) "busy error"
        (Format.asprintf "%a" Session.pp_error
           (Session.os_busy_transient "mid-session: another Flicker session owns the machine"))
        e
  | Ok _ -> Alcotest.fail "ran on a busy platform");
  Alcotest.(check int) "retried" 2
    (Flicker_obs.Metrics.counter p.Platform.machine.Flicker_hw.Machine.metrics
       "session.busy_retries");
  Flicker_os.Scheduler.resume p.Platform.scheduler

let () =
  Alcotest.run "apps-distcomp"
    [
      ( "state",
        [
          Alcotest.test_case "codec" `Quick test_state_codec;
          Alcotest.test_case "codec errors" `Quick test_state_codec_errors;
        ] );
      ( "work",
        [
          Alcotest.test_case "finds real factors" `Quick test_finds_real_factors;
          Alcotest.test_case "single session" `Quick test_single_session_completion;
          Alcotest.test_case "honest resume" `Quick test_honest_resume_continues;
          Alcotest.test_case "resume finished" `Quick test_resume_finished_raises;
          Alcotest.test_case "results extended" `Quick test_results_extended_into_pcr;
          Alcotest.test_case "busy platform retried" `Quick test_busy_platform_retried;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "MAC tamper detected" `Quick test_mac_tamper_detected;
          Alcotest.test_case "malformed slice refused" `Quick test_malformed_slice_refused;
          Alcotest.test_case "rollback only redoes work" `Quick test_rollback_redoes_work;
        ] );
      ( "efficiency",
        [
          Alcotest.test_case "overhead = skinit+unseal" `Quick test_overhead_dominated_by_unseal;
          Alcotest.test_case "table 4" `Quick test_efficiency_table4;
          Alcotest.test_case "figure 8" `Quick test_efficiency_figure8;
        ] );
    ]
