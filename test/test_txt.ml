(* Intel TXT (GETSEC[SENTER]) support: the two-stage ACM + MLE
   measurement, full sessions over TXT, and attestation that binds the
   SINIT ACM identity. *)

open Flicker_crypto
open Flicker_core
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Machine = Flicker_hw.Machine
module Memory = Flicker_hw.Memory
module Apic = Flicker_hw.Apic
module Skinit = Flicker_hw.Skinit
module Timing = Flicker_hw.Timing
module Tpm = Flicker_tpm.Tpm
module Privacy_ca = Flicker_tpm.Privacy_ca

let ca = Privacy_ca.create (Prng.create ~seed:"txt-ca") ~name:"TxtCA" ~key_bits:512
let ca_key = Privacy_ca.public_key ca
let make_platform ~seed = Platform.create ~seed ~key_bits:512 ~ca ()

let worker =
  Pal.define ~name:"txt-worker" (fun env ->
      Pal_env.set_output env ("txt:" ^ env.Pal_env.inputs))

(* --- raw SENTER semantics --- *)

let machine_with_tpm () =
  let m = Machine.create ~memory_size:(1024 * 1024) Timing.default in
  let tpm = Tpm.create m (Prng.create ~seed:"txt-hw") ~key_bits:512 in
  Machine.set_tpm_hooks m (Tpm.skinit_hooks tpm);
  (m, tpm)

let write_mle m ~addr ~len =
  Memory.write_u16_le m.Machine.memory addr len;
  Memory.write_u16_le m.Machine.memory (addr + 2) 4;
  Memory.write m.Machine.memory ~addr:(addr + 4) (String.make (len - 4) 'M')

let park m =
  Apic.deschedule_aps m;
  Apic.send_init_ipi m

let test_senter_measurement_chain () =
  let m, tpm = machine_with_tpm () in
  write_mle m ~addr:0x10000 ~len:1000;
  park m;
  let launch = Skinit.execute ~acm:(Skinit.default_acm ()) m ~slb_base:0x10000 in
  (* PCR 17 = extend(extend(0, H(ACM)), H(MLE)); the launch record
     carries the MLE's link *)
  let mle = Memory.read m.Machine.memory ~addr:0x10000 ~len:1000 in
  Alcotest.(check string) "mle measurement" (Sha1.digest mle)
    launch.Skinit.measurement;
  let expected =
    Sha1.digest
      (Sha1.digest (String.make 20 '\000' ^ Sha1.digest (Skinit.default_acm ()))
      ^ Sha1.digest mle)
  in
  Alcotest.(check string) "pcr17 chain" expected (Result.get_ok (Tpm.pcr_read tpm 17));
  (* protections up, as with SKINIT *)
  Alcotest.(check bool) "DMA blocked" false
    (Flicker_hw.Dev.allows m.Machine.dev ~addr:0x10000 ~len:65536);
  Skinit.teardown_dev m launch;
  Alcotest.(check bool) "DMA restored" true
    (Flicker_hw.Dev.allows m.Machine.dev ~addr:0x10000 ~len:65536)

let test_senter_differs_from_skinit () =
  (* the same MLE bytes launched by the two technologies give different
     PCR 17 values: the ACM link is visible to verifiers *)
  let m1, tpm1 = machine_with_tpm () in
  write_mle m1 ~addr:0x10000 ~len:500;
  park m1;
  ignore (Skinit.execute ~acm:(Skinit.default_acm ()) m1 ~slb_base:0x10000);
  let m2, tpm2 = machine_with_tpm () in
  write_mle m2 ~addr:0x10000 ~len:500;
  park m2;
  ignore (Skinit.execute m2 ~slb_base:0x10000);
  Alcotest.(check bool) "chains differ" true
    (Result.get_ok (Tpm.pcr_read tpm1 17) <> Result.get_ok (Tpm.pcr_read tpm2 17))

let test_senter_preconditions () =
  let m, _ = machine_with_tpm () in
  write_mle m ~addr:0x10000 ~len:500;
  (* busy APs *)
  (match Skinit.execute ~acm:(Skinit.default_acm ()) m ~slb_base:0x10000 with
  | _ -> Alcotest.fail "busy APs accepted"
  | exception Skinit.Skinit_error _ -> ());
  park m;
  (* empty ACM *)
  match Skinit.execute ~acm:"" m ~slb_base:0x10000 with
  | _ -> Alcotest.fail "empty ACM accepted"
  | exception Skinit.Skinit_error _ -> ()

(* --- sessions over TXT --- *)

let test_txt_session () =
  let p = make_platform ~seed:"txt-session" in
  let tech = Session.Txt { acm = Skinit.default_acm () } in
  match Session.execute p ~pal:worker ~tech ~inputs:"hello" () with
  | Error e -> Alcotest.failf "session: %a" Session.pp_error e
  | Ok outcome ->
      Alcotest.(check string) "outputs" "txt:hello" outcome.Session.outputs;
      (* the during-value includes the ACM link *)
      let image = Flicker_slb.Builder.build ~flavor:Flicker_slb.Builder.Optimized worker in
      Alcotest.(check string) "pcr17 during"
        (Measurement.after_launch ~acm:(Skinit.default_acm ()) image
           ~slb_base:p.Platform.slb_base)
        outcome.Session.pcr17_during;
      Alcotest.(check bool) "differs from svm chain" true
        (outcome.Session.pcr17_during
        <> Measurement.after_launch image ~slb_base:p.Platform.slb_base)

(* SENTER sends the TPM the ACM and then the MLE, so the slice it
   measured last is never the next stage's: back-to-back TXT sessions
   each measure both stages and end at the same launch value. *)
let test_txt_sessions_in_a_row () =
  let p = make_platform ~seed:"txt-twice" in
  let tech = Session.Txt { acm = Skinit.default_acm () } in
  let image = Flicker_slb.Builder.build ~flavor:Flicker_slb.Builder.Optimized worker in
  let expected =
    Measurement.after_launch ~acm:(Skinit.default_acm ()) image ~slb_base:p.Platform.slb_base
  in
  for i = 1 to 2 do
    match Session.execute p ~pal:worker ~tech ~inputs:"again" () with
    | Error e -> Alcotest.failf "session %d: %a" i Session.pp_error e
    | Ok outcome ->
        Alcotest.(check string)
          (Printf.sprintf "session %d pcr17 during" i)
          expected outcome.Session.pcr17_during
  done

let test_txt_attestation () =
  let p = make_platform ~seed:"txt-attest" in
  let nonce = Platform.fresh_nonce p in
  let tech = Session.Txt { acm = Skinit.default_acm () } in
  match Session.execute p ~pal:worker ~tech ~inputs:"x" ~nonce () with
  | Error e -> Alcotest.failf "session: %a" Session.pp_error e
  | Ok outcome -> (
      let evidence =
        Attestation.generate p ~nonce ~inputs:"x" ~outputs:outcome.Session.outputs
      in
      (* a TXT-aware expectation verifies *)
      let good =
        Verifier.expect ~pal:worker ~acm:(Skinit.default_acm ())
          ~slb_base:p.Platform.slb_base ~nonce ()
      in
      (match Verifier.verify ~ca_key good evidence with
      | Ok () -> ()
      | Error f -> Alcotest.fail (Verifier.failure_to_string f));
      (* expecting an SVM launch fails: the technology is attested *)
      let svm_expect = Verifier.expect ~pal:worker ~slb_base:p.Platform.slb_base ~nonce () in
      (match Verifier.verify ~ca_key svm_expect evidence with
      | Error (Verifier.Pcr_mismatch _) -> ()
      | _ -> Alcotest.fail "svm expectation accepted a txt launch");
      (* and a different (e.g. outdated, vulnerable) ACM fails too *)
      let wrong_acm =
        Verifier.expect ~pal:worker ~acm:"old-sinit-with-known-cve"
          ~slb_base:p.Platform.slb_base ~nonce ()
      in
      match Verifier.verify ~ca_key wrong_acm evidence with
      | Error (Verifier.Pcr_mismatch _) -> ()
      | _ -> Alcotest.fail "wrong ACM accepted")

let test_txt_sealing_is_tech_specific () =
  (* data sealed inside a TXT session of a PAL is not available to an SVM
     session of the same PAL: the launch chain is part of the identity *)
  let sealer =
    Pal.define ~name:"txt-sealer" ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities ]
      (fun env ->
        match Util.decode_fields env.Pal_env.inputs with
        | Ok [ "seal" ] -> (
            match Sealing.seal_for_self env "txt secret" with
            | Ok blob -> Pal_env.set_output env blob
            | Error e -> Pal_env.set_output env ("ERROR: " ^ e))
        | Ok [ "unseal"; blob ] -> (
            match Sealing.unseal env blob with
            | Ok d -> Pal_env.set_output env ("got:" ^ d)
            | Error e -> Pal_env.set_output env ("denied:" ^ e))
        | Ok _ | Error _ -> Pal_env.set_output env "ERROR: mode")
  in
  let p = make_platform ~seed:"txt-seal" in
  let tech = Session.Txt { acm = Skinit.default_acm () } in
  let blob =
    match Session.execute p ~pal:sealer ~tech ~inputs:(Util.encode_fields [ "seal" ]) () with
    | Ok o -> o.Session.outputs
    | Error e -> Alcotest.failf "seal session: %a" Session.pp_error e
  in
  (* SVM session of the same PAL: denied *)
  (match
     Session.execute p ~pal:sealer ~inputs:(Util.encode_fields [ "unseal"; blob ]) ()
   with
  | Ok o ->
      Alcotest.(check bool) "svm denied" true
        (String.length o.Session.outputs >= 6
        && String.sub o.Session.outputs 0 6 = "denied")
  | Error e -> Alcotest.failf "svm session: %a" Session.pp_error e);
  (* TXT session with the same ACM: allowed *)
  match
    Session.execute p ~pal:sealer ~tech ~inputs:(Util.encode_fields [ "unseal"; blob ]) ()
  with
  | Ok o -> Alcotest.(check string) "txt allowed" "got:txt secret" o.Session.outputs
  | Error e -> Alcotest.failf "txt session: %a" Session.pp_error e

let test_txt_timing () =
  (* the ACM transfer adds measurable SKINIT-phase latency *)
  let p = make_platform ~seed:"txt-time" in
  let svm =
    match Session.execute p ~pal:worker () with
    | Ok o -> o
    | Error e -> Alcotest.failf "%a" Session.pp_error e
  in
  let txt =
    match Session.execute p ~pal:worker ~tech:(Session.Txt { acm = Skinit.default_acm () }) () with
    | Ok o -> o
    | Error e -> Alcotest.failf "%a" Session.pp_error e
  in
  Alcotest.(check bool) "txt launch slower (acm transfer)" true
    (Session.phase_ms txt Session.Skinit > Session.phase_ms svm Session.Skinit)

let () =
  Alcotest.run "txt"
    [
      ( "senter",
        [
          Alcotest.test_case "measurement chain" `Quick test_senter_measurement_chain;
          Alcotest.test_case "differs from skinit" `Quick test_senter_differs_from_skinit;
          Alcotest.test_case "preconditions" `Quick test_senter_preconditions;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "txt session" `Quick test_txt_session;
          Alcotest.test_case "txt sessions in a row" `Quick test_txt_sessions_in_a_row;
          Alcotest.test_case "txt attestation" `Quick test_txt_attestation;
          Alcotest.test_case "tech-specific sealing" `Quick test_txt_sealing_is_tech_specific;
          Alcotest.test_case "timing" `Quick test_txt_timing;
        ] );
    ]
