(* The Section 3.1 adversary, attack by attack: each test mounts a real
   attack through the simulator and asserts it fails against Flicker's
   protections — with control conditions showing the same attack
   succeeding when the protection is absent. *)

open Flicker_crypto
open Flicker_core
module Adversary = Flicker_os.Adversary
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Machine = Flicker_hw.Machine
module Tracer = Flicker_obs.Tracer
module Memory = Flicker_hw.Memory
module Dma = Flicker_hw.Dma
module Tpm = Flicker_tpm.Tpm
module Tpm_types = Flicker_tpm.Tpm_types

let make_platform ~seed = Platform.create ~seed ~key_bits:512 ()

let test_memory_scan_after_session () =
  (* a PAL handles a secret; after the session the ring-0 OS scans all of
     physical memory for it *)
  let secret = "CA-PRIVATE-KEY-MATERIAL-1234" in
  let pal =
    Pal.define ~name:"adv-secret-handler" (fun env ->
        Pal_env.write_phys env ~addr:(env.Pal_env.inputs_addr - 8192) secret;
        Pal_env.set_output env "handled")
  in
  let p = make_platform ~seed:"scan" in
  (match Session.execute p ~pal () with
  | Error e -> Alcotest.failf "session: %a" Session.pp_error e
  | Ok _ -> ());
  let report = Adversary.scan_memory p.Platform.machine ~pattern:secret in
  Alcotest.(check bool) "scan finds nothing" false report.Adversary.succeeded

let test_memory_scan_control () =
  (* control: without cleanup, the scan WOULD find the secret *)
  let p = make_platform ~seed:"scan-control" in
  Memory.write p.Platform.machine.Machine.memory ~addr:0x5000 "LEFTOVER-SECRET";
  let report = Adversary.scan_memory p.Platform.machine ~pattern:"LEFTOVER-SECRET" in
  Alcotest.(check bool) "control scan succeeds" true report.Adversary.succeeded

let test_dma_attack_during_session () =
  let p = make_platform ~seed:"dma" in
  let nic = Dma.create p.Platform.machine ~name:"pci-nic" in
  let slb_base = p.Platform.slb_base in
  let attack_results = ref [] in
  let pal =
    Pal.define ~name:"adv-dma-victim" (fun env ->
        (* the malicious device fires mid-session *)
        attack_results :=
          [
            Adversary.dma_read_probe nic ~addr:slb_base ~len:4096 ~pattern:"\x7fSLB";
            Adversary.dma_corrupt nic ~addr:slb_base ~data:"\xde\xad\xbe\xef";
          ];
        Pal_env.set_output env "survived")
  in
  (match Session.execute p ~pal () with
  | Error e -> Alcotest.failf "session: %a" Session.pp_error e
  | Ok outcome -> Alcotest.(check string) "pal survived" "survived" outcome.Session.outputs);
  List.iter
    (fun r -> Alcotest.(check bool) r.Adversary.attack false r.Adversary.succeeded)
    !attack_results;
  (* the DEV recorded blocked attempts *)
  Alcotest.(check int) "attempts logged" 2 (List.length (Dma.attempts nic));
  Alcotest.(check bool) "all blocked" true
    (List.for_all (fun a -> a.Dma.blocked) (Dma.attempts nic))

let test_dma_attack_outside_session () =
  (* control: the same DMA attack against unprotected memory succeeds *)
  let p = make_platform ~seed:"dma-control" in
  let nic = Dma.create p.Platform.machine ~name:"pci-nic" in
  Memory.write p.Platform.machine.Machine.memory ~addr:0x9000 "JUICY-TARGET";
  let read = Adversary.dma_read_probe nic ~addr:0x9000 ~len:12 ~pattern:"JUICY-TARGET" in
  Alcotest.(check bool) "read succeeds outside session" true read.Adversary.succeeded;
  let corrupt = Adversary.dma_corrupt nic ~addr:0x9000 ~data:"PWNED" in
  Alcotest.(check bool) "write succeeds outside session" true corrupt.Adversary.succeeded;
  Alcotest.(check string) "memory modified" "PWNED"
    (Memory.read p.Platform.machine.Machine.memory ~addr:0x9000 ~len:5)

let test_pcr17_forgery () =
  (* the OS knows the target PAL's measurement and tries to recreate its
     post-SKINIT PCR 17 value using software extends *)
  let pal = Pal.define ~name:"adv-forgery-target" (fun env -> Pal_env.set_output env "") in
  let p = make_platform ~seed:"forgery" in
  let image = Flicker_slb.Builder.build pal in
  let target = Measurement.after_launch image ~slb_base:p.Platform.slb_base in
  let measurement = Measurement.of_image image ~slb_base:p.Platform.slb_base in
  let tries =
    [
      measurement; (* the obvious try: extend H(P) from the reboot state *)
      target; (* extend the target itself *)
      Sha1.digest measurement;
      Tpm_types.zero_digest;
    ]
  in
  let report = Adversary.forge_pcr17 p.Platform.tpm ~target ~tries in
  Alcotest.(check bool) "forgery fails" false report.Adversary.succeeded

let test_pcr17_forgery_even_after_sessions () =
  (* between sessions PCR 17 holds the capped value; extends from there
     must never land back on a legitimate during-session value *)
  let pal = Pal.define ~name:"adv-forgery-target2" (fun env -> Pal_env.set_output env "") in
  let p = make_platform ~seed:"forgery2" in
  (match Session.execute p ~pal () with
  | Error e -> Alcotest.failf "session: %a" Session.pp_error e
  | Ok _ -> ());
  let image = Flicker_slb.Builder.build pal in
  let target = Measurement.after_launch image ~slb_base:p.Platform.slb_base in
  let report =
    Adversary.forge_pcr17 p.Platform.tpm ~target
      ~tries:(List.init 32 (fun i -> Sha1.digest (string_of_int i)))
  in
  Alcotest.(check bool) "still unforgeable" false report.Adversary.succeeded

let test_skinit_by_adversary_is_safe () =
  (* the adversary CAN run SKINIT on its own PAL — but that gives it a
     different PCR 17 value, not the victim's, so sealed data stays safe *)
  let victim =
    Pal.define ~name:"adv-victim-sealer" ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities ]
      (fun env ->
        match Sealing.seal_for_self env "victim secret" with
        | Ok blob -> Pal_env.set_output env blob
        | Error e -> Pal_env.set_output env ("ERROR: " ^ e))
  in
  let p = make_platform ~seed:"adv-skinit" in
  let blob =
    match Session.execute p ~pal:victim () with
    | Error e -> Alcotest.failf "victim session: %a" Session.pp_error e
    | Ok outcome -> outcome.Session.outputs
  in
  Alcotest.(check bool) "sealed" true (String.length blob > 40);
  let evil =
    Pal.define ~name:"adv-evil-pal" ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities ]
      (fun env ->
        match Sealing.unseal env env.Pal_env.inputs with
        | Ok data -> Pal_env.set_output env ("STOLEN:" ^ data)
        | Error e -> Pal_env.set_output env ("denied:" ^ e))
  in
  match Session.execute p ~pal:evil ~inputs:blob () with
  | Error e -> Alcotest.failf "evil session: %a" Session.pp_error e
  | Ok outcome ->
      Alcotest.(check bool) "evil PAL denied" true
        (String.length outcome.Session.outputs >= 6
        && String.sub outcome.Session.outputs 0 6 = "denied")

let test_replay_helper () =
  let victim blob = if blob = "fresh" then Ok "accepted" else Error "stale" in
  let r1 = Adversary.replay_ciphertext ~original:"fresh" ~stale:"old" victim in
  Alcotest.(check bool) "stale rejected" false r1.Adversary.succeeded;
  let naive _ = Ok "accepted" in
  let r2 = Adversary.replay_ciphertext ~original:"fresh" ~stale:"old" naive in
  Alcotest.(check bool) "naive victim falls" true r2.Adversary.succeeded

let test_toctou_slb_corruption () =
  (* flip SLB bytes after the flicker-module loads them but before
     SKINIT: the hardware measures the corrupted bytes, so either nothing
     runs or the attestation exposes it *)
  let pal = Pal.define ~name:"adv-toctou" (fun env -> Pal_env.set_output env "ran") in
  let p = make_platform ~seed:"toctou" in
  let honest =
    match Session.execute p ~pal () with
    | Ok o -> o
    | Error e -> Alcotest.failf "honest session: %a" Session.pp_error e
  in
  Session.corrupt_slb_in_memory p;
  (match Session.execute p ~pal () with
  | Error Session.Unknown_pal -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Session.pp_error e
  | Ok outcome ->
      Alcotest.(check bool) "measurement exposes corruption" true
        (outcome.Session.slb_measurement <> honest.Session.slb_measurement));
  (* PCR 17 now holds a value that verifies against no honest PAL *)
  let current = Result.get_ok (Tpm.pcr_read p.Platform.tpm 17) in
  Alcotest.(check bool) "pcr differs from honest final" true
    (current <> honest.Session.pcr17_final)

let test_event_log_records_attacks () =
  let p = make_platform ~seed:"audit" in
  let nic = Dma.create p.Platform.machine ~name:"auditable-nic" in
  let pal =
    Pal.define ~name:"adv-audited" (fun env ->
        ignore (Adversary.dma_corrupt nic ~addr:p.Platform.slb_base ~data:"X");
        Pal_env.set_output env "ok")
  in
  (match Session.execute p ~pal () with
  | Error e -> Alcotest.failf "session: %a" Session.pp_error e
  | Ok _ -> ());
  Alcotest.(check bool) "blocked DMA in audit log" true
    (List.exists
       (fun e ->
         e.Tracer.kind = Tracer.Instant && String.starts_with ~prefix:"dev:" e.Tracer.name)
       (Tracer.events p.Platform.machine.Machine.tracer))

let () =
  Alcotest.run "adversary"
    [
      ( "memory",
        [
          Alcotest.test_case "scan after session" `Quick test_memory_scan_after_session;
          Alcotest.test_case "scan control" `Quick test_memory_scan_control;
        ] );
      ( "dma",
        [
          Alcotest.test_case "attack during session" `Quick test_dma_attack_during_session;
          Alcotest.test_case "attack outside session (control)" `Quick
            test_dma_attack_outside_session;
        ] );
      ( "pcr17",
        [
          Alcotest.test_case "forgery from reboot state" `Quick test_pcr17_forgery;
          Alcotest.test_case "forgery after sessions" `Quick
            test_pcr17_forgery_even_after_sessions;
          Alcotest.test_case "adversarial skinit" `Quick test_skinit_by_adversary_is_safe;
        ] );
      ( "other",
        [
          Alcotest.test_case "replay harness" `Quick test_replay_helper;
          Alcotest.test_case "toctou slb corruption" `Quick test_toctou_slb_corruption;
          Alcotest.test_case "audit log" `Quick test_event_log_records_attacks;
        ] );
    ]
