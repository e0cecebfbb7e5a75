(* QCheck properties over whole-session invariants: for arbitrary inputs,
   outputs, flavors, and launch technologies, a session must restore the
   OS exactly, leave PCR 17 at the predicted value, erase what the PAL
   wrote, and produce attestations that verify iff untampered. *)

open Flicker_crypto
open Flicker_core
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Builder = Flicker_slb.Builder
module Cpu = Flicker_hw.Cpu
module Machine = Flicker_hw.Machine
module Memory = Flicker_hw.Memory
module Privacy_ca = Flicker_tpm.Privacy_ca

let ca = Privacy_ca.create (Prng.create ~seed:"prop-ca") ~name:"PropCA" ~key_bits:512
let ca_key = Privacy_ca.public_key ca
let platform = Platform.create ~seed:"properties" ~key_bits:512 ~ca ()

(* one PAL reused for all properties: echoes a transform of its inputs
   and stashes a copy in scratch memory (so cleanup has work to do) *)
let echo_pal =
  Pal.define ~name:"prop-echo" (fun env ->
      let out = Sha1.digest env.Pal_env.inputs ^ env.Pal_env.inputs in
      let out =
        if String.length out > Flicker_slb.Layout.io_page_size then
          String.sub out 0 Flicker_slb.Layout.io_page_size
        else out
      in
      Pal_env.write_phys env
        ~addr:(env.Pal_env.inputs_addr - 4096)
        (String.sub out 0 (min 64 (String.length out)));
      Pal_env.set_output env out)

let arb_inputs = QCheck.(string_of_size Gen.(int_range 0 1000))

let arb_flavor =
  QCheck.make
    ~print:(function Builder.Standard -> "Standard" | Builder.Optimized -> "Optimized")
    QCheck.Gen.(map (fun b -> if b then Builder.Standard else Builder.Optimized) bool)

let snapshot_cpu () =
  let bsp = Cpu.bsp platform.Platform.machine.Machine.cpus in
  ( bsp.Cpu.ring,
    bsp.Cpu.interrupts_enabled,
    bsp.Cpu.mode,
    bsp.Cpu.paging_enabled,
    List.map (fun (c : Cpu.core) -> c.Cpu.run_state)
      (Cpu.aps platform.Platform.machine.Machine.cpus) )

let run_session ?nonce ~flavor inputs =
  match Session.execute platform ~pal:echo_pal ~flavor ?nonce ~inputs () with
  | Ok o -> o
  | Error e -> Format.kasprintf failwith "%a" Session.pp_error e

let prop_os_state_restored =
  QCheck.Test.make ~name:"sessions restore the OS exactly" ~count:30
    (QCheck.pair arb_inputs arb_flavor) (fun (inputs, flavor) ->
      let before = snapshot_cpu () in
      ignore (run_session ~flavor inputs);
      snapshot_cpu () = before)

let prop_pcr17_predicted =
  QCheck.Test.make ~name:"final PCR 17 always matches the measurement chain" ~count:30
    (QCheck.pair arb_inputs arb_flavor) (fun (inputs, flavor) ->
      let nonce = Platform.fresh_nonce platform in
      let outcome = run_session ~nonce ~flavor inputs in
      let image = Builder.build ~flavor echo_pal in
      outcome.Session.pcr17_final
      = Measurement.final image ~slb_base:platform.Platform.slb_base ~inputs
          ~outputs:outcome.Session.outputs ~nonce:(Some nonce))

let prop_breakdown_sums =
  QCheck.Test.make ~name:"phase breakdown sums to the total" ~count:30 arb_inputs
    (fun inputs ->
      let o = run_session ~flavor:Builder.Optimized inputs in
      let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 o.Session.breakdown in
      Float.abs (sum -. o.Session.total_ms) < 1e-6)

let prop_window_zeroized =
  QCheck.Test.make ~name:"the SLB window is zero after every session" ~count:20
    arb_inputs (fun inputs ->
      ignore (run_session ~flavor:Builder.Optimized inputs);
      let window =
        Memory.read platform.Platform.machine.Machine.memory
          ~addr:platform.Platform.slb_base ~len:Flicker_slb.Layout.slb_size
      in
      String.for_all (fun c -> c = '\000') window)

let prop_attestation_sound =
  QCheck.Test.make ~name:"attestation verifies iff outputs untampered" ~count:20
    (QCheck.pair arb_inputs (QCheck.string_of_size QCheck.Gen.small_nat))
    (fun (inputs, tamper) ->
      let nonce = Platform.fresh_nonce platform in
      let outcome = run_session ~nonce ~flavor:Builder.Optimized inputs in
      let evidence =
        Attestation.generate platform ~nonce ~inputs ~outputs:outcome.Session.outputs
      in
      let expectation =
        Verifier.expect ~pal:echo_pal ~slb_base:platform.Platform.slb_base ~nonce ()
      in
      let honest_ok = Verifier.verify ~ca_key expectation evidence = Ok () in
      let tampered = Attestation.tamper_outputs evidence tamper in
      let tampered_rejected =
        tamper = outcome.Session.outputs
        || Verifier.verify ~ca_key expectation tampered <> Ok ()
      in
      honest_ok && tampered_rejected)

let prop_outputs_deterministic =
  QCheck.Test.make ~name:"same PAL + inputs give same outputs and measurement" ~count:20
    arb_inputs (fun inputs ->
      let a = run_session ~flavor:Builder.Optimized inputs in
      let b = run_session ~flavor:Builder.Optimized inputs in
      a.Session.outputs = b.Session.outputs
      && a.Session.pcr17_during = b.Session.pcr17_during)

let prop_seal_binds_to_pal =
  (* arbitrary data sealed inside a session unseals in a later session of
     the same PAL and nowhere else *)
  let blob_box = ref "" in
  let sealer =
    Pal.define ~name:"prop-sealer" ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities ]
      (fun env ->
        match Util.decode_fields env.Pal_env.inputs with
        | Ok [ "seal"; data ] -> (
            match Sealing.seal_for_self env data with
            | Ok blob ->
                blob_box := blob;
                Pal_env.set_output env "sealed"
            | Error e -> Pal_env.set_output env ("ERROR: " ^ e))
        | Ok [ "unseal" ] -> (
            match Sealing.unseal env !blob_box with
            | Ok d -> Pal_env.set_output env d
            | Error e -> Pal_env.set_output env ("ERROR: " ^ e))
        | Ok _ | Error _ -> Pal_env.set_output env "ERROR: mode")
  in
  QCheck.Test.make ~name:"sealed data roundtrips through sessions" ~count:15
    (QCheck.string_of_size QCheck.Gen.(int_range 0 500))
    (fun data ->
      QCheck.assume (String.length (Util.encode_fields [ "seal"; data ]) <= 4096);
      let seal_out =
        match
          Session.execute platform ~pal:sealer
            ~inputs:(Util.encode_fields [ "seal"; data ]) ()
        with
        | Ok o -> o.Session.outputs
        | Error _ -> "session-error"
      in
      let unseal_out =
        match
          Session.execute platform ~pal:sealer
            ~inputs:(Util.encode_fields [ "unseal" ]) ()
        with
        | Ok o -> o.Session.outputs
        | Error _ -> "session-error"
      in
      seal_out = "sealed" && unseal_out = data)

let prop_measurement_memo_transparent =
  (* each image's measurement memo slot must be invisible: for random
     PAL bodies, flavors, load addresses, and ACM choices, the memoized
     path equals the unmemoized reference computed straight from
     Builder.initialize + Sha1.digest *)
  let arb_body = QCheck.string_of_size QCheck.Gen.(int_range 0 300) in
  let arb_base = QCheck.make QCheck.Gen.(map (fun k -> 0x10000 * (k + 1)) (int_range 0 30)) in
  QCheck.Test.make ~name:"measurement memoization is transparent" ~count:40
    (QCheck.quad arb_body arb_flavor arb_base QCheck.bool)
    (fun (body, flavor, slb_base, with_acm) ->
      let pal =
        Pal.define ~name:("memo-" ^ Sha1.hex body) (fun env ->
            Pal_env.set_output env body)
      in
      let image = Builder.build ~flavor pal in
      let reference_bytes = Builder.initialize image ~slb_base in
      let reference_measured =
        Sha1.digest (String.sub reference_bytes 0 image.Builder.measured_length)
      in
      let acm = if with_acm then Some "acm-code" else None in
      let reference_launch =
        let start =
          match acm with
          | None -> Flicker_tpm.Tpm_types.zero_digest
          | Some a ->
              Sha1.digest (Flicker_tpm.Tpm_types.zero_digest ^ Sha1.digest a)
        in
        let v = Sha1.digest (start ^ reference_measured) in
        match flavor with
        | Builder.Standard -> v
        | Builder.Optimized -> Sha1.digest (v ^ Sha1.digest reference_bytes)
      in
      (* run each memoized accessor twice: once cold, once from the slot *)
      let twice f = f () = f () && f () = f () in
      Measurement.initialized image ~slb_base = reference_bytes
      && twice (fun () -> Measurement.initialized image ~slb_base)
      && Measurement.of_image image ~slb_base = reference_measured
      && Measurement.window_hash image ~slb_base = Sha1.digest reference_bytes
      && Measurement.after_launch ?acm image ~slb_base = reference_launch
      (* a different load address misses the slot and re-derives *)
      && Measurement.of_image image ~slb_base:(slb_base + 0x10000)
         = Sha1.digest
             (String.sub
                (Builder.initialize image ~slb_base:(slb_base + 0x10000))
                0 image.Builder.measured_length))

let test_measurement_cache_invalidation () =
  let pal = Pal.define ~name:"memo-invalidate" (fun env -> Pal_env.set_output env "x") in
  let image = Builder.build ~flavor:Builder.Optimized pal in
  let hits0, misses0 = Measurement.cache_stats () in
  (* hits and misses since this test began *)
  let stats () =
    let hits, misses = Measurement.cache_stats () in
    (hits - hits0, misses - misses0)
  in
  let reference slb_base =
    Sha1.digest
      (String.sub (Builder.initialize image ~slb_base) 0 image.Builder.measured_length)
  in
  let d1 = Measurement.of_image image ~slb_base:0x100000 in
  Alcotest.(check (pair int int)) "first lookup misses" (0, 1) (stats ());
  let d1' = Measurement.of_image image ~slb_base:0x100000 in
  Alcotest.(check bool) "hit returns same digest" true (d1 = d1');
  Alcotest.(check (pair int int)) "second lookup hits" (1, 1) (stats ());
  (* changing slb_base misses the slot and re-derives a different digest
     (the patched entry point differs) *)
  let d2 = Measurement.of_image image ~slb_base:0x200000 in
  Alcotest.(check (pair int int)) "new base misses" (1, 2) (stats ());
  Alcotest.(check bool) "new base re-derives" true (d2 = reference 0x200000 && d2 <> d1);
  (* the slot now holds the new base, so the first one misses again and
     re-derives the same digest *)
  let d1'' = Measurement.of_image image ~slb_base:0x100000 in
  Alcotest.(check (pair int int)) "old base misses again" (1, 3) (stats ());
  Alcotest.(check bool) "old base digest unchanged" true (d1'' = d1 && d1 = reference 0x100000)

let () =
  Alcotest.run "session-properties"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_os_state_restored;
            prop_pcr17_predicted;
            prop_breakdown_sums;
            prop_window_zeroized;
            prop_attestation_sound;
            prop_outputs_deterministic;
            prop_seal_binds_to_pal;
            prop_measurement_memo_transparent;
          ] );
      ( "measurement-cache",
        [
          Alcotest.test_case "invalidation on slb_base change" `Quick
            test_measurement_cache_invalidation;
        ] );
    ]
