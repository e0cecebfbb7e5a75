open Flicker_crypto
open Flicker_core
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Builder = Flicker_slb.Builder
module Privacy_ca = Flicker_tpm.Privacy_ca
module Tpm = Flicker_tpm.Tpm

let ca = Privacy_ca.create (Prng.create ~seed:"attest-ca") ~name:"AttestCA" ~key_bits:512
let ca_key = Privacy_ca.public_key ca
let make_platform ~seed = Platform.create ~seed ~key_bits:512 ~ca ()

let worker =
  Pal.define ~name:"attest-worker" (fun env ->
      Pal_env.set_output env ("result:" ^ env.Pal_env.inputs))

let run_and_attest platform ~inputs =
  let nonce = Platform.fresh_nonce platform in
  match Session.execute platform ~pal:worker ~inputs ~nonce () with
  | Error e -> Alcotest.failf "session: %a" Session.pp_error e
  | Ok outcome ->
      let evidence =
        Attestation.generate platform ~nonce ~inputs ~outputs:outcome.Session.outputs
      in
      let expectation =
        Verifier.expect ~pal:worker ~slb_base:platform.Platform.slb_base ~nonce ()
      in
      (outcome, evidence, expectation)

let test_accepts_honest_run () =
  let p = make_platform ~seed:"honest" in
  let _, evidence, expectation = run_and_attest p ~inputs:"data" in
  match Verifier.verify ~ca_key expectation evidence with
  | Ok () -> ()
  | Error f -> Alcotest.fail (Verifier.failure_to_string f)

let test_rejects_tampered_outputs () =
  let p = make_platform ~seed:"tamper-out" in
  let _, evidence, expectation = run_and_attest p ~inputs:"data" in
  let evil = Attestation.tamper_outputs evidence "result:forged" in
  match Verifier.verify ~ca_key expectation evil with
  | Error (Verifier.Pcr_mismatch _) -> ()
  | Error f -> Alcotest.fail ("wrong failure: " ^ Verifier.failure_to_string f)
  | Ok () -> Alcotest.fail "tampered outputs accepted"

let test_rejects_tampered_inputs () =
  let p = make_platform ~seed:"tamper-in" in
  let _, evidence, expectation = run_and_attest p ~inputs:"data" in
  let evil = { evidence with Attestation.claimed_inputs = "other" } in
  match Verifier.verify ~ca_key expectation evil with
  | Error (Verifier.Pcr_mismatch _) -> ()
  | Error f -> Alcotest.fail ("wrong failure: " ^ Verifier.failure_to_string f)
  | Ok () -> Alcotest.fail "tampered inputs accepted"

let test_rejects_wrong_nonce () =
  let p = make_platform ~seed:"nonce" in
  let _, evidence, expectation = run_and_attest p ~inputs:"x" in
  let expectation = { expectation with Verifier.nonce = String.make 20 'Z' } in
  match Verifier.verify ~ca_key expectation evidence with
  | Error Verifier.Nonce_mismatch -> ()
  | Error f -> Alcotest.fail ("wrong failure: " ^ Verifier.failure_to_string f)
  | Ok () -> Alcotest.fail "stale nonce accepted"

let test_rejects_wrong_pal_expectation () =
  (* the verifier expected a different PAL: the quote cannot match *)
  let p = make_platform ~seed:"wrong-pal" in
  let _, evidence, expectation = run_and_attest p ~inputs:"x" in
  let decoy = Pal.define ~name:"attest-decoy" (fun env -> Pal_env.set_output env "") in
  let expectation = { expectation with Verifier.pal = decoy } in
  match Verifier.verify ~ca_key expectation evidence with
  | Error (Verifier.Pcr_mismatch _) -> ()
  | Error f -> Alcotest.fail ("wrong failure: " ^ Verifier.failure_to_string f)
  | Ok () -> Alcotest.fail "wrong PAL accepted"

let test_rejects_wrong_flavor () =
  let p = make_platform ~seed:"flavor" in
  let _, evidence, expectation = run_and_attest p ~inputs:"x" in
  let expectation = { expectation with Verifier.flavor = Builder.Standard } in
  match Verifier.verify ~ca_key expectation evidence with
  | Error (Verifier.Pcr_mismatch _) -> ()
  | Error f -> Alcotest.fail ("wrong failure: " ^ Verifier.failure_to_string f)
  | Ok () -> Alcotest.fail "wrong flavor accepted"

let test_rejects_untrusted_ca () =
  let p = make_platform ~seed:"untrusted-ca" in
  let _, evidence, expectation = run_and_attest p ~inputs:"x" in
  let other = Privacy_ca.create (Prng.create ~seed:"rogue") ~name:"RogueCA" ~key_bits:512 in
  match Verifier.verify ~ca_key:(Privacy_ca.public_key other) expectation evidence with
  | Error Verifier.Bad_certificate -> ()
  | Error f -> Alcotest.fail ("wrong failure: " ^ Verifier.failure_to_string f)
  | Ok () -> Alcotest.fail "untrusted CA accepted"

let test_rejects_forged_quote () =
  let p = make_platform ~seed:"forge" in
  let _, evidence, expectation = run_and_attest p ~inputs:"x" in
  let forged_sig = String.make (String.length evidence.Attestation.quote.Tpm.signature) '\x42' in
  let evil =
    {
      evidence with
      Attestation.quote = { evidence.Attestation.quote with Tpm.signature = forged_sig };
    }
  in
  match Verifier.verify ~ca_key expectation evil with
  | Error Verifier.Bad_signature -> ()
  | Error f -> Alcotest.fail ("wrong failure: " ^ Verifier.failure_to_string f)
  | Ok () -> Alcotest.fail "forged signature accepted"

let test_rejects_post_session_pcr_games () =
  (* after the cap extend, the OS can extend PCR 17 all it likes: the
     quote then stops matching any honest expectation *)
  let p = make_platform ~seed:"post-games" in
  let nonce = Platform.fresh_nonce p in
  (match Session.execute p ~pal:worker ~inputs:"x" ~nonce () with
  | Error e -> Alcotest.failf "session: %a" Session.pp_error e
  | Ok outcome ->
      ignore (Tpm.pcr_extend p.Platform.tpm 17 (Sha1.digest "malicious extend"));
      let evidence =
        Attestation.generate p ~nonce ~inputs:"x" ~outputs:outcome.Session.outputs
      in
      let expectation =
        Verifier.expect ~pal:worker ~slb_base:p.Platform.slb_base ~nonce ()
      in
      (match Verifier.verify ~ca_key expectation evidence with
      | Error (Verifier.Pcr_mismatch _) -> ()
      | Error f -> Alcotest.fail ("wrong failure: " ^ Verifier.failure_to_string f)
      | Ok () -> Alcotest.fail "post-session extend accepted"))

let test_quote_without_session () =
  (* quoting PCR 17 at its reboot value matches no PAL expectation *)
  let p = make_platform ~seed:"no-session" in
  let nonce = Platform.fresh_nonce p in
  let evidence = Attestation.generate p ~nonce ~inputs:"" ~outputs:"" in
  let expectation =
    Verifier.expect ~pal:worker ~slb_base:p.Platform.slb_base ~nonce ()
  in
  match Verifier.verify ~ca_key expectation evidence with
  | Error (Verifier.Pcr_mismatch _) -> ()
  | Error f -> Alcotest.fail ("wrong failure: " ^ Verifier.failure_to_string f)
  | Ok () -> Alcotest.fail "no-session quote accepted"

(* --- sealed storage across sessions ---

   The same-PAL case is modelled directly: one PAL whose behaviour seals
   under one input mode and unseals under another, so both sessions carry
   the identical measurement. *)
let stateful =
  Pal.define ~name:"attest-stateful" ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities ]
    (fun env ->
      match Util.decode_fields env.Pal_env.inputs with
      | Ok [ "seal"; data ] -> (
          match Sealing.seal_for_self env data with
          | Ok blob -> Pal_env.set_output env (Util.encode_fields [ "blob"; blob ])
          | Error e -> Pal_env.set_output env ("ERROR: " ^ e))
      | Ok [ "unseal"; blob ] -> (
          match Sealing.unseal env blob with
          | Ok data -> Pal_env.set_output env (Util.encode_fields [ "data"; data ])
          | Error e -> Pal_env.set_output env ("ERROR: " ^ e))
      | Ok _ | Error _ -> Pal_env.set_output env "ERROR: bad mode")

let run_stateful p fields =
  match Session.execute p ~pal:stateful ~inputs:(Util.encode_fields fields) () with
  | Error e -> Alcotest.failf "session: %a" Session.pp_error e
  | Ok outcome -> outcome.Session.outputs

let test_stateful_seal_unseal () =
  let p = make_platform ~seed:"stateful" in
  let out = run_stateful p [ "seal"; "the crown jewels" ] in
  match Util.decode_fields out with
  | Ok [ "blob"; blob ] -> (
      let out2 = run_stateful p [ "unseal"; blob ] in
      match Util.decode_fields out2 with
      | Ok [ "data"; data ] -> Alcotest.(check string) "recovered" "the crown jewels" data
      | _ -> Alcotest.fail ("unseal failed: " ^ out2))
  | _ -> Alcotest.fail ("seal failed: " ^ out)

let test_sealed_blob_unavailable_to_other_pal () =
  let p = make_platform ~seed:"cross-pal" in
  let out = run_stateful p [ "seal"; "for my eyes only" ] in
  match Util.decode_fields out with
  | Ok [ "blob"; blob ] -> (
      (* a different PAL tries to unseal the blob *)
      let thief =
        Pal.define ~name:"attest-thief" ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities ]
          (fun env ->
            match Sealing.unseal env env.Pal_env.inputs with
            | Ok data -> Pal_env.set_output env ("STOLEN: " ^ data)
            | Error e -> Pal_env.set_output env ("denied: " ^ e))
      in
      match Session.execute p ~pal:thief ~inputs:blob () with
      | Error e -> Alcotest.failf "thief session: %a" Session.pp_error e
      | Ok outcome ->
          Alcotest.(check bool) "unseal denied" true
            (String.length outcome.Session.outputs >= 6
            && String.sub outcome.Session.outputs 0 6 = "denied"))
  | _ -> Alcotest.fail ("seal failed: " ^ out)

let test_sealed_blob_unavailable_to_os () =
  (* the OS (outside any session, PCR 17 capped) cannot unseal *)
  let p = make_platform ~seed:"os-unseal" in
  let out = run_stateful p [ "seal"; "os cannot read this" ] in
  match Util.decode_fields out with
  | Ok [ "blob"; blob ] -> (
      let rng = Platform.fork_rng p ~label:"os-attacker" in
      match Flicker_slb.Mod_tpm_utils.unseal p.Platform.tpm ~rng blob with
      | Error Flicker_tpm.Tpm_types.Wrong_pcr_value -> ()
      | Error e -> Alcotest.fail ("wrong error: " ^ Flicker_tpm.Tpm_types.error_to_string e)
      | Ok _ -> Alcotest.fail "OS unsealed PAL data")
  | _ -> Alcotest.fail ("seal failed: " ^ out)

(* --- cross-PAL sealed handoff: P seals for P' (Section 4.3.1) --- *)

(* The receiving PAL P' must exist before P can compute its measurement;
   P is parameterized by P'-s identity: the PCR 17 value a session of P'
   produces. *)
let receiver_pal =
  Pal.define ~name:"attest-handoff-receiver"
    ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities ]
    (fun env ->
      match Sealing.unseal env env.Pal_env.inputs with
      | Ok data -> Pal_env.set_output env ("received:" ^ data)
      | Error e -> Pal_env.set_output env ("denied:" ^ e))

let sender_platform = make_platform ~seed:"handoff"

let sender_pal =
  Pal.define ~name:"attest-handoff-sender"
    ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities ]
    (fun env ->
      let pcr17 =
        Measurement.after_launch
          (Builder.build ~flavor:Builder.Optimized receiver_pal)
          ~slb_base:sender_platform.Platform.slb_base
      in
      match Sealing.seal_to_pcr17 env ~pcr17 "the handoff payload" with
      | Ok blob -> Pal_env.set_output env blob
      | Error e -> Pal_env.set_output env ("ERROR: " ^ e))

let test_cross_pal_handoff () =
  let p = sender_platform in
  let blob =
    match Session.execute p ~pal:sender_pal () with
    | Ok o -> o.Session.outputs
    | Error e -> Alcotest.failf "sender session: %a" Session.pp_error e
  in
  Alcotest.(check bool) "sealed" true (String.length blob > 40);
  (* the sender itself can NOT read it back: it was sealed for P' *)
  let greedy_sender =
    Pal.define ~name:"attest-handoff-sender-readback"
      ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities ]
      (fun env ->
        match Sealing.unseal env env.Pal_env.inputs with
        | Ok d -> Pal_env.set_output env ("leak:" ^ d)
        | Error e -> Pal_env.set_output env ("denied:" ^ e))
  in
  (match Session.execute p ~pal:greedy_sender ~inputs:blob () with
  | Ok o ->
      Alcotest.(check bool) "other pal denied" true
        (String.length o.Session.outputs >= 6
        && String.sub o.Session.outputs 0 6 = "denied")
  | Error e -> Alcotest.failf "readback session: %a" Session.pp_error e);
  (* the designated receiver can *)
  match Session.execute p ~pal:receiver_pal ~inputs:blob () with
  | Ok o ->
      Alcotest.(check string) "receiver unseals" "received:the handoff payload"
        o.Session.outputs
  | Error e -> Alcotest.failf "receiver session: %a" Session.pp_error e

(* --- secure channel --- *)

let test_secure_channel_end_to_end () =
  let p = make_platform ~seed:"channel" in
  let nonce = Platform.fresh_nonce p in
  match Secure_channel.establish p ~pal:(Secure_channel.setup_pal ~key_bits:512) ~nonce () with
  | Error e -> Alcotest.fail e
  | Ok established -> (
      match
        Secure_channel.client_accept ~ca_key ~pal:(Secure_channel.setup_pal ~key_bits:512)
          ~slb_base:p.Platform.slb_base ~nonce established.Secure_channel.evidence
      with
      | Error e -> Alcotest.fail e
      | Ok pub ->
          Alcotest.(check bool) "key matches" true
            (Bignum.equal pub.Rsa.n established.Secure_channel.public_key.Rsa.n);
          let rng = Prng.create ~seed:"remote-party" in
          let ct = Pkcs1.encrypt rng pub "shh" in
          Alcotest.(check bool) "ciphertext produced" true (String.length ct > 0))

let test_secure_channel_rejects_substituted_key () =
  (* a MITM OS replaces the attested output with its own key: the quote
     no longer matches *)
  let p = make_platform ~seed:"channel-mitm" in
  let nonce = Platform.fresh_nonce p in
  match Secure_channel.establish p ~pal:(Secure_channel.setup_pal ~key_bits:512) ~nonce () with
  | Error e -> Alcotest.fail e
  | Ok established ->
      let mitm_key = Rsa.generate (Prng.create ~seed:"mitm") ~bits:512 in
      let fake_output =
        Flicker_slb.Mod_secure_channel.encode_setup_output
          {
            Flicker_slb.Mod_secure_channel.public_key = mitm_key.Rsa.pub;
            sealed_private = "junk";
          }
      in
      let evil =
        {
          established with
          Secure_channel.evidence =
            Attestation.tamper_outputs established.Secure_channel.evidence fake_output;
        }
      in
      (match
         Secure_channel.client_accept ~ca_key ~pal:(Secure_channel.setup_pal ~key_bits:512)
           ~slb_base:p.Platform.slb_base ~nonce evil.Secure_channel.evidence
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "substituted key accepted")

(* --- versioned sealed state over a monotonic counter (Section 4.3.2,
   Figure 4); test_extensions runs the same steps over an NV space --- *)

let test_replay_protection () =
  let p = make_platform ~seed:"replay" in
  Versioned_state.protocol p (Versioned_state.counter p)

let test_replay_crash_detection () =
  let p = make_platform ~seed:"replay-crash" in
  Versioned_state.crash p (Versioned_state.counter p)

let () =
  Alcotest.run "attestation"
    [
      ( "verifier",
        [
          Alcotest.test_case "accepts honest run" `Quick test_accepts_honest_run;
          Alcotest.test_case "rejects tampered outputs" `Quick test_rejects_tampered_outputs;
          Alcotest.test_case "rejects tampered inputs" `Quick test_rejects_tampered_inputs;
          Alcotest.test_case "rejects wrong nonce" `Quick test_rejects_wrong_nonce;
          Alcotest.test_case "rejects wrong pal" `Quick test_rejects_wrong_pal_expectation;
          Alcotest.test_case "rejects wrong flavor" `Quick test_rejects_wrong_flavor;
          Alcotest.test_case "rejects untrusted ca" `Quick test_rejects_untrusted_ca;
          Alcotest.test_case "rejects forged quote" `Quick test_rejects_forged_quote;
          Alcotest.test_case "rejects post-session extends" `Quick
            test_rejects_post_session_pcr_games;
          Alcotest.test_case "rejects no-session quote" `Quick test_quote_without_session;
        ] );
      ( "sealed storage",
        [
          Alcotest.test_case "seal/unseal same pal" `Quick test_stateful_seal_unseal;
          Alcotest.test_case "other pal denied" `Quick test_sealed_blob_unavailable_to_other_pal;
          Alcotest.test_case "os denied" `Quick test_sealed_blob_unavailable_to_os;
          Alcotest.test_case "cross-pal handoff" `Quick test_cross_pal_handoff;
        ] );
      ( "secure channel",
        [
          Alcotest.test_case "end to end" `Quick test_secure_channel_end_to_end;
          Alcotest.test_case "mitm key rejected" `Quick
            test_secure_channel_rejects_substituted_key;
        ] );
      ( "replay",
        [
          Alcotest.test_case "figure 4 protocol" `Quick test_replay_protection;
          Alcotest.test_case "crash detection" `Quick test_replay_crash_detection;
        ] );
    ]
