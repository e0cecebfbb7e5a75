(* Quickstart: the paper's Section 5.1.1 "Hello, world" PAL.

   Builds a platform (simulated SVM machine + TPM v1.2 + untrusted OS),
   defines a minimal PAL, runs one Flicker session through the
   flicker-module's sysfs interface, and verifies the attestation the way
   a remote party would.

     dune exec examples/quickstart.exe *)

open Flicker_core
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Privacy_ca = Flicker_tpm.Privacy_ca
module Prng = Flicker_crypto.Prng

let () =
  (* A Privacy CA the verifier trusts; the platform's AIK is certified
     against it at manufacture time. *)
  let ca = Privacy_ca.create (Prng.create ~seed:"quickstart-ca") ~name:"DemoCA" ~key_bits:1024 in
  let platform = Platform.create ~seed:"quickstart" ~key_bits:1024 ~ca () in

  (* The PAL from Figure 5: ignore the inputs, write "Hello, world" to
     PAL_OUT. In the real system this is C linked against the SLB Core;
     here it is a behaviour paired with deterministic code bytes. *)
  let hello =
    Pal.define ~name:"hello-world" (fun env -> Pal_env.set_output env "Hello, world")
  in

  (* The remote verifier sends a fresh nonce. *)
  let nonce = Platform.fresh_nonce platform in

  (* One Flicker session: suspend OS -> SKINIT -> SLB Core -> PAL ->
     cleanup -> PCR extends -> resume OS. *)
  (match Session.call platform ~pal:hello ~nonce () with
  | Error e -> print_endline ("session failed: " ^ e)
  | Ok outcome ->
      Printf.printf "PAL output (via sysfs 'outputs'): %S\n"
        (Flicker_os.Sysfs.read_exn platform.Platform.sysfs ~path:"outputs");
      Printf.printf "session took %.2f ms of simulated time:\n" outcome.Session.total_ms;
      List.iter
        (fun (phase, phase_ms) ->
          Printf.printf "  %-14s %8.3f ms\n" (Session.phase_name phase) phase_ms)
        outcome.Session.breakdown;

      (* The OS-side quote daemon produces the attestation... *)
      let evidence =
        Attestation.generate platform ~nonce ~inputs:"" ~outputs:outcome.Session.outputs
      in
      (* ...and the remote party checks the whole chain: AIK certificate,
         quote signature, nonce freshness, and the PCR 17 value only a
         genuine SKINIT launch of exactly this PAL could produce. *)
      let expectation =
        Verifier.expect ~pal:hello ~slb_base:platform.Platform.slb_base ~nonce ()
      in
      (match Verifier.verify ~ca_key:(Privacy_ca.public_key ca) expectation evidence with
      | Ok () -> print_endline "attestation: VERIFIED (the PAL really ran under Flicker)"
      | Error f -> Printf.printf "attestation failed: %s\n" (Verifier.failure_to_string f));

      (* And if the OS lies about the output, verification fails. *)
      let tampered = Attestation.tamper_outputs evidence "Hello, w0rld" in
      match Verifier.verify ~ca_key:(Privacy_ca.public_key ca) expectation tampered with
      | Ok () -> print_endline "BUG: tampered output accepted"
      | Error _ -> print_endline "tampered output: correctly REJECTED")
