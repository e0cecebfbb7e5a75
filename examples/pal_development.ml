(* The developer's perspective (paper Section 5): going from "a sensitive
   function buried in a big program" to a running, attested PAL.

   1. Run the extraction tool on the target function (Section 5.2).
   2. Follow its advice: eliminate/replace stdlib calls, link modules.
   3. Define the PAL against those modules and check its TCB (Figure 6).
   4. Run it in a Flicker session — with the OS-Protection module keeping
      the host OS safe from the new, untested PAL (Section 5.1.2), and
      with the watchdog bounding its execution time.

     dune exec examples/pal_development.exe *)

open Flicker_core
open Flicker_extract
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Tcb = Flicker_slb.Tcb

(* The "existing application": a password vault with networking and
   logging around one sensitive function. *)
let vault_program =
  let f fname calls uses_types loc = Extract.fn fname ~calls ~uses_types ~loc in
  {
    Extract.functions =
      [
        f "main" [ "socket"; "serve" ] [] 40;
        f "serve" [ "recv"; "derive_vault_key"; "printf" ] [ "session" ] 70;
        f "derive_vault_key" [ "hmac_sha1"; "memset"; "malloc" ] [ "vault_hdr" ] 22;
        f "hmac_sha1" [ "sha1_compress" ] [] 45;
        f "sha1_compress" [] [] 90;
      ];
    types =
      [
        { Extract.tname = "session"; type_depends = []; definition = "struct session {...};" };
        { Extract.tname = "vault_hdr"; type_depends = []; definition = "struct vault_hdr {...};" };
      ];
  }

let () =
  (* step 1: extract the sensitive function *)
  print_endline "step 1: extract derive_vault_key from the vault server\n";
  let extraction =
    match Extract.extract vault_program ~target:"derive_vault_key" with
    | Ok e -> e
    | Error msg -> failwith msg
  in
  Format.printf "%a@." Extract.report extraction;

  (* step 2: the tool told us which PAL modules the slice needs *)
  let suggested = Extract.suggested_modules extraction in
  let modules = Pal.Os_protection :: Pal.Tpm_driver :: suggested in
  print_endline "step 2: link the suggested modules (plus OS Protection while we test)\n";

  (* step 3: TCB accounting before we ship *)
  let pal =
    Pal.define ~name:"vault-key-derivation"
      ~app_code_size:(extraction.Extract.extracted_loc * 12)
      ~modules
      (fun env ->
        (* the extracted logic: derive a key from the vault header using
           the PAL crypto module *)
        let digest =
          Flicker_slb.Mod_crypto.hmac_sha1 env.Pal_env.machine ~key:"vault-master"
            env.Pal_env.inputs
        in
        Pal_env.set_output env digest)
  in
  print_endline "step 3: the TCB this PAL asks the verifier to trust:";
  Format.printf "%a@." Tcb.pp_rows (Tcb.pal_tcb pal);

  (* step 4: run it, protected both ways *)
  print_endline "step 4: run under Flicker (ring-3 PAL + 100 ms watchdog)\n";
  let platform = Platform.create ~seed:"pal-dev" ~key_bits:1024 () in
  (match
     Session.execute platform ~pal ~inputs:"vault-header-bytes" ~time_limit_ms:100.0 ()
   with
  | Error e -> Format.printf "session failed: %a@." Session.pp_error e
  | Ok outcome ->
      Printf.printf "derived key (hex): %s\n"
        (Flicker_crypto.Util.to_hex outcome.Session.outputs);
      Printf.printf "session: %.1f ms simulated, fault: %s\n" outcome.Session.total_ms
        (Option.value outcome.Session.pal_fault ~default:"none"));

  (* and the reason OS Protection was linked: a buggy revision that
     scribbles outside its segment traps instead of corrupting the OS *)
  let buggy =
    Pal.define ~name:"vault-key-derivation-buggy" ~modules
      (fun env -> ignore (Pal_env.read_phys env ~addr:0x0 ~len:64))
  in
  match Session.call platform ~pal:buggy () with
  | Error e -> print_endline ("session failed: " ^ e)
  | Ok outcome ->
      Printf.printf "\nbuggy revision: fault = %s (OS unharmed, session cleaned up)\n"
        (Option.value outcome.Session.pal_fault ~default:"none")
