(* Flicker-protected SSH password authentication (paper Section 6.3.1).

   The server's OS may be completely compromised, yet the user's
   cleartext password is only ever visible inside a Flicker session: the
   client encrypts it under a key whose private half is TPM-sealed to the
   SSH PAL, and the PAL outputs only the md5crypt hash for comparison
   with /etc/passwd.

     dune exec examples/ssh_login.exe *)

open Flicker_core
open Flicker_apps
module Privacy_ca = Flicker_tpm.Privacy_ca
module Prng = Flicker_crypto.Prng

let () =
  let ca = Privacy_ca.create (Prng.create ~seed:"ssh-ca") ~name:"SSHDemoCA" ~key_bits:1024 in
  let ca_key = Privacy_ca.public_key ca in
  let server_platform = Platform.create ~seed:"ssh-server" ~key_bits:1024 ~ca () in
  let server =
    Ssh_auth.create_server server_platform ~key_bits:1024
      ~users:[ ("alice", "correct horse battery staple") ]
      ()
  in
  (match Ssh_auth.passwd_entry server ~user:"alice" with
  | Some (_, crypted) -> Printf.printf "server /etc/passwd entry: alice:%s\n\n" crypted
  | None -> ());

  let client =
    Ssh_auth.Client.create ~rng:(Prng.create ~seed:"ssh-client") ~ca_key
      ~server_slb_base:server_platform.Platform.slb_base ~key_bits:1024 ()
  in

  let attempt user password =
    match Ssh_auth.authenticate server client ~user ~password with
    | Ok (true, attempt_ms) ->
        Printf.printf "login %-8s with %-32s -> ACCEPTED (%.0f ms)\n" user
          (Printf.sprintf "%S" password) attempt_ms
    | Ok (false, attempt_ms) ->
        Printf.printf "login %-8s with %-32s -> rejected (%.0f ms)\n" user
          (Printf.sprintf "%S" password) attempt_ms
    | Error e -> Printf.printf "login %-8s failed: %s\n" user e
  in

  (* First login pays for the setup session (keypair generation +
     attestation); later logins reuse the sealed channel key. *)
  attempt "alice" "correct horse battery staple";
  attempt "alice" "wrong password";
  attempt "alice" "correct horse battery staple";

  (* Even with the password having crossed the server, a ring-0 memory
     scan finds no trace of it: it was decrypted, hashed, and erased
     entirely inside Flicker sessions. *)
  let scan =
    Flicker_os.Adversary.scan_memory server_platform.Platform.machine
      ~pattern:"correct horse battery staple"
  in
  Printf.printf "\nring-0 scan of all server memory for the password: %s\n"
    (if scan.Flicker_os.Adversary.succeeded then "FOUND (BUG!)" else "not found");

  (* A man-in-the-middle OS substitutes its own channel key during setup;
     the client's verification of the attestation catches it. *)
  let fresh_client =
    Ssh_auth.Client.create ~rng:(Prng.create ~seed:"mitm-client") ~ca_key
      ~server_slb_base:server_platform.Platform.slb_base ~key_bits:1024 ()
  in
  let nonce = Platform.fresh_nonce server_platform in
  match Ssh_auth.server_setup server ~nonce with
  | Error e -> Printf.printf "setup failed: %s\n" e
  | Ok setup -> (
      let mitm = Flicker_crypto.Rsa.generate (Prng.create ~seed:"mitm") ~bits:1024 in
      let forged_output =
        Flicker_slb.Mod_secure_channel.encode_setup_output
          { Flicker_slb.Mod_secure_channel.public_key = mitm.Flicker_crypto.Rsa.pub;
            sealed_private = "bogus" }
      in
      let forged = Attestation.tamper_outputs setup.Secure_channel.evidence forged_output in
      match Ssh_auth.Client.accept_server_key fresh_client ~nonce forged with
      | Error reason -> Printf.printf "MITM key substitution: REJECTED (%s)\n" reason
      | Ok () -> print_endline "MITM key substitution: accepted (BUG!)")
