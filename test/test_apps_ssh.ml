open Flicker_crypto
open Flicker_core
open Flicker_apps
module Privacy_ca = Flicker_tpm.Privacy_ca

let ca = Privacy_ca.create (Prng.create ~seed:"ssh-ca") ~name:"SshCA" ~key_bits:512
let ca_key = Privacy_ca.public_key ca

let make_pair ~seed =
  let p = Platform.create ~seed ~key_bits:512 ~ca () in
  let server =
    Ssh_auth.create_server p ~key_bits:512
      ~users:[ ("alice", "hunter2"); ("bob", "correct horse") ]
      ()
  in
  let client =
    Ssh_auth.Client.create
      ~rng:(Prng.create ~seed:(seed ^ "-client"))
      ~ca_key ~server_slb_base:p.Platform.slb_base ~key_bits:512 ()
  in
  (p, server, client)

let test_passwd_file () =
  let _, server, _ = make_pair ~seed:"passwd" in
  match Ssh_auth.passwd_entry server ~user:"alice" with
  | None -> Alcotest.fail "alice missing"
  | Some (salt, crypted) ->
      (* server stores only the salted hash, verifiable with crypt(3) *)
      Alcotest.(check bool) "crypted verifies" true
        (Md5crypt.verify ~crypted ~password:"hunter2");
      Alcotest.(check bool) "salt nonempty" true (String.length salt > 0);
      Alcotest.(check (option (pair string string))) "unknown user" None
        (Ssh_auth.passwd_entry server ~user:"mallory")

let test_login_success () =
  let _, server, client = make_pair ~seed:"login" in
  match Ssh_auth.authenticate server client ~user:"alice" ~password:"hunter2" with
  | Ok (true, ms) -> Alcotest.(check bool) "latency positive" true (ms > 0.0)
  | Ok (false, _) -> Alcotest.fail "correct password rejected"
  | Error e -> Alcotest.fail e

let test_login_wrong_password () =
  let _, server, client = make_pair ~seed:"wrongpw" in
  match Ssh_auth.authenticate server client ~user:"alice" ~password:"hunter3" with
  | Ok (false, _) -> ()
  | Ok (true, _) -> Alcotest.fail "wrong password accepted"
  | Error e -> Alcotest.fail e

let test_second_login_reuses_key () =
  let _, server, client = make_pair ~seed:"reuse" in
  (match Ssh_auth.authenticate server client ~user:"alice" ~password:"hunter2" with
  | Ok (true, _) -> ()
  | _ -> Alcotest.fail "first login failed");
  (* second login skips the expensive setup PAL *)
  match Ssh_auth.authenticate server client ~user:"bob" ~password:"correct horse" with
  | Ok (true, ms2) ->
      (* no keygen, no setup quote: well under the first login's latency *)
      Alcotest.(check bool) "faster than 1.5 s" true (ms2 < 1500.0)
  | Ok (false, _) -> Alcotest.fail "bob rejected"
  | Error e -> Alcotest.fail e

let test_password_never_in_server_memory () =
  (* after a login session, the cleartext password is nowhere in the
     server's physical memory — Flicker's headline property for SSH *)
  let p, server, client = make_pair ~seed:"memscan" in
  let password = "XyZZy-Pl0ugh-secret" in
  let server2 =
    Ssh_auth.create_server p ~key_bits:512 ~users:[ ("carol", password) ] ()
  in
  ignore server;
  (match Ssh_auth.authenticate server2 client ~user:"carol" ~password with
  | Ok (true, _) -> ()
  | Ok (false, _) -> Alcotest.fail "login failed"
  | Error e -> Alcotest.fail e);
  let report =
    Flicker_os.Adversary.scan_memory p.Platform.machine ~pattern:password
  in
  Alcotest.(check bool) "password not in memory" false
    report.Flicker_os.Adversary.succeeded

let test_client_rejects_wrong_pal () =
  (* a malicious server runs a different (evil) PAL for setup; the client
     must refuse to send the password *)
  let p, _, client = make_pair ~seed:"evil-server" in
  let evil_pal =
    Flicker_slb.Pal.define ~name:"ssh-evil-setup"
      ~modules:[ Flicker_slb.Pal.Tpm_driver; Flicker_slb.Pal.Tpm_utilities;
                 Flicker_slb.Pal.Crypto; Flicker_slb.Pal.Secure_channel ]
      (fun env ->
        match Flicker_slb.Mod_secure_channel.setup env ~key_bits:512 with
        | Ok out ->
            Flicker_slb.Pal_env.set_output env
              (Flicker_slb.Mod_secure_channel.encode_setup_output out)
        | Error msg -> Flicker_slb.Pal_env.set_output env ("ERROR: " ^ msg))
  in
  let nonce = Platform.fresh_nonce p in
  match Session.execute p ~pal:evil_pal ~nonce () with
  | Error e -> Alcotest.failf "evil session: %a" Session.pp_error e
  | Ok outcome -> (
      let evidence =
        Attestation.generate p ~nonce ~inputs:"" ~outputs:outcome.Session.outputs
      in
      match Ssh_auth.Client.accept_server_key client ~nonce evidence with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "client accepted an evil PAL's key")

let test_setup_output_codec () =
  let module M = Flicker_slb.Mod_secure_channel in
  let pub = { Rsa.n = Bignum.of_int 3233; e = Bignum.of_int 17 } in
  let enc = M.encode_setup_output { M.public_key = pub; sealed_private = "sealed-blob" } in
  (match M.decode_setup_output enc with
  | Ok out ->
      Alcotest.(check string) "sealed key" "sealed-blob" out.M.sealed_private;
      Alcotest.(check bool) "public key" true (Bignum.equal out.M.public_key.Rsa.n pub.Rsa.n)
  | Error e -> Alcotest.fail e);
  let rejects what s =
    Alcotest.(check bool) what true (Result.is_error (M.decode_setup_output s))
  in
  rejects "truncated" (String.sub enc 0 (String.length enc - 1));
  rejects "trailing byte" (enc ^ "\000");
  rejects "third field" (enc ^ Util.field "extra");
  rejects "empty" ""

let test_nonce_replay_rejected () =
  (* replaying an old ciphertext with a stale nonce: the PAL aborts *)
  let p, server, client = make_pair ~seed:"replay" in
  (match Ssh_auth.authenticate server client ~user:"alice" ~password:"hunter2" with
  | Ok (true, _) -> ()
  | _ -> Alcotest.fail "setup login failed");
  let stale_nonce = Platform.fresh_nonce p in
  let ct =
    Result.get_ok (Ssh_auth.Client.encrypt_password client ~password:"hunter2" ~nonce:stale_nonce)
  in
  let fresh_nonce = Platform.fresh_nonce p in
  match Ssh_auth.server_login server ~user:"alice" ~ciphertext:ct ~nonce:fresh_nonce with
  | Error msg ->
      Alcotest.(check bool) "nonce mismatch reported" true
        (let lower = String.lowercase_ascii msg in
         let rec contains i =
           i + 5 <= String.length lower && (String.sub lower i 5 = "nonce" || contains (i + 1))
         in
         contains 0)
  | Ok { Ssh_auth.granted; _ } ->
      Alcotest.(check bool) "replayed login denied" false granted

let test_login_before_setup () =
  let _, server, _ = make_pair ~seed:"nosetup" in
  match
    Ssh_auth.server_login server ~user:"alice" ~ciphertext:"x"
      ~nonce:(String.make 20 'n')
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "login without channel key"

let test_figure9_breakdown () =
  (* Figure 9 shape: setup dominated by keygen+seal, login by unseal *)
  let p, server, _ = make_pair ~seed:"fig9" in
  let nonce = Platform.fresh_nonce p in
  match Ssh_auth.server_setup server ~nonce with
  | Error e -> Alcotest.fail e
  | Ok setup -> (
      let o = setup.Secure_channel.outcome in
      let skinit = Session.phase_ms o Session.Skinit in
      Alcotest.(check bool) "setup skinit ~14" true (skinit > 10.0 && skinit < 20.0);
      (* 512-bit keygen is cheap; the PAL phase must still include seal +
         getrandom, so > 10 ms *)
      Alcotest.(check bool) "setup pal phase" true
        (Session.phase_ms o Session.Pal_execution > 10.0);
      let client =
        Ssh_auth.Client.create ~rng:(Prng.create ~seed:"fig9c") ~ca_key
          ~server_slb_base:p.Platform.slb_base ~key_bits:512 ()
      in
      (match Ssh_auth.Client.accept_server_key client ~nonce setup.Secure_channel.evidence with
      | Error e -> Alcotest.fail e
      | Ok () -> ());
      let login_nonce = Platform.fresh_nonce p in
      let ct =
        Result.get_ok
          (Ssh_auth.Client.encrypt_password client ~password:"hunter2" ~nonce:login_nonce)
      in
      match Ssh_auth.server_login server ~user:"alice" ~ciphertext:ct ~nonce:login_nonce with
      | Error e -> Alcotest.fail e
      | Ok { Ssh_auth.granted; login_outcome } ->
          Alcotest.(check bool) "granted" true granted;
          (* login PAL phase dominated by the ~898 ms unseal *)
          Alcotest.(check bool) "login pal > 880 ms" true
            (Session.phase_ms login_outcome Session.Pal_execution > 880.0))

let test_flicker_client_end_to_end () =
  (* both machines have Flicker: the password is erased from the client
     too after its encryption session *)
  let server_p = Platform.create ~seed:"fc-server" ~key_bits:512 ~ca () in
  let client_p = Platform.create ~seed:"fc-client" ~key_bits:512 ~ca () in
  let password = "Tr0ub4dor&3-client-side" in
  let server = Ssh_auth.create_server server_p ~key_bits:512 ~users:[ ("dana", password) ] () in
  let fclient =
    Ssh_auth.Flicker_client.create client_p ~ca_key
      ~server_slb_base:server_p.Platform.slb_base ~key_bits:512 ()
  in
  let nonce = Platform.fresh_nonce server_p in
  let setup = Result.get_ok (Ssh_auth.server_setup server ~nonce) in
  (match
     Ssh_auth.Flicker_client.accept_server_key fclient ~nonce setup.Secure_channel.evidence
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let login_nonce = Platform.fresh_nonce server_p in
  let ct =
    match Ssh_auth.Flicker_client.encrypt_password fclient ~password ~nonce:login_nonce with
    | Ok ct -> ct
    | Error e -> Alcotest.fail e
  in
  (match Ssh_auth.server_login server ~user:"dana" ~ciphertext:ct ~nonce:login_nonce with
  | Ok { Ssh_auth.granted; _ } -> Alcotest.(check bool) "granted" true granted
  | Error e -> Alcotest.fail e);
  (* the password has been erased from the CLIENT's physical memory *)
  let scan = Flicker_os.Adversary.scan_memory client_p.Platform.machine ~pattern:password in
  Alcotest.(check bool) "password erased from client memory" false
    scan.Flicker_os.Adversary.succeeded

let test_flicker_client_rejects_bad_server () =
  let server_p = Platform.create ~seed:"fc-evil-server" ~key_bits:512 ~ca () in
  let client_p = Platform.create ~seed:"fc-client2" ~key_bits:512 ~ca () in
  let fclient =
    Ssh_auth.Flicker_client.create client_p ~ca_key
      ~server_slb_base:server_p.Platform.slb_base ~key_bits:512 ()
  in
  (* no verified key yet: encryption refuses *)
  Alcotest.(check bool) "no key, no ciphertext" true
    (Result.is_error
       (Ssh_auth.Flicker_client.encrypt_password fclient ~password:"pw"
          ~nonce:(Platform.fresh_nonce client_p)))

(* A key size the PAL cannot parse or use gets an ERROR: reply; the
   session still ends normally and setup then runs on the same platform. *)
let test_malformed_key_size_refused () =
  let p, server, _ = make_pair ~seed:"bad-setup" in
  let pal = Ssh_auth.ssh_pal ~key_bits:512 in
  List.iter
    (fun bits ->
      match Session.execute p ~pal ~inputs:(Util.encode_fields [ "setup"; bits ]) () with
      | Ok o ->
          Alcotest.(check string) ("key size " ^ bits) ("ERROR: bad key size: " ^ bits)
            o.Session.outputs
      | Error e -> Alcotest.failf "key size %s: %a" bits Session.pp_error e)
    [ "x"; "8" ];
  match Ssh_auth.server_setup server ~nonce:(Platform.fresh_nonce p) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "clean setup: %s" e

let () =
  Alcotest.run "apps-ssh"
    [
      ( "protocol",
        [
          Alcotest.test_case "passwd file" `Quick test_passwd_file;
          Alcotest.test_case "login success" `Quick test_login_success;
          Alcotest.test_case "wrong password" `Quick test_login_wrong_password;
          Alcotest.test_case "key reuse" `Quick test_second_login_reuses_key;
          Alcotest.test_case "login before setup" `Quick test_login_before_setup;
        ] );
      ( "security",
        [
          Alcotest.test_case "password never in memory" `Quick
            test_password_never_in_server_memory;
          Alcotest.test_case "client rejects wrong pal" `Quick test_client_rejects_wrong_pal;
          Alcotest.test_case "setup output codec" `Quick test_setup_output_codec;
          Alcotest.test_case "nonce replay rejected" `Quick test_nonce_replay_rejected;
          Alcotest.test_case "malformed key size refused" `Quick
            test_malformed_key_size_refused;
        ] );
      ("timing", [ Alcotest.test_case "figure 9 shape" `Quick test_figure9_breakdown ]);
      ( "flicker client",
        [
          Alcotest.test_case "end to end" `Quick test_flicker_client_end_to_end;
          Alcotest.test_case "no key, no ciphertext" `Quick
            test_flicker_client_rejects_bad_server;
        ] );
    ]
