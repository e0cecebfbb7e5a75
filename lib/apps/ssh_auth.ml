open Flicker_crypto
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Mod_crypto = Flicker_slb.Mod_crypto
module Mod_secure_channel = Flicker_slb.Mod_secure_channel
module Mod_tpm_utils = Flicker_slb.Mod_tpm_utils
module Mod_tpm_driver = Flicker_slb.Mod_tpm_driver
module Platform = Flicker_core.Platform
module Session = Flicker_core.Session
module Secure_channel = Flicker_core.Secure_channel
module Network = Flicker_core.Network

(* Figure 7's final extend(PCR17, ⊥): the PAL revokes its own access to
   sealed secrets before handing its output to the untrusted OS. *)
let bottom = Sha1.digest "SSH-PAL: bottom"

let behavior env =
  let fail = Pal_env.fail env in
  match Util.decode_fields env.Pal_env.inputs with
  | Ok [ "setup"; key_bits ] -> (
      match int_of_string_opt key_bits with
      | Some bits when bits >= 16 -> (
          match Mod_secure_channel.setup env ~key_bits:bits with
          | Ok out -> Pal_env.set_output env (Mod_secure_channel.encode_setup_output out)
          | Error msg -> fail msg)
      | _ -> fail ("bad key size: " ^ key_bits))
  | Ok [ "login"; sdata; ciphertext; salt; nonce ] -> (
      match Mod_secure_channel.recover env ~sealed_private:sdata with
      | Error msg -> fail ("unseal: " ^ msg)
      | Ok key -> (
          match Mod_crypto.rsa_decrypt env.Pal_env.machine key ciphertext with
          | Error msg -> fail ("decrypt: " ^ msg)
          | Ok plaintext -> (
              match Util.decode_fields plaintext with
              | Ok [ password; nonce' ] ->
                  if not (Util.constant_time_equal nonce nonce') then
                    fail "nonce mismatch (replay?)"
                  else begin
                    let hash = Mod_crypto.md5crypt env.Pal_env.machine ~salt ~password in
                    ignore
                      (Mod_tpm_driver.with_tpm env.Pal_env.tpm_driver (fun tpm ->
                           ignore (Mod_tpm_utils.pcr_extend tpm 17 bottom);
                           Ok ()));
                    Pal_env.set_output env hash
                  end
              | Ok _ | Error _ -> fail "malformed login payload")))
  | Ok _ | Error _ -> fail "unknown mode"

let ssh_pal ~key_bits =
  Pal.define
    ~name:(Printf.sprintf "ssh-password-%d" key_bits)
    ~app_code_size:1024
    ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities; Pal.Crypto; Pal.Secure_channel ]
    behavior

type server = {
  platform : Platform.t;
  key_bits : int;
  pal : Pal.t;
  passwd : (string * string * string) list; (* user, salt, crypted *)
  mutable sdata : string option;
  mutable public_key : Rsa.public option;
}

let create_server platform ?(key_bits = 1024) ~users () =
  let rng = Platform.fork_rng platform ~label:"ssh-passwd-salts" in
  let passwd =
    List.map
      (fun (user, password) ->
        let salt = Util.to_hex (Prng.bytes rng 4) in
        (user, salt, Md5crypt.crypt ~salt ~password))
      users
  in
  { platform; key_bits; pal = ssh_pal ~key_bits; passwd; sdata = None; public_key = None }

let passwd_entry server ~user =
  List.find_map
    (fun (u, salt, crypted) -> if u = user then Some (salt, crypted) else None)
    server.passwd

let server_setup server ~nonce =
  let inputs = Util.encode_fields [ "setup"; string_of_int server.key_bits ] in
  Secure_channel.establish server.platform ~pal:server.pal ~inputs ~nonce ()
  |> Result.map (fun (established : Secure_channel.established) ->
         server.sdata <- Some established.sealed_private;
         server.public_key <- Some established.public_key;
         established)

type login_result = { granted : bool; login_outcome : Session.outcome }

let server_login server ~user ~ciphertext ~nonce =
  match (server.sdata, passwd_entry server ~user) with
  | None, _ -> Error "server has no channel key yet (run setup)"
  | _, None -> Error ("unknown user " ^ user)
  | Some sdata, Some (salt, crypted) ->
      let inputs = Util.encode_fields [ "login"; sdata; ciphertext; salt; nonce ] in
      Session.call server.platform ~pal:server.pal ~inputs ()
      |> Result.map (fun outcome ->
             (* compare hash output against /etc/passwd, as sshd would *)
             let expected = "$1$" ^ salt ^ "$" in
             let produced = outcome.Session.outputs in
             let granted =
               String.length produced > String.length expected
               && Util.constant_time_equal produced crypted
             in
             { granted; login_outcome = outcome })

module Client = struct
  type t = {
    rng : Prng.t;
    ca_key : Rsa.public;
    server_slb_base : int;
    server_pal : Pal.t;
    mutable server_key : Rsa.public option;
  }

  let create ~rng ~ca_key ~server_slb_base ?(key_bits = 1024) () =
    { rng; ca_key; server_slb_base; server_pal = ssh_pal ~key_bits; server_key = None }

  let accept_server_key t ~nonce evidence =
    Secure_channel.client_accept ~ca_key:t.ca_key ~pal:t.server_pal
      ~slb_base:t.server_slb_base ~nonce evidence
    |> Result.map (fun pub -> t.server_key <- Some pub)

  let encrypt_password t ~password ~nonce =
    match t.server_key with
    | None -> Error "no verified server key (run accept_server_key)"
    | Some pub ->
        if String.length password > Pkcs1.max_message_bytes pub - 28 then
          Error "password too long for the channel key"
        else Ok (Pkcs1.encrypt t.rng pub (Util.encode_fields [ password; nonce ]))
end

module Flicker_client = struct
  type t = {
    platform : Platform.t;
    ca_key : Rsa.public;
    server_slb_base : int;
    server_pal : Pal.t;
    pal : Pal.t;
    mutable server_key : Rsa.public option;
  }

  (* the client-side PAL: decode (server key, nonce, password), encrypt,
     output the ciphertext; everything else is erased with the session *)
  let encryption_behavior env =
    match Util.decode_fields env.Pal_env.inputs with
    | Ok [ pub_raw; nonce; password ] -> (
        match Rsa.public_of_string pub_raw with
        | exception Invalid_argument m -> Pal_env.fail env m
        | pub ->
            let ct =
              Mod_crypto.rsa_encrypt env.Pal_env.machine env.Pal_env.rng pub
                (Util.encode_fields [ password; nonce ])
            in
            Pal_env.set_output env ct)
    | Ok _ | Error _ -> Pal_env.fail env "malformed inputs"

  let encryption_pal () =
    Pal.define ~name:"ssh-client-encrypt" ~app_code_size:512 ~modules:[ Pal.Crypto ]
      encryption_behavior

  let create platform ~ca_key ~server_slb_base ?(key_bits = 1024) () =
    let server_pal = ssh_pal ~key_bits and pal = encryption_pal () in
    { platform; ca_key; server_slb_base; server_pal; pal; server_key = None }

  let accept_server_key t ~nonce evidence =
    Secure_channel.client_accept ~ca_key:t.ca_key ~pal:t.server_pal
      ~slb_base:t.server_slb_base ~nonce evidence
    |> Result.map (fun pub -> t.server_key <- Some pub)

  let encrypt_password t ~password ~nonce =
    match t.server_key with
    | None -> Error "no verified server key (run accept_server_key)"
    | Some pub -> (
        let inputs =
          Util.encode_fields [ Rsa.public_to_string pub; nonce; password ]
        in
        Session.call t.platform ~pal:t.pal ~inputs ()
        |> Result.map (fun outcome -> outcome.Session.outputs))
end

let authenticate server client ~user ~password =
  let clock = Platform.clock server.platform in
  let started = Flicker_hw.Clock.now clock in
  (* TCP connect + ssh banner exchange *)
  Network.round_trip server.platform ~request_bytes:128 ~response_bytes:128;
  let setup_result =
    match server.public_key with
    | Some _ -> Ok None
    | None ->
        let nonce = Platform.fresh_nonce server.platform in
        (match server_setup server ~nonce with
        | Error e -> Error e
        | Ok setup -> (
            (* server -> client: attestation; client verifies *)
            Network.send server.platform ~bytes:2048;
            match Client.accept_server_key client ~nonce setup.evidence with
            | Error e -> Error e
            | Ok () -> Ok (Some setup)))
  in
  match setup_result with
  | Error e -> Error e
  | Ok _ -> (
      (* server -> client: login nonce *)
      let nonce = Platform.fresh_nonce server.platform in
      Network.send server.platform ~bytes:64;
      match Client.encrypt_password client ~password ~nonce with
      | Error e -> Error e
      | Ok ciphertext -> (
          (* client -> server: ciphertext *)
          Network.send server.platform ~bytes:(String.length ciphertext + 64);
          match server_login server ~user ~ciphertext ~nonce with
          | Error e -> Error e
          | Ok { granted; _ } ->
              Ok (granted, Flicker_hw.Clock.now clock -. started)))
