open Flicker_crypto
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Builder = Flicker_slb.Builder
module Mod_secure_channel = Flicker_slb.Mod_secure_channel

type established = {
  public_key : Rsa.public;
  sealed_private : string;
  evidence : Attestation.evidence;
  outcome : Session.outcome;
}

let setup_pal ~key_bits =
  Pal.define
    ~name:(Printf.sprintf "secure-channel-setup-%d" key_bits)
    ~app_code_size:256
    ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities; Pal.Crypto; Pal.Secure_channel ]
    (fun env ->
      match Mod_secure_channel.setup env ~key_bits with
      | Ok out -> Pal_env.set_output env (Mod_secure_channel.encode_setup_output out)
      | Error msg -> Pal_env.fail env msg)

let establish platform ~pal ?(inputs = "") ~nonce () =
  match Session.call platform ~pal ~inputs ~nonce () with
  | Error e -> Error e
  | Ok outcome -> (
      let outputs = outcome.Session.outputs in
      match Mod_secure_channel.decode_setup_output outputs with
      | Error msg -> Error ("setup PAL produced malformed output: " ^ msg)
      | Ok out ->
          Ok
            {
              public_key = out.Mod_secure_channel.public_key;
              sealed_private = out.Mod_secure_channel.sealed_private;
              evidence = Attestation.generate platform ~nonce ~inputs ~outputs;
              outcome;
            })

let client_accept ~ca_key ~pal ~slb_base ~nonce evidence =
  let expectation = Verifier.expect ~pal ~flavor:Builder.Optimized ~slb_base ~nonce () in
  match Verifier.verify ~ca_key expectation evidence with
  | Error f -> Error (Verifier.failure_to_string f)
  | Ok () -> (
      (* The attestation covers the output bytes; re-derive the key from
         them rather than trusting the unauthenticated copy. *)
      match Mod_secure_channel.decode_setup_output evidence.Attestation.claimed_outputs with
      | Error msg -> Error ("attested output malformed: " ^ msg)
      | Ok out -> Ok out.Mod_secure_channel.public_key)
