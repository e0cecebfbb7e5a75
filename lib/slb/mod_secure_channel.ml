open Flicker_crypto
module Tpm = Flicker_tpm.Tpm
module Tpm_types = Flicker_tpm.Tpm_types

type setup_output = { public_key : Rsa.public; sealed_private : string }

let setup env ~key_bits =
  Mod_tpm_driver.with_tpm env.Pal_env.tpm_driver (fun tpm ->
      (* Seed the PAL's keygen from the TPM hardware RNG, as the paper's
         implementation does (the 1.3 ms GetRandom in Section 7.4.1). *)
      let seed = Mod_tpm_utils.get_random tpm 128 in
      Prng.reseed env.Pal_env.rng seed;
      let key = Mod_crypto.rsa_generate env.Pal_env.machine env.Pal_env.rng ~bits:key_bits in
      match
        Mod_tpm_utils.seal_for_self tpm ~rng:env.Pal_env.rng (Rsa.private_to_string key)
      with
      | Error e -> Error (Tpm_types.error_to_string e)
      | Ok sealed_private -> Ok { public_key = key.Rsa.pub; sealed_private })

let recover env ~sealed_private =
  Mod_tpm_driver.with_tpm env.Pal_env.tpm_driver (fun tpm ->
      match Mod_tpm_utils.unseal tpm ~rng:env.Pal_env.rng sealed_private with
      | Error e -> Error (Tpm_types.error_to_string e)
      | Ok raw -> (
          match Rsa.private_of_string raw with
          | key -> Ok key
          | exception Invalid_argument msg -> Error ("corrupt private key: " ^ msg)))

let encode_setup_output out =
  Util.field (Rsa.public_to_string out.public_key) ^ Util.field out.sealed_private

let decode_setup_output s =
  match Util.decode_fields s with
  | Error e -> Error e
  | Ok [ pub_raw; sealed_private ] -> (
      match Rsa.public_of_string pub_raw with
      | public_key -> Ok { public_key; sealed_private }
      | exception Invalid_argument msg -> Error msg)
  | Ok _ -> Error "setup output is not two fields"
