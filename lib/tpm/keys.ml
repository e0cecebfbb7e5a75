open Flicker_crypto

type t = {
  ek : Rsa.private_key;
  srk : Rsa.private_key;
  aik : Rsa.private_key;
  srk_auth : string;
}

let well_known_auth = String.make Tpm_types.owner_auth_size '\000'

let generate rng ~key_bits =
  {
    ek = Rsa.generate rng ~bits:key_bits;
    srk = Rsa.generate rng ~bits:key_bits;
    aik = Rsa.generate rng ~bits:key_bits;
    srk_auth = well_known_auth;
  }

let aik_public t = t.aik.Rsa.pub
let ek_public t = t.ek.Rsa.pub
