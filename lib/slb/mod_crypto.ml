open Flicker_crypto
module Machine = Flicker_hw.Machine
module Timing = Flicker_hw.Timing

let timing (m : Machine.t) = m.Machine.timing

let hmac_sha1 m ~key s =
  Machine.charge_sha1 m ~bytes:(String.length s + 128);
  Hmac.sha1 ~key s

let rsa_generate m rng ~bits =
  Machine.charge m (Timing.rsa_keygen_ms (timing m) ~bits);
  Rsa.generate rng ~bits

let rsa_encrypt m rng pub msg =
  Machine.charge m (Timing.rsa_public_ms (timing m) ~bits:(8 * Rsa.key_bytes pub));
  Pkcs1.encrypt rng pub msg

let rsa_decrypt m key ct =
  Machine.charge m
    (Timing.rsa_private_ms (timing m) ~bits:(8 * Rsa.key_bytes key.Rsa.pub));
  Pkcs1.decrypt key ct

let rsa_sign m key alg msg =
  Machine.charge m
    (Timing.rsa_private_ms (timing m) ~bits:(8 * Rsa.key_bytes key.Rsa.pub));
  Pkcs1.sign key alg msg

let elgamal_bits (params : Elgamal.params) = Bignum.bit_length params.Elgamal.p

let elgamal_generate m rng params =
  (* one g^x mod p: the same cost class as an RSA private operation *)
  Machine.charge m (Timing.rsa_private_ms (timing m) ~bits:(elgamal_bits params));
  Elgamal.generate rng params

let md5crypt m ~salt ~password =
  (* 1000 MD5 iterations over short inputs *)
  Machine.charge m (1000.0 *. 0.8 *. Timing.sha1_ms (timing m) ~bytes:64);
  Md5crypt.crypt ~salt ~password
