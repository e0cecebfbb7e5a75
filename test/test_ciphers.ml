open Flicker_crypto

let check = Alcotest.(check string)
let hex = Util.to_hex

(* FIPS-197 Appendix C *)
let test_aes_fips_vectors () =
  let pt = Util.of_hex "00112233445566778899aabbccddeeff" in
  let k128 = Aes.expand_key (Util.of_hex "000102030405060708090a0b0c0d0e0f") in
  check "aes-128 enc" "69c4e0d86a7b0430d8cdb78070b4c55a" (hex (Aes.encrypt_block k128 pt));
  check "aes-128 dec" (hex pt)
    (hex (Aes.decrypt_block k128 (Util.of_hex "69c4e0d86a7b0430d8cdb78070b4c55a")));
  let k192 =
    Aes.expand_key (Util.of_hex "000102030405060708090a0b0c0d0e0f1011121314151617")
  in
  check "aes-192 enc" "dda97ca4864cdfe06eaf70a0ec0d7191" (hex (Aes.encrypt_block k192 pt));
  let k256 =
    Aes.expand_key
      (Util.of_hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
  in
  check "aes-256 enc" "8ea2b7ca516745bfeafc49904b496089" (hex (Aes.encrypt_block k256 pt));
  check "aes-256 dec" (hex pt)
    (hex (Aes.decrypt_block k256 (Util.of_hex "8ea2b7ca516745bfeafc49904b496089")))

(* NIST SP 800-38A F.2.1: AES-128-CBC *)
let test_aes_cbc_nist () =
  let key = Aes.expand_key (Util.of_hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let iv = Util.of_hex "000102030405060708090a0b0c0d0e0f" in
  let pt = Util.of_hex "6bc1bee22e409f96e93d7e117393172a" in
  let ct = Aes.encrypt_cbc key ~iv pt in
  (* first block must match the NIST vector; the rest is our padding *)
  check "cbc block 1" "7649abac8119b246cee98e9b12e9197d" (hex (String.sub ct 0 16));
  check "cbc roundtrip" (hex pt) (hex (Aes.decrypt_cbc key ~iv ct))

let test_aes_cbc_errors () =
  let key = Aes.expand_key (String.make 16 'k') in
  Alcotest.check_raises "bad iv" (Invalid_argument "Aes.encrypt_cbc: iv must be 16 bytes")
    (fun () -> ignore (Aes.encrypt_cbc key ~iv:"short" "data"));
  Alcotest.check_raises "bad ct length"
    (Invalid_argument "Aes.decrypt_cbc: malformed ciphertext") (fun () ->
      ignore (Aes.decrypt_cbc key ~iv:(String.make 16 'i') "12345"));
  (* corrupting the last block must break the padding check (usually) *)
  let iv = String.make 16 'i' in
  let ct = Bytes.of_string (Aes.encrypt_cbc key ~iv "hello world") in
  Bytes.set ct (Bytes.length ct - 1) '\xff';
  Alcotest.(check bool) "tampered ct rejected or garbled" true
    (match Aes.decrypt_cbc key ~iv (Bytes.to_string ct) with
    | exception Invalid_argument _ -> true
    | recovered -> recovered <> "hello world")

let test_aes_key_errors () =
  Alcotest.check_raises "bad key size"
    (Invalid_argument "Aes.expand_key: key must be 16, 24 or 32 bytes") (fun () ->
      ignore (Aes.expand_key "tooshort"));
  let key = Aes.expand_key (String.make 16 'k') in
  Alcotest.check_raises "bad block" (Invalid_argument "Aes.encrypt_block: need 16 bytes")
    (fun () -> ignore (Aes.encrypt_block key "short"))

let test_aes_ctr () =
  (* NIST SP 800-38A F.5.1 *)
  let key = Aes.expand_key (Util.of_hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let nonce = Util.of_hex "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" in
  let pt =
    Util.of_hex
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
  in
  let ct = Aes.ctr key ~nonce pt in
  check "ctr blocks 1-2"
    "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff" (hex ct);
  check "ctr roundtrip" (hex pt) (hex (Aes.ctr key ~nonce ct));
  (* partial final block *)
  let short = "not a multiple of sixteen!" in
  check "ctr partial" short (Aes.ctr key ~nonce (Aes.ctr key ~nonce short))

let arb_data = QCheck.(string_of_size Gen.(int_range 0 500))

let prop_cbc_roundtrip =
  QCheck.Test.make ~name:"AES-CBC roundtrip" ~count:100 arb_data (fun data ->
      let key = Aes.expand_key (Sha256.digest "k" |> fun s -> String.sub s 0 16) in
      let iv = String.sub (Sha256.digest data) 0 16 in
      Aes.decrypt_cbc key ~iv (Aes.encrypt_cbc key ~iv data) = data)

let prop_ctr_involution =
  QCheck.Test.make ~name:"AES-CTR is an involution" ~count:100 arb_data (fun data ->
      let key = Aes.expand_key (String.make 32 'q') in
      let nonce = String.make 16 'n' in
      Aes.ctr key ~nonce (Aes.ctr key ~nonce data) = data)

let prop_cbc_expands =
  QCheck.Test.make ~name:"CBC ciphertext is a padded multiple of 16" ~count:100 arb_data
    (fun data ->
      let key = Aes.expand_key (String.make 16 'z') in
      let ct = Aes.encrypt_cbc key ~iv:(String.make 16 'i') data in
      String.length ct mod 16 = 0 && String.length ct > String.length data)

let () =
  Alcotest.run "ciphers"
    [
      ( "aes",
        [
          Alcotest.test_case "FIPS-197 vectors" `Quick test_aes_fips_vectors;
          Alcotest.test_case "NIST CBC vector" `Quick test_aes_cbc_nist;
          Alcotest.test_case "CBC errors" `Quick test_aes_cbc_errors;
          Alcotest.test_case "key errors" `Quick test_aes_key_errors;
          Alcotest.test_case "NIST CTR vector" `Quick test_aes_ctr;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_cbc_roundtrip; prop_ctr_involution; prop_cbc_expands ]
      );
    ]
