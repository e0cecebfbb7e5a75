open Flicker_crypto

let rng = Prng.create ~seed:"rsa-tests"

let test_small_primes () =
  Alcotest.(check int) "count below 1000" 168 (List.length Primality.small_primes);
  Alcotest.(check (list int)) "first few" [ 2; 3; 5; 7; 11 ]
    (List.filteri (fun i _ -> i < 5) Primality.small_primes)

let test_is_probably_prime () =
  let prime v = Primality.is_probably_prime rng (Bignum.of_int v) in
  List.iter (fun p -> Alcotest.(check bool) (string_of_int p) true (prime p))
    [ 2; 3; 5; 101; 104729; 999983 ];
  List.iter (fun c -> Alcotest.(check bool) (string_of_int c) false (prime c))
    [ 0; 1; 4; 100; 561 (* Carmichael *); 999982 ];
  (* a known large prime: 2^127 - 1 *)
  Alcotest.(check bool) "mersenne 127" true
    (Primality.is_probably_prime rng
       (Bignum.of_decimal_string "170141183460469231731687303715884105727"));
  Alcotest.(check bool) "mersenne 127 + 2" false
    (Primality.is_probably_prime rng
       (Bignum.of_decimal_string "170141183460469231731687303715884105729"))

let test_generate_prime () =
  List.iter
    (fun bits ->
      let p = Primality.generate_prime rng ~bits in
      Alcotest.(check int) "exact width" bits (Bignum.bit_length p);
      Alcotest.(check bool) "odd" false (Bignum.is_even p);
      Alcotest.(check bool) "probably prime" true (Primality.is_probably_prime rng p))
    [ 16; 64; 128; 256 ]

let test_keygen_structure () =
  let key = Rsa.generate rng ~bits:256 in
  let open Bignum in
  Alcotest.(check int) "modulus width" 256 (bit_length key.Rsa.pub.Rsa.n);
  Alcotest.(check bool) "n = p*q" true (equal key.Rsa.pub.Rsa.n (mul key.Rsa.p key.Rsa.q));
  (* e*d = 1 mod phi *)
  let phi = mul (sub key.Rsa.p one) (sub key.Rsa.q one) in
  Alcotest.(check bool) "ed = 1 (mod phi)" true
    (equal one (rem (mul key.Rsa.pub.Rsa.e key.Rsa.d) phi));
  (* CRT parameters *)
  Alcotest.(check bool) "dp" true (equal key.Rsa.dp (rem key.Rsa.d (sub key.Rsa.p one)));
  Alcotest.(check bool) "qinv" true
    (equal one (rem (mul key.Rsa.qinv key.Rsa.q) key.Rsa.p))

let test_raw_roundtrip () =
  let key = Rsa.generate rng ~bits:256 in
  let m = Bignum.of_decimal_string "123456789012345" in
  let c = Rsa.encrypt_raw key.Rsa.pub m in
  Alcotest.(check bool) "decrypt(encrypt(m)) = m" true
    (Bignum.equal m (Rsa.decrypt_raw key c));
  Alcotest.check_raises "message too large"
    (Invalid_argument "Rsa.encrypt_raw: message too large") (fun () ->
      ignore (Rsa.encrypt_raw key.Rsa.pub key.Rsa.pub.Rsa.n))

let test_crt_against_plain () =
  let key = Rsa.generate rng ~bits:256 in
  let c = Bignum.of_decimal_string "98765432109876543210" in
  let plain = Bignum.mod_pow ~base:c ~exp:key.Rsa.d ~modulus:key.Rsa.pub.Rsa.n in
  Alcotest.(check bool) "CRT matches plain exponentiation" true
    (Bignum.equal plain (Rsa.decrypt_raw key c))

let test_pkcs1_encrypt () =
  let key = Rsa.generate rng ~bits:512 in
  let msg = "attack at dawn" in
  let ct = Pkcs1.encrypt rng key.Rsa.pub msg in
  Alcotest.(check int) "ciphertext = key size" (Rsa.key_bytes key.Rsa.pub)
    (String.length ct);
  (match Pkcs1.decrypt key ct with
  | Ok m -> Alcotest.(check string) "roundtrip" msg m
  | Error e -> Alcotest.fail e);
  (* randomized padding: two encryptions differ *)
  Alcotest.(check bool) "probabilistic" true (ct <> Pkcs1.encrypt rng key.Rsa.pub msg);
  Alcotest.check_raises "too long" (Invalid_argument "Pkcs1.encrypt: message too long")
    (fun () ->
      ignore (Pkcs1.encrypt rng key.Rsa.pub (String.make (Pkcs1.max_message_bytes key.Rsa.pub + 1) 'x')))

let test_pkcs1_decrypt_failures () =
  let key = Rsa.generate rng ~bits:512 in
  Alcotest.(check bool) "wrong length" true
    (Result.is_error (Pkcs1.decrypt key "short"));
  (* a random blob of the right length almost surely has bad padding *)
  let junk = Prng.bytes rng (Rsa.key_bytes key.Rsa.pub - 1) ^ "\x00" in
  Alcotest.(check bool) "junk rejected" true
    (Result.is_error (Pkcs1.decrypt key ("\x00" ^ String.sub junk 0 (String.length junk - 1) ^ "\x00")))

let test_pkcs1_nonmalleability_guard () =
  (* flipping ciphertext bits must not yield the original plaintext *)
  let key = Rsa.generate rng ~bits:512 in
  let msg = "password123" in
  let ct = Bytes.of_string (Pkcs1.encrypt rng key.Rsa.pub msg) in
  Bytes.set ct 10 (Char.chr (Char.code (Bytes.get ct 10) lxor 0x40));
  match Pkcs1.decrypt key (Bytes.to_string ct) with
  | Error _ -> ()
  | Ok m -> Alcotest.(check bool) "differs" true (m <> msg)

let test_sign_verify () =
  let key = Rsa.generate rng ~bits:512 in
  List.iter
    (fun alg ->
      let s = Pkcs1.sign key alg "signed message" in
      Alcotest.(check bool) "verifies" true
        (Pkcs1.verify key.Rsa.pub alg ~msg:"signed message" ~signature:s);
      Alcotest.(check bool) "wrong message" false
        (Pkcs1.verify key.Rsa.pub alg ~msg:"other message" ~signature:s);
      Alcotest.(check bool) "wrong alg" false
        (Pkcs1.verify key.Rsa.pub
           (if alg = Hash.SHA1 then Hash.MD5 else Hash.SHA1)
           ~msg:"signed message" ~signature:s))
    [ Hash.SHA1; Hash.SHA256; Hash.MD5 ];
  let key2 = Rsa.generate rng ~bits:512 in
  let s = Pkcs1.sign key Hash.SHA1 "msg" in
  Alcotest.(check bool) "wrong key" false
    (Pkcs1.verify key2.Rsa.pub Hash.SHA1 ~msg:"msg" ~signature:s);
  Alcotest.(check bool) "wrong length sig" false
    (Pkcs1.verify key.Rsa.pub Hash.SHA1 ~msg:"msg" ~signature:"short")

let test_serialization () =
  let key = Rsa.generate rng ~bits:256 in
  let pub' = Rsa.public_of_string (Rsa.public_to_string key.Rsa.pub) in
  Alcotest.(check bool) "public roundtrip" true
    (Bignum.equal pub'.Rsa.n key.Rsa.pub.Rsa.n && Bignum.equal pub'.Rsa.e key.Rsa.pub.Rsa.e);
  let key' = Rsa.private_of_string (Rsa.private_to_string key) in
  Alcotest.(check bool) "private roundtrip" true
    (Bignum.equal key'.Rsa.d key.Rsa.d && Bignum.equal key'.Rsa.qinv key.Rsa.qinv);
  Alcotest.(check bool) "garbage rejected" true
    (match Rsa.private_of_string "garbage" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_distinct_keys () =
  let k1 = Rsa.generate rng ~bits:256 in
  let k2 = Rsa.generate rng ~bits:256 in
  Alcotest.(check bool) "moduli differ" false (Bignum.equal k1.Rsa.pub.Rsa.n k2.Rsa.pub.Rsa.n)

(* Keys and signatures are pinned by their SHA-1, recorded with the
   Bignum of 26-bit limbs: a change to Bignum's representation or its
   kernels must generate the same primes and sign the same bytes. Each
   width draws from its own seed. *)
let test_pinned_keys () =
  List.iter
    (fun (bits, key_sha1, sig_sha1) ->
      let rng = Prng.create ~seed:(Printf.sprintf "rsa-pinned-%d" bits) in
      let key = Rsa.generate rng ~bits in
      let sha1 s = Util.to_hex (Sha1.digest s) in
      Alcotest.(check string)
        (Printf.sprintf "%d-bit key" bits)
        key_sha1
        (sha1 (Rsa.private_to_string key));
      Alcotest.(check string)
        (Printf.sprintf "%d-bit signature" bits)
        sig_sha1
        (sha1 (Pkcs1.sign key Hash.SHA1 "pinned message")))
    [
      (512, "d0c185dd03acf8d95db5580bd89768080f455bb3", "d0c542055b6739e30f3225479aa9508bd463891a");
      (1024, "3f894cdd51ee9eafb00548b9897b8a8353c8ee19", "5484a8b7fc4587739ef5407c06274240b1ae804e");
    ]

let prop_pkcs1_roundtrip =
  let key = Rsa.generate rng ~bits:512 in
  QCheck.Test.make ~name:"PKCS#1 encrypt/decrypt roundtrip" ~count:50
    QCheck.(string_of_size Gen.(int_range 0 (Pkcs1.max_message_bytes key.Rsa.pub)))
    (fun msg -> Pkcs1.decrypt key (Pkcs1.encrypt rng key.Rsa.pub msg) = Ok msg)

let prop_sign_all_messages =
  let key = Rsa.generate rng ~bits:512 in
  QCheck.Test.make ~name:"signatures verify for arbitrary messages" ~count:30
    QCheck.(string_of_size Gen.(int_range 0 1000))
    (fun msg ->
      Pkcs1.verify key.Rsa.pub Hash.SHA1 ~msg ~signature:(Pkcs1.sign key Hash.SHA1 msg))

let () =
  Alcotest.run "rsa"
    [
      ( "primality",
        [
          Alcotest.test_case "small primes" `Quick test_small_primes;
          Alcotest.test_case "miller-rabin" `Quick test_is_probably_prime;
          Alcotest.test_case "prime generation" `Slow test_generate_prime;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "keygen structure" `Quick test_keygen_structure;
          Alcotest.test_case "raw roundtrip" `Quick test_raw_roundtrip;
          Alcotest.test_case "CRT correctness" `Quick test_crt_against_plain;
          Alcotest.test_case "distinct keys" `Quick test_distinct_keys;
          Alcotest.test_case "pinned keys and signatures" `Quick test_pinned_keys;
        ] );
      ( "pkcs1",
        [
          Alcotest.test_case "encrypt" `Quick test_pkcs1_encrypt;
          Alcotest.test_case "decrypt failures" `Quick test_pkcs1_decrypt_failures;
          Alcotest.test_case "tampered ciphertext" `Quick test_pkcs1_nonmalleability_guard;
          Alcotest.test_case "sign/verify" `Quick test_sign_verify;
          Alcotest.test_case "serialization" `Quick test_serialization;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_pkcs1_roundtrip; prop_sign_all_messages ]
      );
    ]
