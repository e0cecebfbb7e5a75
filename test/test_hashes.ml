open Flicker_crypto

let check = Alcotest.(check string)

(* FIPS 180 / RFC 1321 test vectors *)
let sha1_vectors =
  [
    ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1" );
    ("The quick brown fox jumps over the lazy dog", "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
  ]

let sha256_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
  ]

let md5_vectors =
  [
    ("", "d41d8cd98f00b204e9800998ecf8427e");
    ("a", "0cc175b9c0f1b6a831c399e269772661");
    ("abc", "900150983cd24fb0d6963f7d28e17f72");
    ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
    ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
      "57edf4a22be3c955ac49da2e2107b67a" );
  ]

let test_vectors name hex vectors () =
  List.iter (fun (input, expected) -> check (name ^ " vector") expected (hex input)) vectors

let test_sha1_million () =
  check "million a's" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.hex (String.make 1_000_000 'a'))

let test_sha256_million () =
  check "million a's" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'))

(* The streaming side of one hash, for the cases every kernel shares. *)
type streaming = {
  alg : string;
  size : int;
  oneshot : string -> string;
  chunked : string list -> string;  (** one context, one [update] per chunk *)
}

let sha1 =
  {
    alg = "sha1";
    size = 20;
    oneshot = Sha1.digest;
    chunked =
      (fun chunks ->
        let ctx = Sha1.init () in
        List.iter (Sha1.update ctx) chunks;
        Sha1.finalize ctx);
  }

let sha256 =
  {
    alg = "sha256";
    size = 32;
    oneshot = Sha256.digest;
    chunked =
      (fun chunks ->
        let ctx = Sha256.init () in
        List.iter (Sha256.update ctx) chunks;
        Sha256.finalize ctx);
  }

let md5 =
  {
    alg = "md5";
    size = 16;
    oneshot = Md5.digest;
    chunked =
      (fun chunks ->
        let ctx = Md5.init () in
        List.iter (Md5.update ctx) chunks;
        Md5.finalize ctx);
  }

let test_incremental h () =
  (* chunked updates across block boundaries must equal one-shot *)
  let data = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  List.iter
    (fun sizes ->
      let chunks, off =
        List.fold_left
          (fun (chunks, off) n ->
            let take = min n (String.length data - off) in
            (String.sub data off take :: chunks, off + take))
          ([], 0) sizes
      in
      let chunks = List.rev (String.sub data off (String.length data - off) :: chunks) in
      check (h.alg ^ " incremental") (Util.to_hex (h.oneshot data)) (Util.to_hex (h.chunked chunks)))
    [
      [ 1; 63; 64; 65; 127 ];
      [ 512; 488 ];
      [ 999 ];
      List.init 100 (fun _ -> 10);
      (* leave 1, 55, 56, 63 and 64 bytes buffered before the next update *)
      [ 1; 54; 1; 7; 1 ];
      [ 55; 9; 56; 8; 63; 1; 64 ];
      [ 129; 119; 120; 127 ];
    ]

let test_padding_boundaries h () =
  (* lengths around the 55/56/63/64 padding edges, each hashed one-shot,
     in one update and in two updates split at every offset *)
  List.iter
    (fun n ->
      let s = String.init n (fun i -> Char.chr ((i * 7) land 0xff)) in
      let expected = Util.to_hex (h.oneshot s) in
      Alcotest.(check int) (h.alg ^ " size") h.size (String.length (h.oneshot s));
      check (h.alg ^ " one update") expected (Util.to_hex (h.chunked [ s ]));
      for k = 0 to n do
        check
          (Printf.sprintf "%s %d split at %d" h.alg n k)
          expected
          (Util.to_hex (h.chunked [ String.sub s 0 k; String.sub s k (n - k) ]))
      done)
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 128 ]

(* A chain of hashes over every message length 0 to 300 and two long
   ones, so every padding case, block count and buffered remainder feeds
   the next digest: d starts as zero bytes and becomes H(d || m_n),
   where m_n is n bytes with m_n[i] = (n + i) mod 256. The expected
   ends come from Python's hashlib. The descending chain leaves the
   one-shot scratch context's previous 0x80 marker one byte past each
   new one, so padding that skips a byte it should zero shows. *)
let chained oneshot size lengths =
  List.fold_left
    (fun d n -> oneshot (d ^ String.init n (fun i -> Char.chr ((n + i) land 0xff))))
    (String.make size '\000') lengths

let test_chained_known_answers () =
  let up = List.init 301 Fun.id @ [ 4736; 65536 ] and down = List.init 301 (fun i -> 300 - i) in
  check "sha1 chain" "3d0f555125d10a066ac080d3b7f66fc21d321c50"
    (Util.to_hex (chained Sha1.digest 20 up));
  check "sha256 chain" "95e2e04fd6e32f3b688959515b663b0a36bfa3574874419c44d40de72d1288ff"
    (Util.to_hex (chained Sha256.digest 32 up));
  check "sha1 descending chain" "50e5e097ee365ac9d18ccce994942f6fb6dcc7ab"
    (Util.to_hex (chained Sha1.digest 20 down));
  check "sha256 descending chain"
    "fb5a84dd71998629264eda01766c8a96344a2e012f6549b19f4a13f07959eed2"
    (Util.to_hex (chained Sha256.digest 32 down))

(* Known answers at every padding edge, from Python's hashlib. 55/56
   and 63/64 bytes are where a 64-byte block's 8-byte length field
   stops fitting and where a block fills; 111/112, 119/120 and 127/128
   the same for a second block, 239/240 for a fourth; 1,000 bytes spans
   many blocks. The n-byte
   message is m[i] = 7i mod 256, as in the padding-boundary cases. Each
   length is hashed one-shot, in ascending and then descending order so
   the one-shot scratch context holds a longer message's bytes past each
   shorter one's padding, and streamed in two updates split at a third. *)
let padding_edges = [ 0; 55; 56; 63; 64; 111; 112; 119; 120; 127; 128; 239; 240; 1000 ]

let padding_edge_answers =
  [
    ( sha1,
      [
        "da39a3ee5e6b4b0d3255bfef95601890afd80709"; "aecd1643c9903b9bae8cb94f53c50f8a4e18605b";
        "f5d65c621c02cc8e785159feff8088e3072da1bc"; "4952f0fe097e4d6410ae9eab4855aa836caf3bff";
        "1e17ae1fc093e5daca033553c97a5192ca164486"; "df2f6197f2b13b38727c3317ee887f0dfae15339";
        "fe6021ce28099e49dbe7eaf995feac7848f25a48"; "b4a4e69060d0b1e7e8ebbf7041a4211c63438b57";
        "b651390c2996406336a3f6647e4b590c18cdd6f8"; "374f47c1c8d4700fc2588e71f6d1e861b431b5c3";
        "516846cd40bd1fe431119c3b0a0f362957992ee8"; "8f973a5ac2bce221086b7e2ae638cc50838368c3";
        "a774f176cef622a51557bd0e472d9c961141b2f1"; "38f3aa587f4aa04965a359f9151092759b3a4c2a";
      ] );
    ( sha256,
      [
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
        "576a1bf8d4478657e6dc4af9398544765c2a92cde28478b019235cfed315fc09";
        "9b20501dfd1d99161c257950f3444f3e49230c351c5c8e0943ef369f85f5205d";
        "30b345906b493f06f69444b6521113511c242f30e29840462950035043682f1e";
        "d8bc63b4fc1156e5e7d95a418b9bf54cd3174bedbc2db40f74895349b229b3c0";
        "d80a22461ae74d8e6944001e255f9e47eca17702b1dc987238d78e6e1ea3e342";
        "a4ecd1e6c38e9d976d0cef32d899be35eb83c98d46b4dbfd68a1560f83b786a2";
        "7a6589821178918ca8d9edaba5abfc1e9b2669564f4469b66885379c1530b2c8";
        "655250427d56b1b0eeb8497d21428704273458a01772d6881b65c0abac0f8a98";
        "67d79933e3c9aa8e89f481e071cfca1e9a16c09d7263b5efa3bb01f1a9f8d065";
        "54c9eb041badfd7064645067b107661fed6113197ce2dd066ba69618abd3732f";
        "f7d03523f69109dd5e8033129be4236bc88801cbef0f24fcb60e5b6840b0ce35";
        "92c8a7a10ebf0e7ef3c7a503ce47c589f9d7f3c8bd799d0142c52b9f0790d4e4";
        "89f4ff56a25dd1db06a4ce6033603775d705fb96f30f8693733fef602a1ca532";
      ] );
    ( md5,
      [
        "d41d8cd98f00b204e9800998ecf8427e"; "8d24280288a696559fd8d5aa1b6d8c6e";
        "ef2c72b7254c92459e498eddd4ace573"; "c4c8c6d513f4e1604eb18508a1769364";
        "a2fcb39a253b9b785b1f97518fa37683"; "d33e91d921631eea0d6c25fc96e10524";
        "ac43942f2f342010747a0de1fe3cf15b"; "1640deea49ebb258ec6ede18d4b2d2d7";
        "05f879f7b542a7ebf0605adff67d4423"; "c774d99f2281f28edc4257944c8871d1";
        "fe942895e9aae953f3e246e5fd00739d"; "7c70e0c4dc45201e8f6f06bdad7effc5";
        "984e085bbbcebd8531024a3688f17a6d"; "de809ff794e91b68f9e91a2b7030bcb0";
      ] );
  ]

let test_padding_edge_known_answers () =
  List.iter
    (fun (h, answers) ->
      let pinned = List.combine padding_edges answers in
      List.iter
        (fun (n, expected) ->
          let s = String.init n (fun i -> Char.chr ((i * 7) land 0xff)) in
          check (Printf.sprintf "%s %d one-shot" h.alg n) expected (Util.to_hex (h.oneshot s));
          check
            (Printf.sprintf "%s %d in two updates" h.alg n)
            expected
            (Util.to_hex (h.chunked [ String.sub s 0 (n / 3); String.sub s (n / 3) (n - (n / 3)) ])))
        (pinned @ List.rev pinned))
    padding_edge_answers

let test_hash_facade () =
  Alcotest.(check int) "sha1 size" 20 (Hash.digest_size Hash.SHA1);
  Alcotest.(check int) "sha256 size" 32 (Hash.digest_size Hash.SHA256);
  Alcotest.(check int) "md5 size" 16 (Hash.digest_size Hash.MD5);
  Alcotest.(check int) "block" 64 Hash.block_size;
  check "facade routes sha1" (Sha1.hex "xyz") (Hash.hex Hash.SHA1 "xyz");
  check "name" "SHA-256" (Hash.name Hash.SHA256)

let test_hmac_rfc2202 () =
  let hex = Util.to_hex in
  check "case 1" "b617318655057264e28bc0b6fb378c8ef146be00"
    (hex (Hmac.sha1 ~key:(String.make 20 '\x0b') "Hi There"));
  check "case 2" "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
    (hex (Hmac.sha1 ~key:"Jefe" "what do ya want for nothing?"));
  check "case 3" "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
    (hex (Hmac.sha1 ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')));
  check "long key" "aa4ae5e15272d00e95705637ce8a3b55ed402112"
    (hex
       (Hmac.sha1 ~key:(String.make 80 '\xaa')
          "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_sha256_rfc4231 () =
  check "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Util.to_hex (Hmac.mac Hash.SHA256 ~key:(String.make 20 '\x0b') "Hi There"))

let test_hmac_verify () =
  let key = "secret" and msg = "message" in
  let tag = Hmac.sha1 ~key msg in
  Alcotest.(check bool) "good" true (Hmac.verify Hash.SHA1 ~key ~msg ~tag);
  Alcotest.(check bool) "bad tag" false
    (Hmac.verify Hash.SHA1 ~key ~msg ~tag:(String.make 20 '\000'));
  Alcotest.(check bool) "bad msg" false (Hmac.verify Hash.SHA1 ~key ~msg:"other" ~tag)

let test_finalize_once () =
  (* reusing a finalized streaming context must raise, not silently hash
     into dead state: the second finalize used to re-pad and return a
     different digest for the "same" data *)
  let expect_invalid name f =
    Alcotest.(check bool) name true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  let ctx = Sha1.init () in
  Sha1.update ctx "abc";
  let d = Sha1.finalize ctx in
  check "first finalize correct" (Sha1.hex "abc") (Util.to_hex d);
  expect_invalid "sha1 double finalize" (fun () -> Sha1.finalize ctx);
  expect_invalid "sha1 update after finalize" (fun () -> Sha1.update ctx "x");
  let ctx = Sha256.init () in
  Sha256.update ctx "abc";
  ignore (Sha256.finalize ctx);
  expect_invalid "sha256 double finalize" (fun () -> Sha256.finalize ctx);
  expect_invalid "sha256 update after finalize" (fun () ->
      Sha256.update ctx "x");
  let ctx = Md5.init () in
  Md5.update ctx "abc";
  check "md5 first finalize correct" (Md5.hex "abc") (Util.to_hex (Md5.finalize ctx));
  expect_invalid "md5 double finalize" (fun () -> Md5.finalize ctx);
  expect_invalid "md5 update after finalize" (fun () -> Md5.update ctx "x")

let prop_incremental alg oneshot init update finalize =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s incremental = one-shot" alg)
    ~count:100
    QCheck.(pair (string_of_size Gen.small_nat) (list_of_size (Gen.int_range 0 5) (string_of_size Gen.small_nat)))
    (fun (first, rest) ->
      let all = String.concat "" (first :: rest) in
      let ctx = init () in
      List.iter (update ctx) (first :: rest);
      finalize ctx = oneshot all)

let prop_sha1_avalanche =
  QCheck.Test.make ~name:"sha1: flipping a bit changes the digest" ~count:100
    QCheck.(string_of_size Gen.(int_range 1 200))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
      Sha1.digest s <> Sha1.digest (Bytes.to_string b))

let () =
  Alcotest.run "hashes"
    [
      ( "vectors",
        [
          Alcotest.test_case "sha1" `Quick (test_vectors "sha1" Sha1.hex sha1_vectors);
          Alcotest.test_case "sha256" `Quick
            (test_vectors "sha256" Sha256.hex sha256_vectors);
          Alcotest.test_case "md5" `Quick (test_vectors "md5" Md5.hex md5_vectors);
          Alcotest.test_case "sha1 million" `Slow test_sha1_million;
          Alcotest.test_case "sha256 million" `Slow test_sha256_million;
          Alcotest.test_case "chained known answers" `Quick test_chained_known_answers;
          Alcotest.test_case "padding-edge known answers" `Quick
            test_padding_edge_known_answers;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "sha1 incremental" `Quick (test_incremental sha1);
          Alcotest.test_case "sha256 incremental" `Quick (test_incremental sha256);
          Alcotest.test_case "padding boundaries" `Quick (test_padding_boundaries sha1);
          Alcotest.test_case "sha256 padding boundaries" `Quick
            (test_padding_boundaries sha256);
          Alcotest.test_case "facade" `Quick test_hash_facade;
          Alcotest.test_case "finalize is terminal" `Quick test_finalize_once;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc2202 sha1" `Quick test_hmac_rfc2202;
          Alcotest.test_case "rfc4231 sha256" `Quick test_hmac_sha256_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_incremental "sha1" Sha1.digest Sha1.init Sha1.update Sha1.finalize;
            prop_incremental "sha256" Sha256.digest Sha256.init Sha256.update
              Sha256.finalize;
            prop_incremental "md5" Md5.digest Md5.init Md5.update Md5.finalize;
            prop_sha1_avalanche;
          ] );
    ]
