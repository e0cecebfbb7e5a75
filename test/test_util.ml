open Flicker_crypto

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let test_hex_roundtrip () =
  check "hex" "00ff10ab" (Util.to_hex (Util.of_hex "00ff10ab"));
  check "hex upper" "\x00\xff" (Util.of_hex "00FF");
  check "empty" "" (Util.to_hex "")

let test_hex_invalid () =
  Alcotest.check_raises "odd length" (Invalid_argument "Util.of_hex: odd length")
    (fun () -> ignore (Util.of_hex "abc"));
  Alcotest.check_raises "non-hex" (Invalid_argument "Util.of_hex: non-hex character")
    (fun () -> ignore (Util.of_hex "zz"))

let test_xor () =
  check "xor" "\x03\x00" (Util.xor "\x01\x02" "\x02\x02");
  Alcotest.check_raises "length mismatch" (Invalid_argument "Util.xor: length mismatch")
    (fun () -> ignore (Util.xor "a" "ab"))

let test_constant_time_equal () =
  check_bool "equal" true (Util.constant_time_equal "abc" "abc");
  check_bool "differ" false (Util.constant_time_equal "abc" "abd");
  check_bool "length" false (Util.constant_time_equal "abc" "ab");
  check_bool "empty" true (Util.constant_time_equal "" "")

let test_be32 () =
  check "be32" "\x00\x00\x01\x02" (Util.be32_of_int 258);
  Alcotest.(check int) "roundtrip" 0xDEAD (Util.int_of_be32 (Util.be32_of_int 0xDEAD) 0);
  Alcotest.(check int) "offset" 7 (Util.int_of_be32 ("xx" ^ Util.be32_of_int 7) 2);
  (* the top bit set must read back unsigned, not sign-extended *)
  Alcotest.(check int) "all ones" 0xFFFF_FFFF
    (Util.int_of_be32 (Util.be32_of_int 0xFFFF_FFFF) 0);
  Alcotest.(check int) "top bit" 0x8000_0000
    (Util.int_of_be32 (Util.be32_of_int 0x8000_0000) 0);
  (* every field decoder reads its headers through this: no allocation *)
  let s = Util.be32_of_int 0xDEAD in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Util.int_of_be32 s 0))
  done;
  Alcotest.(check (float 0.)) "10,000 reads allocate nothing" 0.
    (Gc.minor_words () -. before)

let test_be16 () =
  check "be16" "\x01\x02" (Util.be16_of_int 258);
  Alcotest.(check int) "roundtrip" 0xBEEF (Util.int_of_be16 (Util.be16_of_int 0xBEEF) 0)

let test_chunks () =
  Alcotest.(check (list string)) "even" [ "ab"; "cd" ] (Util.chunks 2 "abcd");
  Alcotest.(check (list string)) "ragged" [ "abc"; "d" ] (Util.chunks 3 "abcd");
  Alcotest.(check (list string)) "empty" [] (Util.chunks 4 "");
  Alcotest.check_raises "bad size" (Invalid_argument "Util.chunks: non-positive size")
    (fun () -> ignore (Util.chunks 0 "x"))

let test_pad_left () =
  check "pads" "00ab" (Util.pad_left '0' 4 "ab");
  check "no-op" "abcdef" (Util.pad_left '0' 3 "abcdef")

let test_zeroize () =
  let b = Bytes.of_string "secret" in
  Util.zeroize b;
  check "zeroed" "\000\000\000\000\000\000" (Bytes.to_string b)

let test_fields_roundtrip () =
  let cases = [ []; [ "" ]; [ "a" ]; [ "one"; ""; "three" ]; [ String.make 5000 'x' ] ] in
  List.iter
    (fun fields ->
      match Util.decode_fields (Util.encode_fields fields) with
      | Ok got -> Alcotest.(check (list string)) "roundtrip" fields got
      | Error e -> Alcotest.fail e)
    cases

let test_fields_truncated () =
  check_bool "truncated header" true
    (Result.is_error (Util.decode_fields "\x00\x00"));
  check_bool "truncated body" true
    (Result.is_error (Util.decode_fields (Util.be32_of_int 10 ^ "short")))

let prop_fields =
  QCheck.Test.make ~name:"encode/decode fields roundtrip" ~count:200
    QCheck.(small_list (string_of_size Gen.small_nat))
    (fun fields -> Util.decode_fields (Util.encode_fields fields) = Ok fields)

let prop_hex =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200
    QCheck.(string_of_size Gen.small_nat)
    (fun s -> Util.of_hex (Util.to_hex s) = s)

let prop_xor_involution =
  QCheck.Test.make ~name:"xor is an involution" ~count:200
    QCheck.(pair (string_of_size Gen.small_nat) (string_of_size Gen.small_nat))
    (fun (a, b) ->
      let n = min (String.length a) (String.length b) in
      let a = String.sub a 0 n and b = String.sub b 0 n in
      Util.xor (Util.xor a b) b = a)

let () =
  Alcotest.run "util"
    [
      ( "util",
        [
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "hex invalid" `Quick test_hex_invalid;
          Alcotest.test_case "xor" `Quick test_xor;
          Alcotest.test_case "constant-time equal" `Quick test_constant_time_equal;
          Alcotest.test_case "be32" `Quick test_be32;
          Alcotest.test_case "be16" `Quick test_be16;
          Alcotest.test_case "chunks" `Quick test_chunks;
          Alcotest.test_case "pad_left" `Quick test_pad_left;
          Alcotest.test_case "zeroize" `Quick test_zeroize;
          Alcotest.test_case "fields roundtrip" `Quick test_fields_roundtrip;
          Alcotest.test_case "fields truncated" `Quick test_fields_truncated;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fields; prop_hex; prop_xor_involution ] );
    ]
