(* The TPM byte-transport layer: marshaling roundtrips, dispatch
   equivalence with the direct API, and the malformed-buffer robustness a
   driver depends on. *)

open Flicker_crypto
open Flicker_tpm
module Machine = Flicker_hw.Machine
module Timing = Flicker_hw.Timing
module Wire = Tpm_wire

let make_tpm () =
  let machine = Machine.create ~memory_size:(1024 * 1024) Timing.default in
  Tpm.create machine (Prng.create ~seed:"wire-tests") ~key_bits:512

let d20 c = String.make 20 c

let auth = { Tpm.session = 0x1234; nonce_odd = d20 'o'; mac = d20 'm' }

let sample_commands =
  [
    Wire.Pcr_read 17;
    Wire.Pcr_extend (17, Sha1.digest "m");
    Wire.Get_random 128;
    Wire.Quote { nonce = d20 'n'; selection = [ 0; 17; 23 ] };
    Wire.Oiap;
    Wire.Osap { entity = "SRK"; no_osap = d20 'q' };
    Wire.Seal { auth; release = [ (17, d20 'v') ]; data = "top secret" };
    Wire.Seal { auth; release = []; data = "" };
    Wire.Unseal { auth; blob = String.make 100 'b' };
    Wire.Nv_read 7;
    Wire.Nv_write (7, "counter!");
    Wire.Read_counter 3;
    Wire.Increment_counter 3;
    Wire.Get_capability_version;
  ]

let test_command_roundtrip () =
  List.iter
    (fun cmd ->
      match Wire.decode_command (Wire.encode_command cmd) with
      | Ok cmd' -> Alcotest.(check bool) "roundtrip" true (cmd = cmd')
      | Error e -> Alcotest.fail e)
    sample_commands

let test_response_roundtrip () =
  let quote =
    { Tpm.quoted_composite = [ (17, d20 'x') ]; quote_nonce = d20 'n'; signature = "sig" }
  in
  List.iter
    (fun (ordinal, resp) ->
      match Wire.decode_response ~ordinal (Wire.encode_response resp) with
      | Ok resp' -> Alcotest.(check bool) "roundtrip" true (resp = resp')
      | Error e -> Alcotest.fail e)
    [
      (Wire.ordinal_of_command (Wire.Pcr_read 0), Wire.Digest_resp (d20 'd'));
      (Wire.ordinal_of_command (Wire.Nv_write (0, "")), Wire.Unit_resp);
      (Wire.ordinal_of_command (Wire.Quote { nonce = d20 'n'; selection = [] }), Wire.Quote_resp quote);
      (Wire.ordinal_of_command Wire.Oiap, Wire.Session_resp { handle = 7; nonce_even = d20 'e' });
      ( Wire.ordinal_of_command (Wire.Osap { entity = ""; no_osap = d20 'x' }),
        Wire.Osap_resp { handle = 9; nonce_even = d20 'e'; ne_osap = d20 'f' } );
      (Wire.ordinal_of_command (Wire.Seal { auth; release = []; data = "" }), Wire.Blob_resp "blob");
      (Wire.ordinal_of_command (Wire.Read_counter 0), Wire.Counter_resp 42);
      (Wire.ordinal_of_command (Wire.Pcr_read 0), Wire.Error_resp Tpm_types.Bad_auth);
      (Wire.ordinal_of_command (Wire.Pcr_read 0), Wire.Error_resp Tpm_types.Wrong_pcr_value);
    ]

let test_header_structure () =
  let buf = Wire.encode_command (Wire.Pcr_read 17) in
  Alcotest.(check int) "plain tag" 0x00C1 (Util.int_of_be16 buf 0);
  Alcotest.(check int) "length = buffer" (String.length buf) (Util.int_of_be32 buf 2);
  Alcotest.(check int) "pcr_read ordinal" 0x15 (Util.int_of_be32 buf 6);
  let auth_buf = Wire.encode_command (Wire.Seal { auth; release = []; data = "" }) in
  Alcotest.(check int) "auth1 tag" 0x00C2 (Util.int_of_be16 auth_buf 0);
  Alcotest.(check int) "seal ordinal" 0x17 (Util.int_of_be32 auth_buf 6)

let test_malformed_buffers_rejected () =
  List.iter
    (fun (label, buf) ->
      Alcotest.(check bool) label true (Result.is_error (Wire.decode_command buf)))
    [
      ("empty", "");
      ("short", "\x00\xC1\x00");
      ("bad tag", Util.be16_of_int 0xDEAD ^ Util.be32_of_int 10 ^ Util.be32_of_int 0x15);
      ( "length lies",
        Util.be16_of_int 0x00C1 ^ Util.be32_of_int 999 ^ Util.be32_of_int 0x15 );
      ( "unknown ordinal",
        Util.be16_of_int 0x00C1 ^ Util.be32_of_int 10 ^ Util.be32_of_int 0xFFFF );
      ( "truncated body",
        let b = Wire.encode_command (Wire.Pcr_extend (17, Sha1.digest "m")) in
        (* shorten and fix the length field *)
        let cut = String.sub b 0 (String.length b - 5) in
        String.sub cut 0 2 ^ Util.be32_of_int (String.length cut) ^ String.sub cut 6 (String.length cut - 6) );
      ( "trailing bytes",
        let b = Wire.encode_command (Wire.Pcr_read 17) ^ "junk" in
        String.sub b 0 2 ^ Util.be32_of_int (String.length b) ^ String.sub b 6 (String.length b - 6) );
      ( "wrong tag for auth command",
        let b = Wire.encode_command (Wire.Seal { auth; release = []; data = "" }) in
        Util.be16_of_int 0x00C1 ^ String.sub b 2 (String.length b - 2) );
    ]

let test_dispatch_never_crashes () =
  let tpm = make_tpm () in
  let rng = Prng.create ~seed:"fuzz" in
  for _ = 1 to 200 do
    let len = Prng.int_below rng 64 in
    let resp = Wire.dispatch tpm (Prng.bytes rng len) in
    (* always a well-formed error response *)
    Alcotest.(check bool) "well-formed" true (String.length resp >= 10);
    Alcotest.(check int) "response tag" 0x00C4 (Util.int_of_be16 resp 0)
  done

let test_dispatch_equivalence () =
  (* commands through the wire behave like the direct API *)
  let tpm = make_tpm () in
  (match Wire.call tpm (Wire.Pcr_read 17) with
  | Ok (Wire.Digest_resp d) ->
      Alcotest.(check string) "pcr over the wire" (Result.get_ok (Tpm.pcr_read tpm 17)) d
  | other -> Alcotest.failf "unexpected: %s" (match other with Error e -> e | _ -> "wrong shape"));
  (match Wire.call tpm (Wire.Pcr_read 99) with
  | Ok (Wire.Error_resp Tpm_types.Bad_index) -> ()
  | _ -> Alcotest.fail "bad index not signalled over the wire");
  (match Wire.call tpm (Wire.Get_random 32) with
  | Ok (Wire.Digest_resp r) -> Alcotest.(check int) "random length" 32 (String.length r)
  | _ -> Alcotest.fail "get_random failed");
  match Wire.call tpm (Wire.Quote { nonce = d20 'n'; selection = [ 17 ] }) with
  | Ok (Wire.Quote_resp q) ->
      let payload = Tpm.quote_payload q.Tpm.quoted_composite ~nonce:(d20 'n') in
      Alcotest.(check bool) "wire quote verifies" true
        (Pkcs1.verify (Tpm.aik_public tpm) Hash.SHA1 ~msg:payload
           ~signature:q.Tpm.signature)
  | _ -> Alcotest.fail "quote over the wire failed"

let test_seal_unseal_over_the_wire () =
  (* the full authorized seal/unseal protocol, transported as bytes *)
  let tpm = make_tpm () in
  let rng = Prng.create ~seed:"wire-seal" in
  let no_osap = Prng.bytes rng 20 in
  let handle, nonce_even, ne_osap =
    match Wire.call tpm (Wire.Osap { entity = "SRK"; no_osap }) with
    | Ok (Wire.Osap_resp { handle; nonce_even; ne_osap }) -> (handle, nonce_even, ne_osap)
    | _ -> Alcotest.fail "osap failed"
  in
  let shared = Auth.osap_shared_secret ~usage_auth:(Tpm.srk_auth tpm) ~ne_osap ~no_osap in
  let release = [] and data = "bytes on the bus" in
  let nonce_odd = Prng.bytes rng 20 in
  let mac =
    Auth.auth_mac ~secret:shared
      ~command_digest:(Tpm.seal_command_digest ~release ~data)
      ~nonce_even ~nonce_odd
  in
  let blob =
    match
      Wire.call tpm
        (Wire.Seal { auth = { Tpm.session = handle; nonce_odd; mac }; release; data })
    with
    | Ok (Wire.Blob_resp b) -> b
    | Ok (Wire.Error_resp e) -> Alcotest.fail (Tpm_types.error_to_string e)
    | _ -> Alcotest.fail "seal failed"
  in
  (* a fresh session for the unseal (the seal consumed the first one) *)
  let no_osap2 = Prng.bytes rng 20 in
  let handle2, nonce_even2, ne_osap2 =
    match Wire.call tpm (Wire.Osap { entity = "SRK"; no_osap = no_osap2 }) with
    | Ok (Wire.Osap_resp { handle; nonce_even; ne_osap }) -> (handle, nonce_even, ne_osap)
    | _ -> Alcotest.fail "second osap failed"
  in
  let shared2 =
    Auth.osap_shared_secret ~usage_auth:(Tpm.srk_auth tpm) ~ne_osap:ne_osap2
      ~no_osap:no_osap2
  in
  let nonce_odd2 = Prng.bytes rng 20 in
  let mac2 =
    Auth.auth_mac ~secret:shared2
      ~command_digest:(Tpm.unseal_command_digest ~blob)
      ~nonce_even:nonce_even2 ~nonce_odd:nonce_odd2
  in
  match
    Wire.call tpm
      (Wire.Unseal { auth = { Tpm.session = handle2; nonce_odd = nonce_odd2; mac = mac2 }; blob })
  with
  | Ok (Wire.Blob_resp recovered) -> Alcotest.(check string) "roundtrip" data recovered
  | Ok (Wire.Error_resp e) -> Alcotest.fail (Tpm_types.error_to_string e)
  | _ -> Alcotest.fail "unseal failed"

let test_driver_submit () =
  let machine = Machine.create ~memory_size:(1024 * 1024) Timing.default in
  let tpm = Tpm.create machine (Prng.create ~seed:"drv-wire") ~key_bits:512 in
  let drv = Flicker_slb.Mod_tpm_driver.attach tpm in
  (* unclaimed: the bus is not ours *)
  Alcotest.(check bool) "unclaimed submit fails" true
    (Result.is_error (Flicker_slb.Mod_tpm_driver.submit drv (Wire.Pcr_read 17)));
  ignore (Flicker_slb.Mod_tpm_driver.claim drv);
  (match Flicker_slb.Mod_tpm_driver.submit drv (Wire.Pcr_read 17) with
  | Ok (Wire.Digest_resp d) -> Alcotest.(check int) "digest" 20 (String.length d)
  | _ -> Alcotest.fail "submit failed");
  (* raw garbage comes back as an error response, not an exception *)
  match Flicker_slb.Mod_tpm_driver.submit_raw drv "garbage" with
  | Ok resp -> Alcotest.(check bool) "error response" true (Util.int_of_be32 resp 6 <> 0)
  | Error e -> Alcotest.fail e

let prop_command_roundtrip =
  let gen =
    QCheck.Gen.(
      oneof
        [
          map (fun i -> Wire.Pcr_read (abs i mod 24)) int;
          map (fun s -> Wire.Pcr_extend (17, Sha1.digest s)) string;
          map (fun n -> Wire.Get_random (abs n mod 1024)) int;
          map (fun s -> Wire.Nv_write (3, s)) (string_size (int_range 0 200));
          map
            (fun (a, b) ->
              Wire.Seal
                {
                  auth;
                  release = [ (17, Sha1.digest a) ];
                  data = b;
                })
            (pair string (string_size (int_range 0 300)));
          map (fun s -> Wire.Unseal { auth; blob = s }) (string_size (int_range 0 300));
        ])
  in
  QCheck.Test.make ~name:"wire command roundtrip" ~count:200 (QCheck.make gen)
    (fun cmd -> Wire.decode_command (Wire.encode_command cmd) = Ok cmd)

let () =
  Alcotest.run "tpm-wire"
    [
      ( "marshaling",
        [
          Alcotest.test_case "command roundtrip" `Quick test_command_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
          Alcotest.test_case "header structure" `Quick test_header_structure;
          Alcotest.test_case "malformed rejected" `Quick test_malformed_buffers_rejected;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "fuzz never crashes" `Quick test_dispatch_never_crashes;
          Alcotest.test_case "equivalence" `Quick test_dispatch_equivalence;
          Alcotest.test_case "authorized seal/unseal" `Quick test_seal_unseal_over_the_wire;
          Alcotest.test_case "driver submit" `Quick test_driver_submit;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_command_roundtrip ]);
    ]
