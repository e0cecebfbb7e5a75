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
  check "aes-192 dec" (hex pt)
    (hex (Aes.decrypt_block k192 (Util.of_hex "dda97ca4864cdfe06eaf70a0ec0d7191")));
  let k256 =
    Aes.expand_key
      (Util.of_hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
  in
  check "aes-256 enc" "8ea2b7ca516745bfeafc49904b496089" (hex (Aes.encrypt_block k256 pt));
  check "aes-256 dec" (hex pt)
    (hex (Aes.decrypt_block k256 (Util.of_hex "8ea2b7ca516745bfeafc49904b496089")))

(* NIST SP 800-38A F.2.1-F.2.6: CBC over the four-block message under
   each key size, encrypt and decrypt. [encrypt_cbc] appends a padding
   block, so each ciphertext is NIST's 64 bytes followed by that block
   (computed with Python's cryptography and with openssl enc, which
   agree). *)
let cbc_vectors =
  [
    ( "AES-128",
      "2b7e151628aed2a6abf7158809cf4f3c",
      "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2"
      ^ "73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7"
      ^ "8cb82807230e1321d3fae00d18cc2012" );
    ( "AES-192",
      "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
      "4f021db243bc633d7178183a9fa071e8b4d9ada9ad7dedf4e5e738763f69145a"
      ^ "571b242012fb7ae07fa9baac3df102e008b0e27988598881d920a9e64f5615cd"
      ^ "612ccd79224b350935d45dd6a98f8176" );
    ( "AES-256",
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
      "f58c4c04d6e5f1ba779eabfb5f7bfbd69cfc4e967edb808d679f777bc6702c7d"
      ^ "39f23369a9d9bacfa530e26304231461b2eb05e2c39be9fcda6c19078c6a9d1b"
      ^ "3f461796d6b0d6b2e0c2a72b4d80e644" );
  ]

let test_aes_cbc_nist () =
  let iv = Util.of_hex "000102030405060708090a0b0c0d0e0f" in
  let pt =
    Util.of_hex
      ("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
     ^ "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710")
  in
  List.iter
    (fun (name, key, expected) ->
      let key = Aes.expand_key (Util.of_hex key) in
      let ct = Aes.encrypt_cbc key ~iv pt in
      check (name ^ " encrypt, NIST blocks") (String.sub expected 0 128)
        (hex (String.sub ct 0 64));
      check (name ^ " encrypt, padding block") (String.sub expected 128 32)
        (hex (String.sub ct 64 16));
      (* NIST's decrypt direction: each block through decrypt_block,
         XORed with the ciphertext block before it *)
      let nist = Util.of_hex (String.sub expected 0 128) in
      let recovered =
        String.concat ""
          (List.map2
             (fun block prev -> Util.xor (Aes.decrypt_block key block) prev)
             (Util.chunks 16 nist)
             (iv :: Util.chunks 16 (String.sub nist 0 48)))
      in
      check (name ^ " decrypt, NIST blocks") (hex pt) (hex recovered);
      check (name ^ " decrypt_cbc roundtrip") (hex pt) (hex (Aes.decrypt_cbc key ~iv ct)))
    cbc_vectors

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

(* The byte-oriented kernel Aes ran before its T-table rewrite, kept as
   the reference the differential properties compare against: a 16-int
   state per block, column-major, with SubBytes by S-box lookup,
   ShiftRows by copying rows and MixColumns by shift-and-add GF(2^8)
   products. Only the argument checks are left out. The S-box is
   derived from FIPS-197 5.1.1 (the inverse in GF(2^8), then the affine
   map) instead of copied, so a wrong entry in Aes's table shows too. *)
module Reference = struct
  let xtime b =
    let v = b lsl 1 in
    if v land 0x100 <> 0 then v lxor 0x11b else v

  let gmul a b =
    let acc = ref 0 and a = ref a and b = ref b in
    while !b <> 0 do
      if !b land 1 = 1 then acc := !acc lxor !a;
      a := xtime !a;
      b := !b lsr 1
    done;
    !acc land 0xff

  let sbox =
    Array.init 256 (fun x ->
        (* x^254 is x's inverse, and 0's image is 0 *)
        let inv = ref 1 in
        for _ = 1 to 254 do
          inv := gmul !inv x
        done;
        let rotl n = ((!inv lsl n) lor (!inv lsr (8 - n))) land 0xff in
        !inv lxor rotl 1 lxor rotl 2 lxor rotl 3 lxor rotl 4 lxor 0x63)

  let inv_sbox =
    let t = Array.make 256 0 in
    Array.iteri (fun i v -> t.(v) <- i) sbox;
    t

  type key = { rounds : int; round_keys : int array }

  let sub_word w =
    (sbox.((w lsr 24) land 0xff) lsl 24)
    lor (sbox.((w lsr 16) land 0xff) lsl 16)
    lor (sbox.((w lsr 8) land 0xff) lsl 8)
    lor sbox.(w land 0xff)

  let rot_word w = ((w lsl 8) lor (w lsr 24)) land 0xFFFFFFFF
  let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

  let expand_key key_str =
    let nk = String.length key_str / 4 in
    let rounds = nk + 6 in
    let nwords = 4 * (rounds + 1) in
    let w = Array.make nwords 0 in
    for i = 0 to nk - 1 do
      w.(i) <- Util.int_of_be32 key_str (4 * i)
    done;
    for i = nk to nwords - 1 do
      let temp = ref w.(i - 1) in
      if i mod nk = 0 then temp := sub_word (rot_word !temp) lxor (rcon.((i / nk) - 1) lsl 24)
      else if nk > 6 && i mod nk = 4 then temp := sub_word !temp;
      w.(i) <- w.(i - nk) lxor !temp
    done;
    { rounds; round_keys = w }

  let add_round_key state w off =
    for c = 0 to 3 do
      let word = w.(off + c) in
      for r = 0 to 3 do
        state.((4 * c) + r) <- state.((4 * c) + r) lxor ((word lsr (8 * (3 - r))) land 0xff)
      done
    done

  let state_of_string s = Array.init 16 (fun i -> Char.code s.[i])
  let string_of_state state = String.init 16 (fun i -> Char.chr state.(i))

  let shift_rows state =
    (* state is column-major: state.(4*c + r) *)
    for r = 1 to 3 do
      let row = Array.init 4 (fun c -> state.((4 * c) + r)) in
      for c = 0 to 3 do
        state.((4 * c) + r) <- row.((c + r) mod 4)
      done
    done

  let inv_shift_rows state =
    for r = 1 to 3 do
      let row = Array.init 4 (fun c -> state.((4 * c) + r)) in
      for c = 0 to 3 do
        state.((4 * c) + r) <- row.((c - r + 4) mod 4)
      done
    done

  let mix_columns state =
    for c = 0 to 3 do
      let o = 4 * c in
      let a0 = state.(o) and a1 = state.(o + 1) and a2 = state.(o + 2) and a3 = state.(o + 3) in
      state.(o) <- gmul a0 2 lxor gmul a1 3 lxor a2 lxor a3;
      state.(o + 1) <- a0 lxor gmul a1 2 lxor gmul a2 3 lxor a3;
      state.(o + 2) <- a0 lxor a1 lxor gmul a2 2 lxor gmul a3 3;
      state.(o + 3) <- gmul a0 3 lxor a1 lxor a2 lxor gmul a3 2
    done

  let inv_mix_columns state =
    for c = 0 to 3 do
      let o = 4 * c in
      let a0 = state.(o) and a1 = state.(o + 1) and a2 = state.(o + 2) and a3 = state.(o + 3) in
      state.(o) <- gmul a0 14 lxor gmul a1 11 lxor gmul a2 13 lxor gmul a3 9;
      state.(o + 1) <- gmul a0 9 lxor gmul a1 14 lxor gmul a2 11 lxor gmul a3 13;
      state.(o + 2) <- gmul a0 13 lxor gmul a1 9 lxor gmul a2 14 lxor gmul a3 11;
      state.(o + 3) <- gmul a0 11 lxor gmul a1 13 lxor gmul a2 9 lxor gmul a3 14
    done

  let encrypt_block key block =
    let state = state_of_string block in
    add_round_key state key.round_keys 0;
    for round = 1 to key.rounds - 1 do
      Array.iteri (fun i v -> state.(i) <- sbox.(v)) (Array.copy state);
      shift_rows state;
      mix_columns state;
      add_round_key state key.round_keys (4 * round)
    done;
    Array.iteri (fun i v -> state.(i) <- sbox.(v)) (Array.copy state);
    shift_rows state;
    add_round_key state key.round_keys (4 * key.rounds);
    string_of_state state

  let decrypt_block key block =
    let state = state_of_string block in
    add_round_key state key.round_keys (4 * key.rounds);
    for round = key.rounds - 1 downto 1 do
      inv_shift_rows state;
      Array.iteri (fun i v -> state.(i) <- inv_sbox.(v)) (Array.copy state);
      add_round_key state key.round_keys (4 * round);
      inv_mix_columns state
    done;
    inv_shift_rows state;
    Array.iteri (fun i v -> state.(i) <- inv_sbox.(v)) (Array.copy state);
    add_round_key state key.round_keys 0;
    string_of_state state

  let encrypt_cbc key ~iv plaintext =
    let pad = 16 - (String.length plaintext mod 16) in
    let padded = plaintext ^ String.make pad (Char.chr pad) in
    let out = Buffer.create (String.length padded) in
    let prev = ref iv in
    List.iter
      (fun block ->
        let c = encrypt_block key (Util.xor block !prev) in
        Buffer.add_string out c;
        prev := c)
      (Util.chunks 16 padded);
    Buffer.contents out

  let ctr key ~nonce data =
    let counter = Bytes.of_string nonce in
    let increment () =
      let rec bump i =
        if i >= 0 then begin
          let v = (Char.code (Bytes.get counter i) + 1) land 0xff in
          Bytes.set counter i (Char.chr v);
          if v = 0 then bump (i - 1)
        end
      in
      bump 15
    in
    let out = Buffer.create (String.length data) in
    List.iter
      (fun block ->
        let ks = encrypt_block key (Bytes.to_string counter) in
        increment ();
        Buffer.add_string out (Util.xor block (String.sub ks 0 (String.length block))))
      (Util.chunks 16 data);
    Buffer.contents out
end

(* a 16-, 24- or 32-byte key *)
let gen_key = QCheck.Gen.(oneofl [ 16; 24; 32 ] >>= fun n -> string_size (return n))

let prop_block_reference =
  QCheck.Test.make ~name:"blocks = byte-oriented reference" ~count:300
    (QCheck.make
       ~print:(fun (k, b) -> Printf.sprintf "key=%s block=%s" (hex k) (hex b))
       QCheck.Gen.(pair gen_key (string_size (return 16))))
    (fun (k, block) ->
      let key = Aes.expand_key k and reference = Reference.expand_key k in
      let ct = Aes.encrypt_block key block in
      ct = Reference.encrypt_block reference block
      && Aes.decrypt_block key block = Reference.decrypt_block reference block
      && Aes.decrypt_block key ct = block)

let prop_cbc_reference =
  QCheck.Test.make ~name:"CBC = byte-oriented reference, 0-600 bytes" ~count:200
    (QCheck.make
       ~print:(fun (k, iv, data) ->
         Printf.sprintf "key=%s iv=%s data=%s" (hex k) (hex iv) (hex data))
       QCheck.Gen.(triple gen_key (string_size (return 16)) (string_size (int_range 0 600))))
    (fun (k, iv, data) ->
      let key = Aes.expand_key k in
      let ct = Aes.encrypt_cbc key ~iv data in
      ct = Reference.encrypt_cbc (Reference.expand_key k) ~iv data
      && Aes.decrypt_cbc key ~iv ct = data)

(* nonces ending in a run of 0xff bytes, so the counter carries across
   bytes and words *)
let prop_ctr_reference =
  QCheck.Test.make ~name:"CTR = byte-oriented reference, carries" ~count:200
    (QCheck.make
       ~print:(fun (k, nonce, data) ->
         Printf.sprintf "key=%s nonce=%s data=%s" (hex k) (hex nonce) (hex data))
       QCheck.Gen.(
         triple gen_key
           (pair (string_size (return 16)) (int_range 0 16) >|= fun (n, ones) ->
            String.mapi (fun i c -> if i >= 16 - ones then '\xff' else c) n)
           (string_size (int_range 0 100))))
    (fun (k, nonce, data) ->
      Aes.ctr (Aes.expand_key k) ~nonce data
      = Reference.ctr (Reference.expand_key k) ~nonce data)

(* PKCS#7 unpadding as a byte loop: [None] unless the last byte [pad] is
   1..16 and the last [pad] bytes all equal it. *)
let reference_unpad padded =
  let len = String.length padded in
  let pad = Char.code padded.[len - 1] in
  if pad < 1 || pad > 16 then None
  else if String.exists (fun c -> Char.code c <> pad) (String.sub padded (len - pad) pad) then
    None
  else Some (String.sub padded 0 (len - pad))

(* Messages of 1-3 blocks ending in a run of one byte value (0-20) that
   is often, but not always, as long as that value, with sometimes one
   byte of the run changed. Encrypted with the padding block dropped,
   they reach decrypt_cbc's padding check as they are. *)
let prop_cbc_padding_check =
  let gen =
    QCheck.Gen.(
      int_range 1 3 >>= fun blocks ->
      string_size (return (16 * blocks)) >>= fun body ->
      int_range 0 20 >>= fun pad ->
      oneof [ return pad; int_range 0 20 ] >>= fun run ->
      opt (int_range 1 15) >>= fun flip ->
      let len = String.length body in
      return
        (String.mapi
           (fun i c ->
             if Some (len - 1 - i) = flip then Char.chr (pad lxor 0x40)
             else if i >= len - run || i = len - 1 then Char.chr pad
             else c)
           body))
  in
  QCheck.Test.make ~name:"CBC padding check = byte loop" ~count:500
    (QCheck.make ~print:hex gen) (fun padded ->
      let key = Aes.expand_key (String.make 16 'z') and iv = String.make 16 'i' in
      let ct = Aes.encrypt_cbc key ~iv padded in
      let ct = String.sub ct 0 (String.length padded) in
      match Aes.decrypt_cbc key ~iv ct with
      | exception Invalid_argument m ->
          m = "Aes.decrypt_cbc: bad padding" && reference_unpad padded = None
      | plaintext -> reference_unpad padded = Some plaintext)

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
          [
            prop_cbc_roundtrip;
            prop_ctr_involution;
            prop_cbc_expands;
            prop_block_reference;
            prop_cbc_reference;
            prop_ctr_reference;
            prop_cbc_padding_check;
          ]
      );
    ]
