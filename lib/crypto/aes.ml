(* AES (FIPS-197) as 32-bit T-table rounds, the rijndael-alg-fst form.
   Only the simulated TPM's sealed storage calls it, on every seal and
   unseal: each CA session decrypts its sealed state and encrypts it
   again.

   The state is four big-endian column words. One encryption round is
   sixteen lookups in te0..te3, which fold SubBytes, ShiftRows and
   MixColumns into one word per state byte, XORed with the round key.
   Decryption runs FIPS-197's equivalent inverse cipher (5.3.5) over
   td0..td3, with InvMixColumns applied to its round keys once, when the
   key is expanded. The last round has no MixColumns and looks its bytes
   up in the S-box itself.

   Key and data bytes only ever index tables: no branch depends on
   them, and decrypt_cbc's padding check branches once, on its verdict.
   On real hardware, which table lines a lookup touches still shows in
   cache timing (Bernstein, 2005). *)

let mask32 = 0xFFFFFFFF

let sbox =
  [|
    0x63; 0x7c; 0x77; 0x7b; 0xf2; 0x6b; 0x6f; 0xc5; 0x30; 0x01; 0x67; 0x2b;
    0xfe; 0xd7; 0xab; 0x76; 0xca; 0x82; 0xc9; 0x7d; 0xfa; 0x59; 0x47; 0xf0;
    0xad; 0xd4; 0xa2; 0xaf; 0x9c; 0xa4; 0x72; 0xc0; 0xb7; 0xfd; 0x93; 0x26;
    0x36; 0x3f; 0xf7; 0xcc; 0x34; 0xa5; 0xe5; 0xf1; 0x71; 0xd8; 0x31; 0x15;
    0x04; 0xc7; 0x23; 0xc3; 0x18; 0x96; 0x05; 0x9a; 0x07; 0x12; 0x80; 0xe2;
    0xeb; 0x27; 0xb2; 0x75; 0x09; 0x83; 0x2c; 0x1a; 0x1b; 0x6e; 0x5a; 0xa0;
    0x52; 0x3b; 0xd6; 0xb3; 0x29; 0xe3; 0x2f; 0x84; 0x53; 0xd1; 0x00; 0xed;
    0x20; 0xfc; 0xb1; 0x5b; 0x6a; 0xcb; 0xbe; 0x39; 0x4a; 0x4c; 0x58; 0xcf;
    0xd0; 0xef; 0xaa; 0xfb; 0x43; 0x4d; 0x33; 0x85; 0x45; 0xf9; 0x02; 0x7f;
    0x50; 0x3c; 0x9f; 0xa8; 0x51; 0xa3; 0x40; 0x8f; 0x92; 0x9d; 0x38; 0xf5;
    0xbc; 0xb6; 0xda; 0x21; 0x10; 0xff; 0xf3; 0xd2; 0xcd; 0x0c; 0x13; 0xec;
    0x5f; 0x97; 0x44; 0x17; 0xc4; 0xa7; 0x7e; 0x3d; 0x64; 0x5d; 0x19; 0x73;
    0x60; 0x81; 0x4f; 0xdc; 0x22; 0x2a; 0x90; 0x88; 0x46; 0xee; 0xb8; 0x14;
    0xde; 0x5e; 0x0b; 0xdb; 0xe0; 0x32; 0x3a; 0x0a; 0x49; 0x06; 0x24; 0x5c;
    0xc2; 0xd3; 0xac; 0x62; 0x91; 0x95; 0xe4; 0x79; 0xe7; 0xc8; 0x37; 0x6d;
    0x8d; 0xd5; 0x4e; 0xa9; 0x6c; 0x56; 0xf4; 0xea; 0x65; 0x7a; 0xae; 0x08;
    0xba; 0x78; 0x25; 0x2e; 0x1c; 0xa6; 0xb4; 0xc6; 0xe8; 0xdd; 0x74; 0x1f;
    0x4b; 0xbd; 0x8b; 0x8a; 0x70; 0x3e; 0xb5; 0x66; 0x48; 0x03; 0xf6; 0x0e;
    0x61; 0x35; 0x57; 0xb9; 0x86; 0xc1; 0x1d; 0x9e; 0xe1; 0xf8; 0x98; 0x11;
    0x69; 0xd9; 0x8e; 0x94; 0x9b; 0x1e; 0x87; 0xe9; 0xce; 0x55; 0x28; 0xdf;
    0x8c; 0xa1; 0x89; 0x0d; 0xbf; 0xe6; 0x42; 0x68; 0x41; 0x99; 0x2d; 0x0f;
    0xb0; 0x54; 0xbb; 0x16;
  |]

let inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i v -> t.(v) <- i) sbox;
  t

(* multiplication by x in GF(2^8), reducing by x^8 + x^4 + x^3 + x + 1
   without a branch *)
let xtime b = (b lsl 1) lxor (0x11b * (b lsr 7))

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

(* One flat table of 2,048 words: te0..te3 at 0, 256, 512 and 768, then
   td0..td3 at 1024, 1280, 1536 and 1792. te0.(b) is the column
   (2s, s, s, 3s) for s = sbox.(b), td0.(b) the column (14s, 9s, 13s,
   11s) for s = inv_sbox.(b), and the k-th table of each half is its
   first rotated right by 8k bits. Built once and never written, so
   every domain may read it. *)
let tables =
  Array.init 2048 (fun i ->
      let b = i land 0xff in
      let column =
        if i < 1024 then begin
          let s = sbox.(b) in
          let s2 = xtime s in
          (s2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor (s2 lxor s)
        end
        else begin
          let s = inv_sbox.(b) in
          let s2 = xtime s in
          let s4 = xtime s2 in
          let s8 = xtime s4 in
          ((s8 lxor s4 lxor s2) lsl 24)
          lor ((s8 lxor s) lsl 16)
          lor ((s8 lxor s4 lxor s) lsl 8)
          lor (s8 lxor s2 lxor s)
        end
      in
      rotr column (8 * ((i lsr 8) land 3)))

let te = 0
let td = 1024

(* A full round's output column: the table words, from the four tables
   at [base], of [a]'s top byte, [b]'s second, [c]'s third and [d]'s
   low byte. *)
let[@inline] column base a b c d =
  tables.(base + (a lsr 24))
  lxor tables.(base + 256 + ((b lsr 16) land 0xff))
  lxor tables.(base + 512 + ((c lsr 8) land 0xff))
  lxor tables.(base + 768 + (d land 0xff))

(* The last round's output column, which has no MixColumns: the [box]
   bytes of the same four state bytes. *)
let[@inline] last box a b c d =
  (box.(a lsr 24) lsl 24)
  lor (box.((b lsr 16) land 0xff) lsl 16)
  lor (box.((c lsr 8) land 0xff) lsl 8)
  lor box.(d land 0xff)

type key = {
  rounds : int;
  enc : int array; (* 4*(rounds+1) round-key words *)
  dec : int array;
      (* the same round keys last first, all but the outer two through
         InvMixColumns: the equivalent inverse cipher's *)
}

let sub_word w = last sbox w w w w
let rot_word w = ((w lsl 8) lor (w lsr 24)) land mask32
let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

(* td's column of a byte b is InvMixColumns applied to inv_sbox.(b) in
   that byte's row, so the td column of the S-box bytes of [w] is
   InvMixColumns of [w]. *)
let inv_mix_columns w =
  let s = sub_word w in
  column td s s s s

let expand_key key_str =
  let nk =
    match String.length key_str with
    | 16 -> 4
    | 24 -> 6
    | 32 -> 8
    | _ -> invalid_arg "Aes.expand_key: key must be 16, 24 or 32 bytes"
  in
  let rounds = nk + 6 in
  let nwords = 4 * (rounds + 1) in
  let enc = Array.make nwords 0 in
  for i = 0 to nk - 1 do
    enc.(i) <- Util.int_of_be32 key_str (4 * i)
  done;
  for i = nk to nwords - 1 do
    let temp = enc.(i - 1) in
    let temp =
      if i mod nk = 0 then sub_word (rot_word temp) lxor (rcon.((i / nk) - 1) lsl 24)
      else if nk > 6 && i mod nk = 4 then sub_word temp
      else temp
    in
    enc.(i) <- enc.(i - nk) lxor temp
  done;
  let dec =
    Array.init nwords (fun i ->
        let round = i / 4 in
        let w = enc.((4 * (rounds - round)) + (i land 3)) in
        if round = 0 || round = rounds then w else inv_mix_columns w)
  in
  { rounds; enc; dec }

let[@inline] word s off = Int32.to_int (String.get_int32_be s off) land mask32
let[@inline] bytes_word b off = Int32.to_int (Bytes.get_int32_be b off) land mask32
let[@inline] set_word b off w = Bytes.set_int32_be b off (Int32.of_int w)

(* Encrypt the block whose words are [s0]..[s3] into [dst] at [off]. *)
let encrypt_words k s0 s1 s2 s3 dst off =
  let rk = k.enc in
  let s0 = ref (s0 lxor rk.(0)) and s1 = ref (s1 lxor rk.(1)) in
  let s2 = ref (s2 lxor rk.(2)) and s3 = ref (s3 lxor rk.(3)) in
  for round = 1 to k.rounds - 1 do
    let a = !s0 and b = !s1 and c = !s2 and d = !s3 and o = 4 * round in
    s0 := column te a b c d lxor rk.(o);
    s1 := column te b c d a lxor rk.(o + 1);
    s2 := column te c d a b lxor rk.(o + 2);
    s3 := column te d a b c lxor rk.(o + 3)
  done;
  let a = !s0 and b = !s1 and c = !s2 and d = !s3 and o = 4 * k.rounds in
  set_word dst off (last sbox a b c d lxor rk.(o));
  set_word dst (off + 4) (last sbox b c d a lxor rk.(o + 1));
  set_word dst (off + 8) (last sbox c d a b lxor rk.(o + 2));
  set_word dst (off + 12) (last sbox d a b c lxor rk.(o + 3))

(* Decrypt the block whose words are [s0]..[s3], XOR the result with
   [m0]..[m3] (CBC's previous ciphertext block, or zeros), and write it
   into [dst] at [off]. InvShiftRows takes row r's byte from r columns
   to the left, where ShiftRows takes it from r columns to the right, so
   the columns are read in the other order. *)
let decrypt_words k s0 s1 s2 s3 m0 m1 m2 m3 dst off =
  let rk = k.dec in
  let s0 = ref (s0 lxor rk.(0)) and s1 = ref (s1 lxor rk.(1)) in
  let s2 = ref (s2 lxor rk.(2)) and s3 = ref (s3 lxor rk.(3)) in
  for round = 1 to k.rounds - 1 do
    let a = !s0 and b = !s1 and c = !s2 and d = !s3 and o = 4 * round in
    s0 := column td a d c b lxor rk.(o);
    s1 := column td b a d c lxor rk.(o + 1);
    s2 := column td c b a d lxor rk.(o + 2);
    s3 := column td d c b a lxor rk.(o + 3)
  done;
  let a = !s0 and b = !s1 and c = !s2 and d = !s3 and o = 4 * k.rounds in
  set_word dst off (last inv_sbox a d c b lxor rk.(o) lxor m0);
  set_word dst (off + 4) (last inv_sbox b a d c lxor rk.(o + 1) lxor m1);
  set_word dst (off + 8) (last inv_sbox c b a d lxor rk.(o + 2) lxor m2);
  set_word dst (off + 12) (last inv_sbox d c b a lxor rk.(o + 3) lxor m3)

let encrypt_block key block =
  if String.length block <> 16 then invalid_arg "Aes.encrypt_block: need 16 bytes";
  let out = Bytes.create 16 in
  encrypt_words key (word block 0) (word block 4) (word block 8) (word block 12) out 0;
  Bytes.to_string out

let decrypt_block key block =
  if String.length block <> 16 then invalid_arg "Aes.decrypt_block: need 16 bytes";
  let out = Bytes.create 16 in
  decrypt_words key (word block 0) (word block 4) (word block 8) (word block 12) 0 0 0 0
    out 0;
  Bytes.to_string out

let encrypt_cbc key ~iv plaintext =
  if String.length iv <> 16 then invalid_arg "Aes.encrypt_cbc: iv must be 16 bytes";
  let len = String.length plaintext in
  let pad = 16 - (len mod 16) in
  let out = Bytes.create (len + pad) in
  Bytes.blit_string plaintext 0 out 0 len;
  Bytes.fill out len pad (Char.chr pad);
  (* each block is encrypted in place, and its ciphertext chains into
     the next *)
  let c0 = ref (word iv 0) and c1 = ref (word iv 4) in
  let c2 = ref (word iv 8) and c3 = ref (word iv 12) in
  for block = 0 to ((len + pad) / 16) - 1 do
    let o = 16 * block in
    encrypt_words key
      (bytes_word out o lxor !c0)
      (bytes_word out (o + 4) lxor !c1)
      (bytes_word out (o + 8) lxor !c2)
      (bytes_word out (o + 12) lxor !c3)
      out o;
    c0 := bytes_word out o;
    c1 := bytes_word out (o + 4);
    c2 := bytes_word out (o + 8);
    c3 := bytes_word out (o + 12)
  done;
  Bytes.to_string out

let decrypt_cbc key ~iv ciphertext =
  if String.length iv <> 16 then invalid_arg "Aes.decrypt_cbc: iv must be 16 bytes";
  let len = String.length ciphertext in
  if len = 0 || len mod 16 <> 0 then invalid_arg "Aes.decrypt_cbc: malformed ciphertext";
  let out = Bytes.create len in
  let p0 = ref (word iv 0) and p1 = ref (word iv 4) in
  let p2 = ref (word iv 8) and p3 = ref (word iv 12) in
  for block = 0 to (len / 16) - 1 do
    let o = 16 * block in
    let c0 = word ciphertext o and c1 = word ciphertext (o + 4) in
    let c2 = word ciphertext (o + 8) and c3 = word ciphertext (o + 12) in
    decrypt_words key c0 c1 c2 c3 !p0 !p1 !p2 !p3 out o;
    p0 := c0;
    p1 := c1;
    p2 := c2;
    p3 := c3
  done;
  (* PKCS#7: the last byte [pad] is 1..16 and the last [pad] bytes all
     equal it. All of the last 16 bytes are read, each masked in or out,
     so only the verdict branches. *)
  let pad = Char.code (Bytes.get out (len - 1)) in
  let bad = ref ((pad - 1) lsr 4) in
  for i = 1 to 16 do
    let in_pad = (i - pad - 1) asr 62 in
    bad := !bad lor ((Char.code (Bytes.get out (len - i)) lxor pad) land in_pad)
  done;
  if !bad <> 0 then invalid_arg "Aes.decrypt_cbc: bad padding";
  Bytes.sub_string out 0 (len - pad)

let ctr key ~nonce data =
  if String.length nonce <> 16 then invalid_arg "Aes.ctr: nonce must be 16 bytes";
  let len = String.length data in
  let out = Bytes.create len in
  let keystream = Bytes.create 16 in
  (* the 128-bit big-endian counter block, one word at a time *)
  let n0 = ref (word nonce 0) and n1 = ref (word nonce 4) in
  let n2 = ref (word nonce 8) and n3 = ref (word nonce 12) in
  let next w = (w + 1) land mask32 in
  let off = ref 0 in
  while !off < len do
    encrypt_words key !n0 !n1 !n2 !n3 keystream 0;
    for i = 0 to min 16 (len - !off) - 1 do
      let j = !off + i in
      Bytes.set out j (Char.chr (Char.code data.[j] lxor Char.code (Bytes.get keystream i)))
    done;
    n3 := next !n3;
    if !n3 = 0 then begin
      n2 := next !n2;
      if !n2 = 0 then begin
        n1 := next !n1;
        if !n1 = 0 then n0 := next !n0
      end
    end;
    off := !off + 16
  done;
  Bytes.to_string out
