let digest_size = 32
let mask32 = 0xFFFFFFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type state = {
  h : int array; (* 8 state words *)
  w : int array; (* message schedule scratch *)
}

let iv =
  [|
    0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
    0x1f83d9ab; 0x5be0cd19;
  |]

(* [x], below 2^32, rotated right by [n] within 32 bits, with the bits
   shifted past bit 31 left in place *)
let rotr x n = (x lsr n) lor (x lsl (32 - n))

(* Compress the 64-byte block at [off] of [s], reading its words
   big-endian in place. Ch is written g ^ (e & (f ^ g)) and Maj
   (a & b) | (c & (a | b)), FIPS 180's functions with fewer operations.
   As in Sha1.compress, only sums are masked to 32 bits: the sigma
   functions feed sums and keep the bits their rotations push past
   bit 31, and every word they rotate or shift right is a masked sum.
   [w] holds 64 words, [k] 64 constants, and every index read here is
   in [0, 63] by the loop bounds, so the reads skip the bounds check. *)
let compress st s off =
  let w = st.w in
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (String.get_int32_be s (off + (4 * t))) land mask32
  done;
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
    let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
    w.(t) <- (Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask32
  done;
  let h = st.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let e0 = !e and a0 = !a in
    let s1 = rotr e0 6 lxor rotr e0 11 lxor rotr e0 25 in
    let ch = !g lxor (e0 land (!f lxor !g)) in
    let temp1 = !hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let s0 = rotr a0 2 lxor rotr a0 13 lxor rotr a0 22 in
    let maj = (a0 land !b) lor (!c land (a0 lor !b)) in
    hh := !g;
    g := !f;
    f := e0;
    e := (!d + temp1) land mask32;
    d := !c;
    c := !b;
    b := a0;
    a := (temp1 + s0 + maj) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

include Block_hash.Make (struct
  type nonrec state = state

  let name = "Sha256"
  let big_endian = true
  let create () = { h = Array.make 8 0; w = Array.make 64 0 }
  let reset st = Array.blit iv 0 st.h 0 8
  let compress = compress

  let output st =
    let out = Bytes.create 32 in
    Array.iteri (fun i h -> Bytes.set_int32_be out (4 * i) (Int32.of_int h)) st.h;
    Bytes.unsafe_to_string out
end)

let hex s = Util.to_hex (digest s)
