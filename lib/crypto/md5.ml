let digest_size = 16
let mask32 = 0xFFFFFFFF

let s =
  [|
    7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22; 5; 9; 14; 20;
    5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20; 4; 11; 16; 23; 4; 11; 16; 23; 4;
    11; 16; 23; 4; 11; 16; 23; 6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21; 6;
    10; 15; 21;
  |]

let k =
  [|
    0xd76aa478; 0xe8c7b756; 0x242070db; 0xc1bdceee; 0xf57c0faf; 0x4787c62a;
    0xa8304613; 0xfd469501; 0x698098d8; 0x8b44f7af; 0xffff5bb1; 0x895cd7be;
    0x6b901122; 0xfd987193; 0xa679438e; 0x49b40821; 0xf61e2562; 0xc040b340;
    0x265e5a51; 0xe9b6c7aa; 0xd62f105d; 0x02441453; 0xd8a1e681; 0xe7d3fbc8;
    0x21e1cde6; 0xc33707d6; 0xf4d50d87; 0x455a14ed; 0xa9e3e905; 0xfcefa3f8;
    0x676f02d9; 0x8d2a4c8a; 0xfffa3942; 0x8771f681; 0x6d9d6122; 0xfde5380c;
    0xa4beea44; 0x4bdecfa9; 0xf6bb4b60; 0xbebfbc70; 0x289b7ec6; 0xeaa127fa;
    0xd4ef3085; 0x04881d05; 0xd9d4d039; 0xe6db99e5; 0x1fa27cf8; 0xc4ac5665;
    0xf4292244; 0x432aff97; 0xab9423a7; 0xfc93a039; 0x655b59c3; 0x8f0ccc92;
    0xffeff47d; 0x85845dd1; 0x6fa87e4f; 0xfe2ce6e0; 0xa3014314; 0x4e0811a1;
    0xf7537e82; 0xbd3af235; 0x2ad7d2bb; 0xeb86d391;
  |]

type state = {
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable d : int;
  m : int array; (* 16 little-endian message words *)
}

let rotl32 v n = ((v lsl n) lor (v lsr (32 - n))) land mask32

(* Compress the 64-byte block at [off] of [str], reading its words
   little-endian in place. *)
let compress st str off =
  let m = st.m in
  for i = 0 to 15 do
    m.(i) <- Int32.to_int (String.get_int32_le str (off + (4 * i))) land mask32
  done;
  let a = ref st.a and b = ref st.b and c = ref st.c and d = ref st.d in
  for i = 0 to 63 do
    let f, g =
      if i < 16 then (((!b land !c) lor (lnot !b land !d)) land mask32, i)
      else if i < 32 then (((!d land !b) lor (lnot !d land !c)) land mask32, ((5 * i) + 1) mod 16)
      else if i < 48 then (!b lxor !c lxor !d, ((3 * i) + 5) mod 16)
      else ((!c lxor (!b lor (lnot !d land mask32))) land mask32, (7 * i) mod 16)
    in
    let temp = !d in
    d := !c;
    c := !b;
    b := (!b + rotl32 ((!a + f + k.(i) + m.(g)) land mask32) s.(i)) land mask32;
    a := temp
  done;
  st.a <- (st.a + !a) land mask32;
  st.b <- (st.b + !b) land mask32;
  st.c <- (st.c + !c) land mask32;
  st.d <- (st.d + !d) land mask32

include Block_hash.Make (struct
  type nonrec state = state

  let name = "Md5"
  let big_endian = false
  let create () = { a = 0; b = 0; c = 0; d = 0; m = Array.make 16 0 }

  let reset st =
    st.a <- 0x67452301;
    st.b <- 0xefcdab89;
    st.c <- 0x98badcfe;
    st.d <- 0x10325476

  let compress = compress

  let output st =
    let out = Bytes.create 16 in
    Bytes.set_int32_le out 0 (Int32.of_int st.a);
    Bytes.set_int32_le out 4 (Int32.of_int st.b);
    Bytes.set_int32_le out 8 (Int32.of_int st.c);
    Bytes.set_int32_le out 12 (Int32.of_int st.d);
    Bytes.unsafe_to_string out
end)

let hex str = Util.to_hex (digest str)
