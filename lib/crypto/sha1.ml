let digest_size = 20
let mask32 = 0xFFFFFFFF

type state = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  w : int array; (* message schedule scratch *)
}

(* Host-side instrumentation: message bytes fed through [update] since
   process start (padding excluded). The measurement-memoization bench
   reads the delta around a session to prove the cache cut real hashing
   work without touching any simulated metric. Atomic, because sharded
   fleets hash from several domains at once and a plain [ref] would
   drop increments under contention. *)
let bytes_hashed_total = Atomic.make 0
let bytes_hashed () = Atomic.get bytes_hashed_total

(* [v], below 2^32, rotated left by [n] within 32 bits, with the bits
   shifted past bit 31 left in place *)
let rol v n = (v lsl n) lor (v lsr (32 - n))

(* Compress the 64-byte block at [off] of [s], reading its words
   big-endian in place. Each 20-round stage is one loop with its boolean
   function and constant written in, five rounds deep, so the working
   words trade roles instead of moving: a round adds into the word
   playing [e] and rotates the one playing [b]. Ch is written
   d ^ (b & (c ^ d)) and Maj (b & c) | (d & (b | c)), FIPS 180's
   functions with fewer operations.

   A round's five-term sum is masked to 32 bits once, and its terms are
   not: bits past 31 in a term only add multiples of 2^32, and OCaml's
   int arithmetic wraps modulo 2^63, itself a multiple of 2^32. So the
   rotations are unmasked, and the words playing [c], [d] and [e] may
   carry such bits. Only the words playing [a] and [b] are shifted
   right, and each is a masked sum from one of the two rounds before.
   [w] holds 80 words and every index read here is in [0, 79] by the
   loop bounds, so the reads skip the bounds check. *)
let compress st s off =
  let w = st.w in
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (String.get_int32_be s (off + (4 * t))) land mask32
  done;
  for t = 16 to 79 do
    w.(t) <-
      rol
        (Array.unsafe_get w (t - 3)
        lxor Array.unsafe_get w (t - 8)
        lxor Array.unsafe_get w (t - 14)
        lxor Array.unsafe_get w (t - 16))
        1
      land mask32
  done;
  let a = ref st.h0 and b = ref st.h1 and c = ref st.h2 in
  let d = ref st.h3 and e = ref st.h4 in
  for i = 0 to 3 do
    let t = 5 * i in
    e := (rol !a 5 + (!d lxor (!b land (!c lxor !d))) + !e + 0x5A827999
          + Array.unsafe_get w t) land mask32;
    b := rol !b 30;
    d := (rol !e 5 + (!c lxor (!a land (!b lxor !c))) + !d + 0x5A827999
          + Array.unsafe_get w (t + 1)) land mask32;
    a := rol !a 30;
    c := (rol !d 5 + (!b lxor (!e land (!a lxor !b))) + !c + 0x5A827999
          + Array.unsafe_get w (t + 2)) land mask32;
    e := rol !e 30;
    b := (rol !c 5 + (!a lxor (!d land (!e lxor !a))) + !b + 0x5A827999
          + Array.unsafe_get w (t + 3)) land mask32;
    d := rol !d 30;
    a := (rol !b 5 + (!e lxor (!c land (!d lxor !e))) + !a + 0x5A827999
          + Array.unsafe_get w (t + 4)) land mask32;
    c := rol !c 30
  done;
  for i = 4 to 7 do
    let t = 5 * i in
    e := (rol !a 5 + (!b lxor !c lxor !d) + !e + 0x6ED9EBA1
          + Array.unsafe_get w t) land mask32;
    b := rol !b 30;
    d := (rol !e 5 + (!a lxor !b lxor !c) + !d + 0x6ED9EBA1
          + Array.unsafe_get w (t + 1)) land mask32;
    a := rol !a 30;
    c := (rol !d 5 + (!e lxor !a lxor !b) + !c + 0x6ED9EBA1
          + Array.unsafe_get w (t + 2)) land mask32;
    e := rol !e 30;
    b := (rol !c 5 + (!d lxor !e lxor !a) + !b + 0x6ED9EBA1
          + Array.unsafe_get w (t + 3)) land mask32;
    d := rol !d 30;
    a := (rol !b 5 + (!c lxor !d lxor !e) + !a + 0x6ED9EBA1
          + Array.unsafe_get w (t + 4)) land mask32;
    c := rol !c 30
  done;
  for i = 8 to 11 do
    let t = 5 * i in
    e := (rol !a 5 + ((!b land !c) lor (!d land (!b lor !c))) + !e + 0x8F1BBCDC
          + Array.unsafe_get w t) land mask32;
    b := rol !b 30;
    d := (rol !e 5 + ((!a land !b) lor (!c land (!a lor !b))) + !d + 0x8F1BBCDC
          + Array.unsafe_get w (t + 1)) land mask32;
    a := rol !a 30;
    c := (rol !d 5 + ((!e land !a) lor (!b land (!e lor !a))) + !c + 0x8F1BBCDC
          + Array.unsafe_get w (t + 2)) land mask32;
    e := rol !e 30;
    b := (rol !c 5 + ((!d land !e) lor (!a land (!d lor !e))) + !b + 0x8F1BBCDC
          + Array.unsafe_get w (t + 3)) land mask32;
    d := rol !d 30;
    a := (rol !b 5 + ((!c land !d) lor (!e land (!c lor !d))) + !a + 0x8F1BBCDC
          + Array.unsafe_get w (t + 4)) land mask32;
    c := rol !c 30
  done;
  for i = 12 to 15 do
    let t = 5 * i in
    e := (rol !a 5 + (!b lxor !c lxor !d) + !e + 0xCA62C1D6
          + Array.unsafe_get w t) land mask32;
    b := rol !b 30;
    d := (rol !e 5 + (!a lxor !b lxor !c) + !d + 0xCA62C1D6
          + Array.unsafe_get w (t + 1)) land mask32;
    a := rol !a 30;
    c := (rol !d 5 + (!e lxor !a lxor !b) + !c + 0xCA62C1D6
          + Array.unsafe_get w (t + 2)) land mask32;
    e := rol !e 30;
    b := (rol !c 5 + (!d lxor !e lxor !a) + !b + 0xCA62C1D6
          + Array.unsafe_get w (t + 3)) land mask32;
    d := rol !d 30;
    a := (rol !b 5 + (!c lxor !d lxor !e) + !a + 0xCA62C1D6
          + Array.unsafe_get w (t + 4)) land mask32;
    c := rol !c 30
  done;
  st.h0 <- (st.h0 + !a) land mask32;
  st.h1 <- (st.h1 + !b) land mask32;
  st.h2 <- (st.h2 + !c) land mask32;
  st.h3 <- (st.h3 + !d) land mask32;
  st.h4 <- (st.h4 + !e) land mask32

include Block_hash.Make (struct
  type nonrec state = state

  let name = "Sha1"
  let big_endian = true
  let create () = { h0 = 0; h1 = 0; h2 = 0; h3 = 0; h4 = 0; w = Array.make 80 0 }

  let reset st =
    st.h0 <- 0x67452301;
    st.h1 <- 0xEFCDAB89;
    st.h2 <- 0x98BADCFE;
    st.h3 <- 0x10325476;
    st.h4 <- 0xC3D2E1F0

  let compress = compress

  let output st =
    let out = Bytes.create 20 in
    Bytes.set_int32_be out 0 (Int32.of_int st.h0);
    Bytes.set_int32_be out 4 (Int32.of_int st.h1);
    Bytes.set_int32_be out 8 (Int32.of_int st.h2);
    Bytes.set_int32_be out 12 (Int32.of_int st.h3);
    Bytes.set_int32_be out 16 (Int32.of_int st.h4);
    Bytes.unsafe_to_string out
end)

(* [bytes_hashed] counts the message of every [update] and one-shot
   [digest] once; the framing's own padding never passes through here *)
let count s = ignore (Atomic.fetch_and_add bytes_hashed_total (String.length s))

let update ctx s =
  update ctx s;
  count s

let digest s =
  count s;
  digest s

let hex s = Util.to_hex (digest s)
