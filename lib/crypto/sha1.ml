let digest_size = 20
let mask32 = 0xFFFFFFFF

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  mutable total : int; (* bytes processed so far *)
  buf : Bytes.t; (* partial block, 64 bytes *)
  mutable buf_len : int;
  w : int array; (* message schedule scratch *)
  mutable finalized : bool;
}

(* Host-side instrumentation: message bytes fed through [update] since
   process start (padding excluded). The measurement-memoization bench
   reads the delta around a session to prove the cache cut real hashing
   work without touching any simulated metric. Atomic, because sharded
   fleets hash from several domains at once and a plain [ref] would
   drop increments under contention. *)
let bytes_hashed_total = Atomic.make 0
let bytes_hashed () = Atomic.get bytes_hashed_total

let init () =
  {
    h0 = 0x67452301;
    h1 = 0xEFCDAB89;
    h2 = 0x98BADCFE;
    h3 = 0x10325476;
    h4 = 0xC3D2E1F0;
    total = 0;
    buf = Bytes.create 64;
    buf_len = 0;
    w = Array.make 80 0;
    finalized = false;
  }

let reset ctx =
  ctx.h0 <- 0x67452301;
  ctx.h1 <- 0xEFCDAB89;
  ctx.h2 <- 0x98BADCFE;
  ctx.h3 <- 0x10325476;
  ctx.h4 <- 0xC3D2E1F0;
  ctx.total <- 0;
  ctx.buf_len <- 0;
  ctx.finalized <- false

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
let compress ctx s off =
  let w = ctx.w in
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
  let a = ref ctx.h0 and b = ref ctx.h1 and c = ref ctx.h2 in
  let d = ref ctx.h3 and e = ref ctx.h4 in
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
  ctx.h0 <- (ctx.h0 + !a) land mask32;
  ctx.h1 <- (ctx.h1 + !b) land mask32;
  ctx.h2 <- (ctx.h2 + !c) land mask32;
  ctx.h3 <- (ctx.h3 + !d) land mask32;
  ctx.h4 <- (ctx.h4 + !e) land mask32

(* The buffer is only read while a block compresses, so it is passed
   as a string without a copy. *)
let compress_buf ctx = compress ctx (Bytes.unsafe_to_string ctx.buf) 0

let update ctx s =
  if ctx.finalized then invalid_arg "Sha1.update: context already finalized";
  let len = String.length s in
  ignore (Atomic.fetch_and_add bytes_hashed_total len);
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* top up a partial block first *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress_buf ctx;
      ctx.buf_len <- 0
    end
  end;
  (* whole blocks straight from the caller's string *)
  while len - !pos >= 64 do
    compress ctx s !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.buf 0 (len - !pos);
    ctx.buf_len <- len - !pos
  end

(* Padding goes into the block buffer: 0x80, zeros up to byte 56 (into
   a second block when fewer than 9 bytes are free), then the message
   length in bits, big-endian. *)
let finalize ctx =
  if ctx.finalized then invalid_arg "Sha1.finalize: context already finalized";
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  if n >= 56 then begin
    Bytes.fill buf (n + 1) (63 - n) '\000';
    compress_buf ctx;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\000';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress_buf ctx;
  ctx.buf_len <- 0;
  ctx.finalized <- true;
  let out = Bytes.create 20 in
  Bytes.set_int32_be out 0 (Int32.of_int ctx.h0);
  Bytes.set_int32_be out 4 (Int32.of_int ctx.h1);
  Bytes.set_int32_be out 8 (Int32.of_int ctx.h2);
  Bytes.set_int32_be out 12 (Int32.of_int ctx.h3);
  Bytes.set_int32_be out 16 (Int32.of_int ctx.h4);
  Bytes.unsafe_to_string out

(* One scratch context per domain for one-shot digests: [digest] runs to
   completion before returning and never re-enters itself, so reusing a
   domain-local context is safe — including under the sharded fleet,
   where several domains digest concurrently — and saves a 64-byte
   buffer + 80-word schedule allocation per call on the measurement hot
   path. A single shared context here was the PR-6 latent bug: two
   domains interleaving [reset]/[update]/[finalize] would mix messages. *)
let scratch_key = Domain.DLS.new_key init

let digest s =
  let scratch = Domain.DLS.get scratch_key in
  reset scratch;
  update scratch s;
  finalize scratch

let hex s = Util.to_hex (digest s)
