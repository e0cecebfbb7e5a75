module type KERNEL = sig
  type state

  val name : string
  val big_endian : bool
  val create : unit -> state
  val reset : state -> unit
  val compress : state -> string -> int -> unit
  val output : state -> string
end

let block_size = 64

module Make (K : KERNEL) = struct
  type ctx = {
    state : K.state;
    buf : Bytes.t; (* partial block *)
    mutable buf_len : int;
    mutable total : int; (* message bytes absorbed *)
    mutable finalized : bool;
  }

  let reset ctx =
    K.reset ctx.state;
    ctx.buf_len <- 0;
    ctx.total <- 0;
    ctx.finalized <- false

  let init () =
    let ctx =
      { state = K.create (); buf = Bytes.create block_size; buf_len = 0; total = 0;
        finalized = false }
    in
    reset ctx;
    ctx

  (* The buffer is only read while a block compresses, so it is passed
     as a string without a copy. *)
  let compress_buf ctx = K.compress ctx.state (Bytes.unsafe_to_string ctx.buf) 0

  let update ctx s =
    if ctx.finalized then invalid_arg (K.name ^ ".update: context already finalized");
    let len = String.length s in
    ctx.total <- ctx.total + len;
    let pos = ref 0 in
    (* top up a partial block first *)
    if ctx.buf_len > 0 then begin
      let take = min (block_size - ctx.buf_len) len in
      Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
      ctx.buf_len <- ctx.buf_len + take;
      pos := take;
      if ctx.buf_len = block_size then begin
        compress_buf ctx;
        ctx.buf_len <- 0
      end
    end;
    (* whole blocks straight from the caller's string *)
    while len - !pos >= block_size do
      K.compress ctx.state s !pos;
      pos := !pos + block_size
    done;
    if !pos < len then begin
      Bytes.blit_string s !pos ctx.buf 0 (len - !pos);
      ctx.buf_len <- len - !pos
    end

  (* Padding goes into the block buffer: 0x80, then zeros up to the
     8-byte length field that ends the block (into a second block when
     the field no longer fits after the marker), then the message length
     in bits. *)
  let finalize ctx =
    if ctx.finalized then invalid_arg (K.name ^ ".finalize: context already finalized");
    let buf = ctx.buf and n = ctx.buf_len in
    let low = block_size - 8 in
    Bytes.set buf n '\x80';
    if n >= low then begin
      Bytes.fill buf (n + 1) (block_size - 1 - n) '\000';
      compress_buf ctx;
      Bytes.fill buf 0 low '\000'
    end
    else Bytes.fill buf (n + 1) (low - 1 - n) '\000';
    let bits = Int64.of_int (ctx.total * 8) in
    if K.big_endian then Bytes.set_int64_be buf low bits else Bytes.set_int64_le buf low bits;
    compress_buf ctx;
    ctx.buf_len <- 0;
    ctx.finalized <- true;
    K.output ctx.state

  (* One scratch context per domain for one-shot digests: [digest] runs
     to completion before returning and never re-enters itself, so
     reusing a domain-local context is safe, including under the sharded
     fleet, where several domains digest at once, and saves a block
     buffer and a message schedule per call on the measurement hot path.
     A single shared context would let two domains interleave
     [reset]/[update]/[finalize] and mix their messages. *)
  let scratch_key = Domain.DLS.new_key init

  let digest s =
    let scratch = Domain.DLS.get scratch_key in
    reset scratch;
    update scratch s;
    finalize scratch
end
