type arg = Str of string | Num of float | Count of int | Flag of bool

type kind = Span of { dur : float } | Instant

type event = {
  name : string;
  cat : string;
  ts : float;
  kind : kind;
  args : (string * arg) list;
}

type render = string -> int -> int -> string -> string * (string * arg) list

let plain name _ _ _ = (name, [])

(* The ring is a preallocated structure-of-arrays of scalars: recording
   an event writes its name, category, times, code word, int, string and
   render into one slot (timestamps and durations stay unboxed in the
   float arrays). Every string stored is one the caller already keeps
   alive and every render is a top-level function, so a record keeps
   nothing young alive: nothing is promoted out of the minor heap on its
   account. [event] values and their args lists are only built when
   [events] is called — the cold path. Eight words a slot. *)
type t = {
  now : unit -> float;
  cap : int;
  names : string array;
  cats : string array;
  tss : float array;
  durs : float array;  (* meaningless for an instant *)
  codes : int array;  (* the caller's code, shifted left one bit; bit 0 set for a span *)
  ns : int array;
  strs : string array;
  renders : render array;
  mutable next : int;  (* ring write cursor *)
  mutable len : int;
  mutable evicted : int;
}

let create ?(capacity = 4096) ~now () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity must be positive";
  {
    now;
    cap = capacity;
    names = Array.make capacity "";
    cats = Array.make capacity "";
    tss = Array.make capacity 0.0;
    durs = Array.make capacity 0.0;
    codes = Array.make capacity 0;
    ns = Array.make capacity 0;
    strs = Array.make capacity "";
    renders = Array.make capacity plain;
    next = 0;
    len = 0;
    evicted = 0;
  }

let[@inline] push t ~name ~cat ~ts ~dur ~code ~render ~n ~s =
  if t.len = t.cap then t.evicted <- t.evicted + 1 else t.len <- t.len + 1;
  let i = t.next in
  t.names.(i) <- name;
  t.cats.(i) <- cat;
  t.tss.(i) <- ts;
  t.durs.(i) <- dur;
  t.codes.(i) <- code;
  t.ns.(i) <- n;
  t.strs.(i) <- s;
  t.renders.(i) <- render;
  t.next <- (i + 1) mod t.cap

let record t ~cat ~render ~code ~n ~s name =
  if (code lsl 1) asr 1 <> code then invalid_arg "Tracer.record: code wider than 62 bits";
  push t ~name ~cat ~ts:(t.now ()) ~dur:0.0 ~code:(code lsl 1) ~render ~n ~s

type span_handle = {
  h_name : string;
  h_cat : string;
  h_render : render;
  h_s : string;
  h_started : float;
}

let begin_span t ?(cat = "span") ?(render = plain) ?(s = "") name =
  { h_name = name; h_cat = cat; h_render = render; h_s = s; h_started = t.now () }

let end_span t h =
  push t ~name:h.h_name ~cat:h.h_cat ~ts:h.h_started ~dur:(t.now () -. h.h_started) ~code:1
    ~render:h.h_render ~n:0 ~s:h.h_s

let with_span t ?cat name f =
  let h = begin_span t ?cat name in
  Fun.protect ~finally:(fun () -> end_span t h) f

let events t =
  let start = (t.next - t.len + t.cap) mod t.cap in
  List.init t.len (fun i ->
      let j = (start + i) mod t.cap in
      let code = t.codes.(j) in
      let name, args = t.renders.(j) t.names.(j) (code asr 1) t.ns.(j) t.strs.(j) in
      {
        name;
        cat = t.cats.(j);
        ts = t.tss.(j);
        kind = (if code land 1 = 1 then Span { dur = t.durs.(j) } else Instant);
        args;
      })

let length t = t.len
let capacity t = t.cap
let dropped t = t.evicted

let clear t =
  (* release the retained strings and renders, not just the cursor *)
  Array.fill t.names 0 t.cap "";
  Array.fill t.cats 0 t.cap "";
  Array.fill t.strs 0 t.cap "";
  Array.fill t.renders 0 t.cap plain;
  t.next <- 0;
  t.len <- 0;
  t.evicted <- 0
