module Tracer = Flicker_obs.Tracer

type pcr_kind =
  | Measure
  | Stub
  | Input
  | Output
  | Nonce
  | Cap
  | Software

let pcr_kind_to_string = function
  | Measure -> "measure"
  | Stub -> "stub"
  | Input -> "input"
  | Output -> "output"
  | Nonce -> "nonce"
  | Cap -> "cap"
  | Software -> "software"

type tech = Svm | Txt

type t =
  | Session_begin of string
  | Session_end
  | Os_suspend
  | Os_resume
  | Skinit_begin of tech
  | Skinit_end
  | Dev_protect of { addr : int; len : int }
  | Dev_unprotect of { addr : int; len : int }
  | Dev_clear
  | Pcr_reset
  | Pcr_reboot
  | Pcr_extend of { index : int; kind : pcr_kind }
  | Nv_read of { index : int }
  | Nv_write of { index : int; counter : int option }
  | Counter_increment of { handle : int; value : int }
  | Zeroize of { addr : int; len : int }
  | Dma_attempt of { addr : int; len : int; write : bool; denied : bool }
  | Replay_record of { counter : int }
  | Replay_inject of { counter : int }
  | Os_inject of { what : string }

let to_string = function
  | Session_begin pal -> Printf.sprintf "session.begin(%s)" pal
  | Session_end -> "session.end"
  | Os_suspend -> "os.suspend"
  | Os_resume -> "os.resume"
  | Skinit_begin Svm -> "skinit.begin(svm)"
  | Skinit_begin Txt -> "skinit.begin(txt)"
  | Skinit_end -> "skinit.end"
  | Dev_protect { addr; len } -> Printf.sprintf "dev.protect(0x%x,+%d)" addr len
  | Dev_unprotect { addr; len } ->
      Printf.sprintf "dev.unprotect(0x%x,+%d)" addr len
  | Dev_clear -> "dev.clear"
  | Pcr_reset -> "pcr.reset"
  | Pcr_reboot -> "pcr.reboot"
  | Pcr_extend { index; kind } ->
      Printf.sprintf "pcr.extend(%d,%s)" index (pcr_kind_to_string kind)
  | Nv_read { index } -> Printf.sprintf "nv.read(0x%x)" index
  | Nv_write { index; counter = Some c } ->
      Printf.sprintf "nv.write(0x%x,counter=%d)" index c
  | Nv_write { index; counter = None } -> Printf.sprintf "nv.write(0x%x)" index
  | Counter_increment { handle; value } ->
      Printf.sprintf "counter.increment(%d,=%d)" handle value
  | Zeroize { addr; len } -> Printf.sprintf "zeroize(0x%x,+%d)" addr len
  | Dma_attempt { addr; len; write; denied } ->
      Printf.sprintf "dma.attempt(0x%x,+%d,%s,%s)" addr len
        (if write then "write" else "read")
        (if denied then "denied" else "ALLOWED")
  | Replay_record { counter } -> Printf.sprintf "replay.record(counter=%d)" counter
  | Replay_inject { counter } -> Printf.sprintf "replay.inject(counter=%d)" counter
  | Os_inject { what } -> Printf.sprintf "os.inject(%s)" what

let name = function
  | Session_begin _ -> "session.begin"
  | Session_end -> "session.end"
  | Os_suspend -> "os.suspend"
  | Os_resume -> "os.resume"
  | Skinit_begin _ -> "skinit.begin"
  | Skinit_end -> "skinit.end"
  | Dev_protect _ -> "dev.protect"
  | Dev_unprotect _ -> "dev.unprotect"
  | Dev_clear -> "dev.clear"
  | Pcr_reset -> "pcr.reset"
  | Pcr_reboot -> "pcr.reboot"
  | Pcr_extend _ -> "pcr.extend"
  | Nv_read _ -> "nv.read"
  | Nv_write _ -> "nv.write"
  | Counter_increment _ -> "counter.increment"
  | Zeroize _ -> "zeroize"
  | Dma_attempt _ -> "dma.attempt"
  | Replay_record _ -> "replay.record"
  | Replay_inject _ -> "replay.inject"
  | Os_inject _ -> "os.inject"

let args ev =
  let count key n = (key, Tracer.Count n) in
  match ev with
  | Session_begin pal -> [ ("pal", Tracer.Str pal) ]
  | Skinit_begin Svm -> [ ("tech", Tracer.Str "svm") ]
  | Skinit_begin Txt -> [ ("tech", Tracer.Str "txt") ]
  | Dev_protect { addr; len } | Dev_unprotect { addr; len } | Zeroize { addr; len } ->
      [ count "addr" addr; count "len" len ]
  | Pcr_extend { index; kind } ->
      [ count "index" index; ("kind", Tracer.Str (pcr_kind_to_string kind)) ]
  | Nv_read { index } | Nv_write { index; counter = None } -> [ count "index" index ]
  | Nv_write { index; counter = Some c } -> [ count "index" index; count "counter" c ]
  | Counter_increment { handle; value } -> [ count "handle" handle; count "value" value ]
  | Dma_attempt { addr; len; write; denied } ->
      [
        count "addr" addr;
        count "len" len;
        ("write", Tracer.Flag write);
        ("denied", Tracer.Flag denied);
      ]
  | Replay_record { counter } | Replay_inject { counter } -> [ count "counter" counter ]
  | Os_inject { what } -> [ ("what", Tracer.Str what) ]
  | Session_end | Os_suspend | Os_resume | Skinit_end | Dev_clear | Pcr_reset
  | Pcr_reboot ->
      []

(* The trace codec. A ring slot keeps an event as three scalars
   ([Tracer.record]): [n] is its first int field (an address, an index,
   a handle or a counter), [s] its string field or the DMA device, and
   [code] packs the constructor (bits 0-4), its bool, kind or option bits
   (5-7), whether its trace-only annotation came with it (bit 8), and
   above that its second int field (a length, a counter value) or the
   extended value's 4-byte prefix. *)

let kind_bits = function
  | Measure -> 0
  | Stub -> 1
  | Input -> 2
  | Output -> 3
  | Nonce -> 4
  | Cap -> 5
  | Software -> 6

let kind_of_bits = function
  | 0 -> Measure
  | 1 -> Stub
  | 2 -> Input
  | 3 -> Output
  | 4 -> Nonce
  | 5 -> Cap
  | _ -> Software

let annotated_bit = 1 lsl 8

let pack tag bits y =
  if (y lsl 10) asr 10 <> y then invalid_arg "Event.record: int field wider than 53 bits";
  tag lor (bits lsl 5) lor (y lsl 9)

let code = function
  | Session_begin _ -> pack 0 0 0
  | Session_end -> pack 1 0 0
  | Os_suspend -> pack 2 0 0
  | Os_resume -> pack 3 0 0
  | Skinit_begin Svm -> pack 4 0 0
  | Skinit_begin Txt -> pack 4 1 0
  | Skinit_end -> pack 5 0 0
  | Dev_protect { len; _ } -> pack 6 0 len
  | Dev_unprotect { len; _ } -> pack 7 0 len
  | Dev_clear -> pack 8 0 0
  | Pcr_reset -> pack 9 0 0
  | Pcr_reboot -> pack 10 0 0
  | Pcr_extend { kind; _ } -> pack 11 (kind_bits kind) 0
  | Nv_read _ -> pack 12 0 0
  | Nv_write { counter = None; _ } -> pack 13 0 0
  | Nv_write { counter = Some c; _ } -> pack 13 1 c
  | Counter_increment { value; _ } -> pack 14 0 value
  | Zeroize { len; _ } -> pack 15 0 len
  | Dma_attempt { len; write; denied; _ } ->
      pack 16 (Bool.to_int write lor (Bool.to_int denied lsl 1)) len
  | Replay_record _ -> pack 17 0 0
  | Replay_inject _ -> pack 18 0 0
  | Os_inject _ -> pack 19 0 0

let first_int = function
  | Dev_protect { addr; _ } | Dev_unprotect { addr; _ } | Zeroize { addr; _ }
  | Dma_attempt { addr; _ } ->
      addr
  | Pcr_extend { index; _ } | Nv_read { index } | Nv_write { index; _ } -> index
  | Counter_increment { handle; _ } -> handle
  | Replay_record { counter } | Replay_inject { counter } -> counter
  | Session_begin _ | Session_end | Os_suspend | Os_resume | Skinit_begin _ | Skinit_end
  | Dev_clear | Pcr_reset | Pcr_reboot | Os_inject _ ->
      0

let decode code n s =
  let bits = (code lsr 5) land 7 and y = code asr 9 in
  match code land 0x1f with
  | 0 -> Session_begin s
  | 1 -> Session_end
  | 2 -> Os_suspend
  | 3 -> Os_resume
  | 4 -> Skinit_begin (if bits = 1 then Txt else Svm)
  | 5 -> Skinit_end
  | 6 -> Dev_protect { addr = n; len = y }
  | 7 -> Dev_unprotect { addr = n; len = y }
  | 8 -> Dev_clear
  | 9 -> Pcr_reset
  | 10 -> Pcr_reboot
  | 11 -> Pcr_extend { index = n; kind = kind_of_bits bits }
  | 12 -> Nv_read { index = n }
  | 13 -> Nv_write { index = n; counter = (if bits = 1 then Some y else None) }
  | 14 -> Counter_increment { handle = n; value = y }
  | 15 -> Zeroize { addr = n; len = y }
  | 16 -> Dma_attempt { addr = n; len = y; write = bits land 1 = 1; denied = bits land 2 = 2 }
  | 17 -> Replay_record { counter = n }
  | 18 -> Replay_inject { counter = n }
  | _ -> Os_inject { what = s }

(* the event's own args, with the device first or the value's 4-byte
   prefix last, as 8 lowercase hex digits *)
let render _ code n s =
  let ev = decode code n s in
  let args = args ev in
  let args =
    if code land annotated_bit = 0 then args
    else
      match ev with
      | Dma_attempt _ -> ("device", Tracer.Str s) :: args
      | _ -> args @ [ ("value", Tracer.Str (Printf.sprintf "%08x" (code asr 9))) ]
  in
  (name ev, args)

let prefix32 v =
  (Char.code v.[0] lsl 24) lor (Char.code v.[1] lsl 16) lor (Char.code v.[2] lsl 8)
  lor Char.code v.[3]

let trace_cat = "protocol"

let store tracer ev code s =
  Tracer.record tracer ~cat:trace_cat ~render ~code ~n:(first_int ev) ~s (name ev)

let record tracer ?device ?value ev =
  match (ev, device, value) with
  | (Session_begin s | Os_inject { what = s }), None, None -> store tracer ev (code ev) s
  | _, None, None -> store tracer ev (code ev) ""
  | Dma_attempt _, Some d, None -> store tracer ev (code ev lor annotated_bit) d
  | Pcr_extend _, None, Some v ->
      store tracer ev (code ev lor annotated_bit lor (prefix32 v lsl 9)) ""
  | _ -> invalid_arg "Event.record: a device annotates only dma.attempt, a value only pcr.extend"
