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
