open Flicker_crypto
module Clock = Flicker_hw.Clock
module Machine = Flicker_hw.Machine

type t = {
  device_name : string;
  rate_kb_per_ms : float;
  files : (string, string) Hashtbl.t;
}

type driver = Legacy | Flicker_aware

let create ~name ~rate_kb_per_ms =
  if rate_kb_per_ms <= 0.0 then invalid_arg "Blockdev.create: non-positive rate";
  { device_name = name; rate_kb_per_ms; files = Hashtbl.create 4 }

let store t ~file data = Hashtbl.replace t.files file data
let fetch t ~file = Hashtbl.find_opt t.files file

let md5sum t ~file =
  match fetch t ~file with
  | Some data -> Ok (Md5.hex data)
  | None -> Error (Printf.sprintf "%s: no such file on %s" file t.device_name)

exception Io_timeout of string

(* a typical SCSI command timeout *)
let timeout_ms = 30_000.0

let transfer machine ~scheduler ~src ~dst ~file ?(chunk_kb = 64)
    ?(between_chunks = fun () -> ()) ?(driver = Legacy) () =
  match fetch src ~file with
  | None -> Error (Printf.sprintf "%s: no such file on %s" file src.device_name)
  | Some data ->
      let started = Clock.now machine.Machine.clock in
      let rate = min src.rate_kb_per_ms dst.rate_kb_per_ms in
      let chunk_bytes = chunk_kb * 1024 in
      let out = Buffer.create (String.length data) in
      (try
         List.iter
           (fun chunk ->
             (* A suspended OS cannot issue the next request. This used to
                forcibly resume the scheduler — resuming the OS mid-session,
                before the running session had capped PCR 17 or zeroized the
                SLB, which the cap-before-resume automaton flags. The driver
                must instead fail the request: only the session that owns
                the machine may resume the OS. *)
             if Scheduler.is_suspended scheduler then
               raise
                 (Io_timeout
                    (Printf.sprintf
                       "%s: request issued while the OS is suspended; a Flicker \
                        session owns the machine and must cap PCR 17 and resume \
                        the OS before drivers can run"
                       dst.device_name));
             let ms = float_of_int (String.length chunk) /. 1024.0 /. rate in
             Clock.advance machine.Machine.clock ms;
             Buffer.add_string out chunk;
             (* the next request is in flight when the hook (a Flicker
                session, typically) runs — unless the driver quiesced *)
             let before_hook = Clock.now machine.Machine.clock in
             between_chunks ();
             let stall = Clock.now machine.Machine.clock -. before_hook in
             match driver with
             | Flicker_aware -> ()
             | Legacy ->
                 if stall > timeout_ms then
                   raise
                     (Io_timeout
                        (Printf.sprintf
                           "%s: command timeout after %.1f s of OS unresponsiveness \
                            (legacy driver; use a Flicker-aware driver or shorter \
                            sessions)"
                           dst.device_name (stall /. 1000.0))))
           (Util.chunks chunk_bytes data);
         store dst ~file (Buffer.contents out);
         Ok (Clock.now machine.Machine.clock -. started)
       with Io_timeout msg -> Error msg)
