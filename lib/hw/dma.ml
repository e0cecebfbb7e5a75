type attempt = {
  at : float;
  device : string;
  addr : int;
  len : int;
  write : bool;
  blocked : bool;
}

type t = {
  machine : Machine.t;
  device_name : string;
  mutable log : attempt list; (* newest first *)
}

let create machine ~name = { machine; device_name = name; log = [] }

let record t ~addr ~len ~write ~blocked =
  t.log <-
    {
      at = Clock.now t.machine.Machine.clock;
      device = t.device_name;
      addr;
      len;
      write;
      blocked;
    }
    :: t.log;
  (* the attempt/denied pair the trace-conformance checker expects: every
     DMA shows up, blocked or not, with the DEV's verdict attached *)
  Machine.protocol_event t.machine ~device:t.device_name
    (Flicker_verify.Event.Dma_attempt { addr; len; write; denied = blocked });
  if blocked then begin
    Flicker_obs.Metrics.incr t.machine.Machine.metrics "dev.blocked_dma";
    Machine.log_event t.machine
      (Printf.sprintf "dev: blocked DMA %s by %s at %#x (%d bytes)"
         (if write then "write" else "read")
         t.device_name addr len)
  end

let read t ~addr ~len =
  let allowed = Dev.allows t.machine.Machine.dev ~addr ~len in
  record t ~addr ~len ~write:false ~blocked:(not allowed);
  if allowed then Ok (Memory.read t.machine.Machine.memory ~addr ~len)
  else Error "DEV: DMA read blocked"

let write t ~addr ~data =
  let len = String.length data in
  let allowed = Dev.allows t.machine.Machine.dev ~addr ~len in
  record t ~addr ~len ~write:true ~blocked:(not allowed);
  if allowed then begin
    Memory.write t.machine.Machine.memory ~addr data;
    Ok ()
  end
  else Error "DEV: DMA write blocked"

let attempts t = List.rev t.log

(* the arg of a storm's fault instant *)
let writes_arg name _ writes _ = (name, [ ("writes", Flicker_obs.Tracer.Count writes) ])

(* An injected DMA storm: a burst of adversarial writes from a rogue
   device, alternating between the caller's focus window (the SLB region
   a live session cares about — the DEV must deny these) and arbitrary
   physical addresses. Every attempt goes through the normal [write]
   path, so it is logged, traced, and checked against the DEV exactly
   like a real device's traffic. *)
let fire_storm machine ~focus =
  match Machine.injector machine with
  | None -> ()
  | Some inj -> (
      let now = Clock.now machine.Machine.clock in
      match Flicker_fault.Injector.dma_storm inj ~now_ms:now with
      | None -> ()
      | Some writes ->
          Machine.fault_event machine ~render:writes_arg ~n:writes "fault.dma_storm";
          Flicker_obs.Metrics.incr machine.Machine.metrics "fault.dma_storms";
          let dev = create machine ~name:"chaos-dma" in
          let mem = Memory.size machine.Machine.memory in
          for i = 0 to writes - 1 do
            let len = 64 * (1 + (i mod 4)) in
            let u =
              Flicker_fault.Injector.uniform inj
                ~site:(Printf.sprintf "dma.addr.%d" i)
                ~now_ms:now
            in
            let addr =
              if i mod 2 = 0 then
                (* aim inside the window under DEV protection *)
                let base, span = focus in
                base + int_of_float (u *. float_of_int (max 1 (span - len)))
              else int_of_float (u *. float_of_int (max 1 (mem - len)))
            in
            let addr = max 0 (min (mem - len) addr) in
            ignore (write dev ~addr ~data:(String.make len '\xff'))
          done)
