module Tracer = Flicker_obs.Tracer
module Metrics = Flicker_obs.Metrics
module Injector = Flicker_fault.Injector
module Event = Flicker_verify.Event
module Checker = Flicker_verify.Checker

type tpm_hooks = {
  dynamic_pcr_reset : unit -> unit;
  measure_into_pcr17 : len:int -> source:(string * int) option -> read:(unit -> string) -> string;
}

type t = {
  memory : Memory.t;
  dev : Dev.t;
  cpus : Cpu.t;
  clock : Clock.t;
  timing : Timing.t;
  tracer : Tracer.t;
  metrics : Metrics.t;
  mutable tpm_hooks : tpm_hooks option;
  mutable injector : Injector.t option;
  mutable checker : Checker.t option;
}

(* Category for injected-fault instants, so chaos runs can be separated
   from protocol traffic when reading a trace. *)
let fault_cat = "fault"

let machine_cat = "machine"

let protocol_event t ?device ?value ev =
  Event.record t.tracer ?device ?value ev;
  match t.checker with Some c -> Checker.feed c ev | None -> ()

let create ?(memory_size = 16 * 1024 * 1024) ?(trace_capacity = 4096) timing =
  let memory = Memory.create ~size:memory_size in
  let clock = Clock.create () in
  let t =
    {
      memory;
      dev = Dev.create ~pages:(memory_size / Memory.page_size);
      cpus = Cpu.create ~cores:2;
      clock;
      timing;
      tracer = Tracer.create ~capacity:trace_capacity ~now:(fun () -> Clock.now clock) ();
      metrics = Metrics.create ();
      tpm_hooks = None;
      injector = None;
      checker = None;
    }
  in
  Dev.set_notify t.dev (fun ev -> protocol_event t ev);
  t

let set_tpm_hooks t hooks = t.tpm_hooks <- Some hooks
let set_injector t inj = t.injector <- Some inj
let injector t = t.injector
let attach_checker t checker = t.checker <- Some checker

let fault_event t ?(render = Tracer.plain) ?(n = 0) ?(s = "") name =
  Tracer.record t.tracer ~cat:fault_cat ~render ~code:0 ~n ~s name

let log_record t ~render ~code ~n name =
  Tracer.record t.tracer ~cat:machine_cat ~render ~code ~n ~s:"" name;
  Logs.debug (fun m -> m "[%.3f ms] %s" (Clock.now t.clock) (fst (render name code n "")))

let log_event t detail = log_record t ~render:Tracer.plain ~code:0 ~n:0 detail

let charge t ms =
  let ms =
    match t.injector with
    | Some inj -> ms *. Injector.clock_skew inj
    | None -> ms
  in
  Clock.advance t.clock ms

let charge_sha1 t ~bytes = charge t (Timing.sha1_ms t.timing ~bytes)

(* A crash: everything volatile is gone. Memory is zeroed (DRAM does not
   survive the reset in this model), the DEV forgets its protections, and
   every core comes back up running the freshly rebooted OS. The caller
   owns the non-volatile pieces: the TPM's NV/counters/keys persist and
   must be rebooted separately (see [Flicker_tpm.Tpm.reboot]). *)
let power_cycle t =
  fault_event t "machine.power_cycle";
  Metrics.incr t.metrics "fault.power_cycles";
  Memory.zero t.memory ~addr:0 ~len:(Memory.size t.memory);
  Dev.clear t.dev;
  List.iter
    (fun (c : Cpu.core) ->
      c.Cpu.run_state <- Cpu.Running;
      c.Cpu.ring <- 0;
      c.Cpu.interrupts_enabled <- true;
      c.Cpu.mode <- Cpu.Long_mode;
      c.Cpu.paging_enabled <- true)
    (Cpu.all t.cpus);
  log_event t "machine: power cycled (volatile state lost)"
