module Tracer = Flicker_obs.Tracer
module Metrics = Flicker_obs.Metrics
module Injector = Flicker_fault.Injector

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
}

(* Category for the instants the temporal verifier consumes; see
   [Flicker_verify.Event] for the alphabet built from them. *)
let protocol_cat = "protocol"

(* Category for injected-fault instants, so chaos runs can be separated
   from protocol traffic when reading a trace. *)
let fault_cat = "fault"

let create ?(memory_size = 16 * 1024 * 1024) ?(cores = 2) ?(trace_capacity = 4096)
    timing =
  let memory = Memory.create ~size:memory_size in
  let clock = Clock.create () in
  let t =
    {
      memory;
      dev = Dev.create ~pages:(memory_size / Memory.page_size);
      cpus = Cpu.create ~cores;
      clock;
      timing;
      tracer = Tracer.create ~capacity:trace_capacity ~now:(fun () -> Clock.now clock) ();
      metrics = Metrics.create ();
      tpm_hooks = None;
      injector = None;
    }
  in
  Dev.set_notify t.dev (fun change ->
      let range name addr len =
        Tracer.instant t.tracer ~cat:protocol_cat name
          ~args:[ ("addr", Tracer.Count addr); ("len", Tracer.Count len) ]
      in
      match change with
      | Dev.Protected { addr; len } -> range "dev.protect" addr len
      | Dev.Unprotected { addr; len } -> range "dev.unprotect" addr len
      | Dev.Cleared -> Tracer.instant t.tracer ~cat:protocol_cat "dev.clear");
  t

let set_tpm_hooks t hooks = t.tpm_hooks <- Some hooks
let set_injector t inj = t.injector <- Some inj
let injector t = t.injector

let fault_event t ?(args = []) name =
  Tracer.instant t.tracer ~cat:fault_cat ~args name

let log_event t detail =
  Tracer.instant t.tracer ~cat:"machine" detail;
  Logs.debug (fun m -> m "[%.3f ms] %s" (Clock.now t.clock) detail)

let protocol_event t ?(args = []) name =
  Tracer.instant t.tracer ~cat:protocol_cat ~args name

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
