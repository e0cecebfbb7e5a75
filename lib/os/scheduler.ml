module Cpu = Flicker_hw.Cpu
module Clock = Flicker_hw.Clock
module Machine = Flicker_hw.Machine

type process = {
  pid : int;
  name : string;
  mutable remaining_ms : float;
  mutable started_at : float;
  mutable completed_at : float option;
}

module Tracer = Flicker_obs.Tracer
module Metrics = Flicker_obs.Metrics

type t = {
  machine : Machine.t;
  mutable processes : process list;
      (* runnable only: completed processes are pruned at the sync that
         retires them (their records stay live in the spawner's hands) *)
  mutable next_pid : int;
  mutable completed_total : int;
  mutable last_completion : (int * float) option;
  mutable suspended : bool;
  mutable last_sync : float;
      (* clock value up to which process progress has been accounted *)
  mutable suspend_span : Tracer.span_handle option;
      (* open "OS suspended" span between suspend and resume *)
}

let create machine =
  {
    machine;
    processes = [];
    next_pid = 1;
    completed_total = 0;
    last_completion = None;
    suspended = false;
    last_sync = Clock.now machine.Machine.clock;
    suspend_span = None;
  }

let active_processes t = List.filter (fun p -> p.completed_at = None) t.processes
let resident_processes t = List.length t.processes
let completed_total t = t.completed_total
let last_completion t = t.last_completion

let online_cores t =
  List.length
    (List.filter
       (fun (c : Cpu.core) -> c.Cpu.run_state = Cpu.Running)
       (Cpu.all t.machine.Machine.cpus))

(* Fair-share progression: with [n] runnable processes on [c] cores, each
   process advances at rate min(1, c/n). Progress is driven by clock
   deltas, so wall time spent in non-suspending activities elsewhere in
   the simulation (a TPM quote, a device transfer) still lets OS
   processes run — only a Flicker session freezes them. Processed in
   analytic segments up to the next completion. *)
let sync t =
  let now = Clock.now t.machine.Machine.clock in
  if t.suspended then t.last_sync <- now
  else begin
    let epsilon = 1e-9 in
    let cursor = ref t.last_sync in
    let continue = ref true in
    let retired = ref false in
    while !continue && now -. !cursor > epsilon do
      let active = t.processes in
      let cores = online_cores t in
      if cores = 0 || active = [] then begin
        cursor := now;
        continue := false
      end
      else begin
        let n = List.length active in
        let rate = min 1.0 (float_of_int cores /. float_of_int n) in
        let soonest =
          List.fold_left (fun acc p -> min acc (p.remaining_ms /. rate)) infinity active
        in
        let step = min (now -. !cursor) soonest in
        cursor := !cursor +. step;
        List.iter
          (fun p ->
            p.remaining_ms <- p.remaining_ms -. (step *. rate);
            if p.remaining_ms <= epsilon then begin
              p.remaining_ms <- 0.0;
              p.completed_at <- Some !cursor;
              t.completed_total <- t.completed_total + 1;
              t.last_completion <- Some (p.pid, !cursor);
              retired := true
            end)
          active;
        (* prune inside the loop so the next segment's fair-share rate
           sees only runnable processes *)
        if !retired then begin
          t.processes <- List.filter (fun p -> p.completed_at = None) t.processes;
          retired := false
        end
      end
    done;
    t.last_sync <- now
  end

let spawn t ~name ~work_ms =
  if work_ms < 0.0 then invalid_arg "Scheduler.spawn: negative work";
  sync t;
  let p =
    {
      pid = t.next_pid;
      name;
      remaining_ms = work_ms;
      started_at = Clock.now t.machine.Machine.clock;
      completed_at = None;
    }
  in
  t.next_pid <- t.next_pid + 1;
  (* O(1) prepend: the fair-share rate is order-independent, and a
     long-running service spawns an unbounded stream of processes *)
  t.processes <- p :: t.processes;
  p

let run_for t ms =
  if ms < 0.0 then invalid_arg "Scheduler.run_for: negative time";
  sync t;
  Clock.advance t.machine.Machine.clock ms;
  sync t

let run_until_complete t p =
  if t.suspended then failwith "Scheduler.run_until_complete: OS suspended";
  if online_cores t = 0 then failwith "Scheduler.run_until_complete: no online core";
  while p.completed_at = None do
    run_for t (max 1.0 p.remaining_ms)
  done

let suspend t =
  sync t;
  t.suspended <- true;
  Metrics.incr t.machine.Machine.metrics "os.suspensions";
  t.suspend_span <-
    Some (Tracer.begin_span t.machine.Machine.tracer ~cat:"os" "OS suspended");
  Machine.protocol_event t.machine Flicker_verify.Event.Os_suspend;
  Machine.log_event t.machine "os: suspended for Flicker session"

let resume t =
  t.suspended <- false;
  t.last_sync <- Clock.now t.machine.Machine.clock;
  (match t.suspend_span with
  | Some h ->
      Tracer.end_span t.machine.Machine.tracer h;
      t.suspend_span <- None
  | None -> ());
  Machine.protocol_event t.machine Flicker_verify.Event.Os_resume;
  Machine.log_event t.machine "os: resumed"

let is_suspended t = t.suspended
