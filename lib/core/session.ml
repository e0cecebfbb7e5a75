module Tracer = Flicker_obs.Tracer
module Metrics = Flicker_obs.Metrics
module Machine = Flicker_hw.Machine
module Memory = Flicker_hw.Memory
module Clock = Flicker_hw.Clock
module Cpu = Flicker_hw.Cpu
module Apic = Flicker_hw.Apic
module Dma = Flicker_hw.Dma
module Skinit = Flicker_hw.Skinit
module Tpm = Flicker_tpm.Tpm
module Scheduler = Flicker_os.Scheduler
module Sysfs = Flicker_os.Sysfs
module Os_state = Flicker_os.Os_state
module Builder = Flicker_slb.Builder
module Layout = Flicker_slb.Layout
module Slb_core = Flicker_slb.Slb_core
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Mod_os_protection = Flicker_slb.Mod_os_protection
module Mod_memory = Flicker_slb.Mod_memory
module Event = Flicker_verify.Event
module Checker = Flicker_verify.Checker

(* the session span's one arg *)
let pal_arg name _ _ pal = (name, [ ("pal", Tracer.Str pal) ])

type phase =
  | Load_slb
  | Suspend_os
  | Skinit
  | Slb_init
  | Pal_execution
  | Cleanup
  | Pcr_extends
  | Resume_os

let phase_name = function
  | Load_slb -> "Load SLB"
  | Suspend_os -> "Suspend OS"
  | Skinit -> "SKINIT"
  | Slb_init -> "SLB Core init"
  | Pal_execution -> "Execute PAL"
  | Cleanup -> "Cleanup"
  | Pcr_extends -> "Extend PCR"
  | Resume_os -> "Resume OS"

type outcome = {
  outputs : string;
  slb_measurement : string;
  pcr17_during : string;
  pcr17_final : string;
  breakdown : (phase * float) list;
  total_ms : float;
  pal_fault : string option;
}

let phase_ms outcome phase =
  match List.assoc_opt phase outcome.breakdown with Some ms -> ms | None -> 0.0

type error =
  | Skinit_failed of string
  | Unknown_pal
  | Os_busy of { transient : bool; msg : string }

let os_busy_transient msg = Os_busy { transient = true; msg }
let os_busy_permanent msg = Os_busy { transient = false; msg }

let pp_error fmt = function
  | Skinit_failed msg -> Format.fprintf fmt "SKINIT failed: %s" msg
  | Unknown_pal -> Format.fprintf fmt "launched SLB does not hold the PAL's code"
  | Os_busy { msg; _ } -> Format.fprintf fmt "OS not ready for a session: %s" msg

(* Transience is declared where the error is raised, not guessed from the
   message text: mid-session busyness clears once the running session
   resumes the OS; a missing/short SLB image will not fix itself however
   long we wait *)
let busy_is_transient = function
  | Os_busy { transient; _ } -> transient
  | Skinit_failed _ | Unknown_pal -> false

(* PCR 17 read for bookkeeping, bypassing the command path so it charges
   nothing (the session code already knows the value; this is the
   simulator peeking, not the TPM serving a command). *)
let pcr17_of platform =
  match Tpm.pcr_composite platform.Platform.tpm [ 17 ] with
  | [ (17, v) ] -> v
  | _ -> assert false

let extend_pcr17 ?kind platform value =
  match Tpm.pcr_extend ?kind platform.Platform.tpm 17 value with
  | Ok _ -> ()
  | Error e ->
      failwith ("session: PCR 17 extend rejected: " ^ Flicker_tpm.Tpm_types.error_to_string e)

(* --- trace conformance -------------------------------------------------

   A machine with a checker attached feeds it every protocol event as it
   is emitted; a session on it raises if the checker recorded a
   violation from the session's first event on — turning each run into
   a self-checking test of the Section 4 discipline. *)

exception Protocol_violation of { pal : string; violations : Checker.violation list }

let () =
  Printexc.register_printer (function
    | Protocol_violation { pal; violations } ->
        Some
          (Printf.sprintf "Session.Protocol_violation(%s): %s" pal
             (String.concat "; " (List.map Checker.violation_to_string violations)))
    | _ -> None)

(* Taken before a session's first protocol event: the check it returns
   raises with the violations recorded from that event on. *)
let conformance_gate machine ~pal =
  match machine.Machine.checker with
  | None -> ignore
  | Some c -> (
      let mark = (Checker.report c).Checker.events_checked in
      fun () ->
        match
          List.filter
            (fun v -> v.Checker.event_index >= mark)
            (Checker.report c).Checker.violations
        with
        | [] -> ()
        | violations -> raise (Protocol_violation { pal; violations }))

type launch_tech = Svm | Txt of { acm : string }

let execute (platform : Platform.t) ~pal ?(flavor = Builder.Optimized) ?(tech = Svm)
    ?(inputs = "") ?nonce ?time_limit_ms () =
  if String.length inputs > Layout.io_page_size then
    invalid_arg "Session.execute: inputs exceed the 4 KB input page";
  (match nonce with
  | Some n when String.length n <> 20 ->
      invalid_arg "Session.execute: nonce must be 20 bytes"
  | _ -> ());
  (match time_limit_ms with
  | Some limit when limit <= 0.0 ->
      invalid_arg "Session.execute: time limit must be positive"
  | _ -> ());
  let machine = platform.Platform.machine in
  let clock = machine.Machine.clock in
  let memory = machine.Machine.memory in
  let slb_base = platform.Platform.slb_base in
  (* a PAL whose code does not fit this flavor's region has no window
     image to load: it fails before the session counts or traces *)
  match Builder.linked ~flavor pal with
  | Error msg -> Error (os_busy_permanent msg)
  | Ok image ->
  if Scheduler.is_suspended platform.Platform.scheduler then
    Error (os_busy_transient "mid-session: another Flicker session owns the machine")
  else begin
    platform.Platform.sessions_run <- platform.Platform.sessions_run + 1;
    let tracer = machine.Machine.tracer in
    let metrics = machine.Machine.metrics in
    Metrics.incr metrics "session.runs";
    let session_span =
      Tracer.begin_span tracer ~cat:"session" ~render:pal_arg ~s:pal.Pal.name
        "Flicker session"
    in
    let gate = conformance_gate machine ~pal:pal.Pal.name in
    Machine.protocol_event machine (Event.Session_begin pal.Pal.name);
    let session_rng =
      Platform.fork_rng platform
        ~label:("session-" ^ string_of_int platform.Platform.sessions_run)
    in
    let started = Clock.now clock in
    let breakdown = ref [] in
    let timed phase f =
      Tracer.with_span tracer ~cat:"session.phase" (phase_name phase) (fun () ->
          let result, span = Clock.time clock f in
          breakdown := (phase, Clock.duration span) :: !breakdown;
          result)
    in
    (* close the session span and roll the outcome into the counters at
       every exit; an exception that escaped the PAL reaches the caller
       only now, once the session is over *)
    let finish ?escaped result =
      Machine.protocol_event machine Event.Session_end;
      Tracer.end_span tracer session_span;
      (match result with
      | Error (Skinit_failed _) -> Metrics.incr metrics "session.skinit_failures"
      | Error Unknown_pal -> Metrics.incr metrics "session.unknown_pal"
      | Error (Os_busy _) -> ()
      | Ok o -> if o.pal_fault <> None then Metrics.incr metrics "session.pal_faults");
      gate ();
      Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) escaped;
      result
    in

    (* --- Load SLB: the application's sysfs writes and the
       flicker-module's allocation + patching --- *)
    let initialized =
      timed Load_slb (fun () ->
          Sysfs.write platform.Platform.sysfs ~path:"slb" image.Builder.bytes;
          Sysfs.write platform.Platform.sysfs ~path:"inputs" inputs;
          Sysfs.write platform.Platform.sysfs ~path:"control" "1";
          Memory.zero memory ~addr:slb_base ~len:Layout.total_footprint;
          (* repeated sessions of the same PAL load the patched window
             the image's memo slot keeps: the window's pages become
             slices of that one string, and no byte is copied *)
          let initialized = Measurement.initialized image ~slb_base in
          Memory.write memory ~addr:slb_base initialized;
          if platform.Platform.corrupt_next_slb then begin
            platform.Platform.corrupt_next_slb <- false;
            (* flip a byte inside the PAL region *)
            let addr = slb_base + image.Builder.pal_region_off in
            let original = Memory.read_byte memory addr in
            Memory.write_byte memory addr (original lxor 0xff);
            Machine.log_event machine "ATTACK: SLB corrupted in memory before SKINIT"
          end;
          Memory.write memory ~addr:(slb_base + Layout.inputs_page_offset) inputs;
          Machine.charge machine machine.Machine.timing.Flicker_hw.Timing.cpu.Flicker_hw.Timing.misc_op_ms;
          initialized)
    in

    (* --- Suspend OS --- *)
    let saved_state =
      timed Suspend_os (fun () ->
          Scheduler.suspend platform.Platform.scheduler;
          Apic.deschedule_aps machine;
          Apic.send_init_ipi machine;
          Os_state.save machine platform.Platform.kernel)
    in

    (* --- late launch: SKINIT or GETSEC[SENTER] --- *)
    let launch_result =
      timed Skinit (fun () ->
          let acm = match tech with Svm -> None | Txt { acm } -> Some acm in
          match Skinit.execute ?acm machine ~slb_base with
          | launch -> Ok launch
          | exception Skinit.Skinit_error msg -> Error msg)
    in
    match launch_result with
    | Error msg ->
        (* hardware refused the launch: the OS resumes untouched *)
        Os_state.restore machine platform.Platform.kernel saved_state;
        Apic.release_aps machine;
        Scheduler.resume platform.Platform.scheduler;
        finish (Error (Skinit_failed msg))
    | Ok launch ->
        (* the window still holds the loaded image exactly when it is
           still one slice of that very string from its start: any write
           since the load (a corrupted byte, a DMA write) copied a page
           out of it *)
        let pristine =
          match Memory.source memory ~addr:slb_base ~len:Layout.slb_size with
          | Some (s, 0) -> s == initialized
          | _ -> false
        in
        (* --- SLB Core init (plus the optimized stub's hash+extend) --- *)
        timed Slb_init (fun () ->
            Machine.charge machine Slb_core.init_overhead_ms;
            match flavor with
            | Builder.Standard -> ()
            | Builder.Optimized ->
                (* the measured stub hashes the full window on the main
                   CPU and extends PCR 17 before running any of it. The
                   simulated cost is charged in full; on the host, a
                   pristine window hashes to the digest the image's memo
                   slot keeps, and any other window is read back and
                   hashed *)
                let digest =
                  if pristine then Measurement.window_hash image ~slb_base
                  else
                    Flicker_crypto.Sha1.digest
                      (Memory.read memory ~addr:slb_base ~len:Layout.slb_size)
                in
                Machine.charge_sha1 machine ~bytes:Layout.slb_size;
                extend_pcr17 ~kind:Event.Stub platform digest);

        (* --- Execute PAL: only if the launched window holds its code.
           A pristine window holds the image linked from the PAL's code,
           so only another window is compared in place --- *)
        let measured_pal =
          pristine || Builder.holds_pal_code ~flavor memory ~slb_base pal.Pal.code
        in
        let pcr17_during = pcr17_of platform in
        let pal_entered = Clock.now clock in
        let env_outputs, pal_fault, escaped =
          timed Pal_execution (fun () ->
              (* chaos hook: a rogue device picks the worst moment — the
                 PAL is running, so the DEV window is armed and must deny
                 every write aimed at it *)
              Dma.fire_storm machine ~focus:(slb_base, Layout.total_footprint);
              if not measured_pal then ("", None, None)
              else
                let protection =
                  if Pal.wants pal Pal.Os_protection then
                    Some
                      (Mod_os_protection.policy_for_launch ~slb_base
                         ~footprint:Layout.total_footprint)
                  else None
                in
                let heap =
                  if Pal.wants pal Pal.Memory_management then
                    Some (Mod_memory.create ~size:(16 * 1024))
                  else None
                in
                let env =
                  Pal_env.create ~machine ~tpm:platform.Platform.tpm ~rng:session_rng
                    ~inputs ~inputs_addr:(slb_base + Layout.inputs_page_offset)
                    ~outputs_addr:(slb_base + Layout.outputs_page_offset) ~protection
                    ~heap
                in
                (match protection with
                | Some policy -> Mod_os_protection.enter_ring3 machine policy
                | None -> ());
                let fault, escaped =
                  match pal.Pal.behavior env with
                  | () -> (None, None)
                  | exception Mod_os_protection.Pal_fault msg ->
                      Machine.log_event machine ("PAL FAULT: " ^ msg);
                      (Some msg, None)
                  | exception e ->
                      (* any other exception ends the PAL too: the session
                         still wipes, caps and resumes, then re-raises it *)
                      (None, Some (e, Printexc.get_raw_backtrace ()))
                in
                (match protection with
                | Some _ -> Mod_os_protection.exit_ring3 machine
                | None -> ());
                (* SLB Core watchdog: a PAL that overran its allotted
                   time has its outputs dropped (the timer interrupt
                   fires before it can publish them) *)
                let elapsed = Clock.now clock -. pal_entered in
                (match (time_limit_ms, fault) with
                | Some limit, None when elapsed > limit ->
                    Machine.log_event machine
                      (Printf.sprintf
                         "PAL WATCHDOG: exceeded %.1f ms limit (%.1f ms)" limit
                         elapsed);
                    (* the unpublished output page is wiped with the rest *)
                    Memory.zero memory ~addr:(slb_base + Layout.outputs_page_offset)
                      ~len:Layout.io_page_size;
                    ( "",
                      Some
                        (Printf.sprintf "watchdog: PAL exceeded %.1f ms time limit"
                           limit),
                      escaped )
                | _ -> (Pal_env.output env, fault, escaped)))
        in

        if not (Scheduler.is_suspended platform.Platform.scheduler) then
          (* the platform was power-cycled under the PAL: the machine has
             rebooted, so nothing is left to wipe, extend or resume, and a
             relaunch may succeed *)
          finish ?escaped
            (Error (os_busy_transient "platform power-cycled during the session"))
        else begin
          (* --- Cleanup: erase everything the PAL touched inside the
             window and the input page (the output page goes back to the
             OS) --- *)
          timed Cleanup (fun () ->
              let wipe addr len =
                Memory.zero memory ~addr ~len;
                Machine.protocol_event machine (Event.Zeroize { addr; len })
              in
              wipe slb_base Layout.slb_size;
              wipe (slb_base + Layout.inputs_page_offset) Layout.io_page_size;
              Machine.charge machine Slb_core.cleanup_overhead_ms);

          (* --- Extend PCR 17 with the I/O measurements and the cap --- *)
          timed Pcr_extends (fun () ->
              List.iter
                (fun (kind, v) -> extend_pcr17 ~kind platform v)
                (Measurement.labeled_io_extends ~inputs ~outputs:env_outputs ~nonce);
              extend_pcr17 ~kind:Event.Cap platform Slb_core.cap_value);
          let pcr17_final = pcr17_of platform in

          (* --- Resume OS --- *)
          timed Resume_os (fun () ->
              Skinit.teardown_dev machine launch;
              Os_state.restore machine platform.Platform.kernel saved_state;
              Apic.release_aps machine;
              Scheduler.resume platform.Platform.scheduler;
              Sysfs.write platform.Platform.sysfs ~path:"outputs" env_outputs;
              Machine.charge machine Slb_core.cleanup_overhead_ms);

          finish ?escaped
            (if not measured_pal then Error Unknown_pal
             else
               Ok
                 {
                   outputs = env_outputs;
                   slb_measurement = launch.Skinit.measurement;
                   pcr17_during;
                   pcr17_final;
                   breakdown = List.rev !breakdown;
                   total_ms = Clock.now clock -. started;
                   pal_fault;
                 })
        end
  end

let execute_from_sysfs (platform : Platform.t) ~pal =
  (* check for a running session before inspecting sysfs: mid-session the
     slb entry may well be absent, and the caller needs to distinguish
     "retry later" from "you never wrote an SLB" *)
  if Scheduler.is_suspended platform.Platform.scheduler then
    Error (os_busy_transient "mid-session: another Flicker session owns the machine")
  else
  match Sysfs.read platform.Platform.sysfs ~path:"slb" with
  | None -> Error (os_busy_permanent "no SLB written to the sysfs slb entry")
  | Some window ->
      if String.length window <> Layout.slb_size then
        Error (os_busy_permanent "slb entry is not a full 64 KB window image")
      else begin
        (* the image must be one the handed PAL links to; which one
           names the flavor *)
        let built flavor =
          match Builder.linked ~flavor pal with
          | Ok image -> String.equal image.Builder.bytes window
          | Error _ -> false
        in
        match List.find_opt built [ Builder.Optimized; Builder.Standard ] with
        | None -> Error Unknown_pal
        | Some flavor ->
            let inputs =
              Option.value (Sysfs.read platform.Platform.sysfs ~path:"inputs") ~default:""
            in
            execute platform ~pal ~flavor ~inputs ()
      end

let corrupt_slb_in_memory (platform : Platform.t) =
  platform.Platform.corrupt_next_slb <- true

let call (platform : Platform.t) ~pal ?nonce ?inputs () =
  let machine = platform.Platform.machine in
  let attempts = 3 in
  let rec attempt n backoff =
    match execute platform ~pal ?inputs ?nonce () with
    | Error e when busy_is_transient e && n < attempts ->
        Metrics.incr machine.Machine.metrics "session.busy_retries";
        Machine.log_event machine
          (Printf.sprintf "session: OS busy, retrying in %.1f ms (attempt %d/%d)"
             backoff n attempts);
        Clock.advance machine.Machine.clock backoff;
        attempt (n + 1) (backoff *. 2.0)
    | Error e -> Error (Format.asprintf "%a" pp_error e)
    | Ok o when Pal_env.failed o.outputs -> Error o.outputs
    | Ok o -> Ok o
  in
  attempt 1 10.0
