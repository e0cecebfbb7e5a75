open Flicker_core
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Builder = Flicker_slb.Builder
module Layout = Flicker_slb.Layout
module Machine = Flicker_hw.Machine
module Memory = Flicker_hw.Memory
module Cpu = Flicker_hw.Cpu
module Tpm = Flicker_tpm.Tpm
module Checker = Flicker_verify.Checker

let make_platform ?seed () = Platform.create ?seed ~key_bits:512 ()

let hello =
  Pal.define ~name:"session-hello" (fun env ->
      Pal_env.set_output env ("Hello, " ^ env.Pal_env.inputs))

let run ?flavor ?inputs ?nonce platform pal =
  match Session.execute platform ~pal ?flavor ?inputs ?nonce () with
  | Ok outcome -> outcome
  | Error e -> Alcotest.failf "session failed: %a" Session.pp_error e

let test_basic_outputs () =
  let p = make_platform () in
  let outcome = run ~inputs:"world" p hello in
  Alcotest.(check string) "outputs" "Hello, world" outcome.Session.outputs;
  Alcotest.(check bool) "no fault" true (outcome.Session.pal_fault = None);
  (* outputs also visible through sysfs, as the application reads them *)
  Alcotest.(check (option string)) "sysfs outputs" (Some "Hello, world")
    (Flicker_os.Sysfs.read p.Platform.sysfs ~path:"outputs")

let test_phases_present () =
  let p = make_platform () in
  let outcome = run p hello in
  let phases = List.map fst outcome.Session.breakdown in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (Session.phase_name phase) true (List.mem phase phases))
    [
      Session.Load_slb; Session.Suspend_os; Session.Skinit; Session.Slb_init;
      Session.Pal_execution; Session.Cleanup; Session.Pcr_extends; Session.Resume_os;
    ];
  (* total equals the sum of phases *)
  let sum = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 outcome.Session.breakdown in
  Alcotest.(check (float 1e-6)) "phases sum to total" outcome.Session.total_ms sum

let test_skinit_time_by_flavor () =
  let p = make_platform () in
  let std = run ~flavor:Builder.Standard p hello in
  let opt = run ~flavor:Builder.Optimized p hello in
  (* the optimized stub keeps SKINIT near 14 ms; the standard image pays
     per measured byte *)
  Alcotest.(check (float 1.0)) "optimized skinit ~13.7" 13.7
    (Session.phase_ms opt Session.Skinit);
  Alcotest.(check bool) "standard differs from optimized" true
    (Session.phase_ms std Session.Skinit <> Session.phase_ms opt Session.Skinit);
  (* but the optimized flavor pays a CPU hash + extend in init *)
  Alcotest.(check bool) "optimized init cost" true
    (Session.phase_ms opt Session.Slb_init > Session.phase_ms std Session.Slb_init)

let test_pcr17_value () =
  let p = make_platform () in
  let nonce = Platform.fresh_nonce p in
  let outcome = run ~inputs:"in" ~nonce p hello in
  let image = Builder.build ~flavor:Builder.Optimized hello in
  (* during-PAL value matches the measurement chain *)
  Alcotest.(check string) "pcr17 during"
    (Measurement.after_launch image ~slb_base:p.Platform.slb_base)
    outcome.Session.pcr17_during;
  (* final value matches the full chain with io extends and cap *)
  Alcotest.(check string) "pcr17 final"
    (Measurement.final image ~slb_base:p.Platform.slb_base ~inputs:"in"
       ~outputs:outcome.Session.outputs ~nonce:(Some nonce))
    outcome.Session.pcr17_final;
  (* and the live TPM agrees *)
  Alcotest.(check string) "tpm agrees" outcome.Session.pcr17_final
    (Result.get_ok (Tpm.pcr_read p.Platform.tpm 17))

(* One platform alternates Optimized and Standard sessions of one PAL.
   Each launch sends its TPM another slice than the last (the other
   image's window string, and another length), so each is measured
   afresh, and every outcome must carry its own flavor's chain. *)
let test_flavors_alternating () =
  let p = make_platform () in
  let slb_base = p.Platform.slb_base in
  for _ = 1 to 3 do
    List.iter
      (fun flavor ->
        let image = Builder.build ~flavor hello in
        let nonce = Platform.fresh_nonce p in
        let outcome = run ~flavor ~inputs:"in" ~nonce p hello in
        Alcotest.(check string) "outputs" "Hello, in" outcome.Session.outputs;
        Alcotest.(check string) "slb measurement"
          (Measurement.of_image image ~slb_base)
          outcome.Session.slb_measurement;
        Alcotest.(check string) "pcr17 during"
          (Measurement.after_launch image ~slb_base)
          outcome.Session.pcr17_during;
        Alcotest.(check string) "pcr17 final"
          (Measurement.final image ~slb_base ~inputs:"in" ~outputs:outcome.Session.outputs
             ~nonce:(Some nonce))
          outcome.Session.pcr17_final)
      [ Builder.Optimized; Builder.Standard ]
  done

let test_measurement_differs_by_pal () =
  let p = make_platform () in
  let other = Pal.define ~name:"session-other" (fun env -> Pal_env.set_output env "x") in
  (* with the optimized loader, SKINIT itself measures only the shared
     stub — identical for every PAL; the PAL's identity enters PCR 17 via
     the stub's window-hash extend *)
  let o1 = run p hello in
  let o2 = run p other in
  Alcotest.(check string) "optimized: same stub measurement" o1.Session.slb_measurement
    o2.Session.slb_measurement;
  Alcotest.(check bool) "optimized: different pcr17" true
    (o1.Session.pcr17_during <> o2.Session.pcr17_during);
  (* with standard images, the SKINIT measurement itself distinguishes *)
  let s1 = run ~flavor:Builder.Standard p hello in
  let s2 = run ~flavor:Builder.Standard p other in
  Alcotest.(check bool) "standard: different measurements" true
    (s1.Session.slb_measurement <> s2.Session.slb_measurement)

let test_measurement_stable_across_sessions () =
  let p = make_platform () in
  let o1 = run p hello in
  let o2 = run p hello in
  Alcotest.(check string) "same PAL, same measurement" o1.Session.slb_measurement
    o2.Session.slb_measurement;
  Alcotest.(check string) "same during-value" o1.Session.pcr17_during o2.Session.pcr17_during

let test_cleanup_zeroizes () =
  let secret = "PAL-SECRET-0123456789" in
  let leaky =
    Pal.define ~name:"session-leaky" (fun env ->
        (* write a secret into the SLB scratch space and 'forget' it *)
        Pal_env.write_phys env
          ~addr:(env.Pal_env.inputs_addr - Layout.stack_size)
          secret;
        Pal_env.set_output env "done")
  in
  let p = make_platform () in
  ignore (run p leaky);
  Alcotest.(check (option int)) "secret erased by cleanup" None
    (Memory.find_pattern p.Platform.machine.Machine.memory secret)

let test_inputs_visible_to_pal () =
  let echo =
    Pal.define ~name:"session-echo-mem" (fun env ->
        (* read the inputs back out of the input page in memory *)
        let from_mem =
          Pal_env.read_phys env ~addr:env.Pal_env.inputs_addr
            ~len:(String.length env.Pal_env.inputs)
        in
        Pal_env.set_output env from_mem)
  in
  let p = make_platform () in
  let outcome = run ~inputs:"via-memory" p echo in
  Alcotest.(check string) "inputs via memory page" "via-memory" outcome.Session.outputs

let probe_platform = make_platform ~seed:"probe" ()

let probe =
  Pal.define ~name:"session-probe" (fun env ->
      let scheduler_suspended =
        Flicker_os.Scheduler.is_suspended probe_platform.Platform.scheduler
      in
      let bsp = Cpu.bsp probe_platform.Platform.machine.Machine.cpus in
      Pal_env.set_output env
        (Printf.sprintf "%b %b %b" scheduler_suspended bsp.Cpu.interrupts_enabled
           (Cpu.all_aps_parked probe_platform.Platform.machine.Machine.cpus)))

let test_os_suspended_during_pal () =
  let outcome = run probe_platform probe in
  Alcotest.(check string) "suspended, no interrupts, APs parked" "true false true"
    outcome.Session.outputs;
  (* and everything is back afterwards *)
  let bsp = Cpu.bsp probe_platform.Platform.machine.Machine.cpus in
  Alcotest.(check bool) "resumed" false
    (Flicker_os.Scheduler.is_suspended probe_platform.Platform.scheduler);
  Alcotest.(check bool) "interrupts back" true bsp.Cpu.interrupts_enabled;
  Alcotest.(check bool) "aps running" false
    (Cpu.all_aps_parked probe_platform.Platform.machine.Machine.cpus);
  Alcotest.(check bool) "paging back" true bsp.Cpu.paging_enabled

let dev_platform = make_platform ~seed:"dev-probe" ()

let dev_probe =
  Pal.define ~name:"session-dev-probe" (fun env ->
      Pal_env.set_output env
        (string_of_bool
           (Flicker_hw.Dev.allows dev_platform.Platform.machine.Machine.dev
              ~addr:dev_platform.Platform.slb_base ~len:65536)))

let test_dev_protection_window () =
  let outcome = run dev_platform dev_probe in
  Alcotest.(check string) "DMA blocked during session" "false" outcome.Session.outputs;
  Alcotest.(check bool) "DMA allowed after" true
    (Flicker_hw.Dev.allows dev_platform.Platform.machine.Machine.dev
       ~addr:dev_platform.Platform.slb_base ~len:65536)

let test_os_protection_fault () =
  let rogue =
    Pal.define ~name:"session-rogue" ~modules:[ Pal.Os_protection ] (fun env ->
        Pal_env.set_output env "before fault";
        (* OS memory far below the SLB; this must trap *)
        ignore (Pal_env.read_phys env ~addr:0x1000 ~len:16))
  in
  let p = make_platform () in
  let outcome = run p rogue in
  Alcotest.(check bool) "fault recorded" true (outcome.Session.pal_fault <> None);
  (* ring transition happened and was undone *)
  Alcotest.(check int) "back in ring 0" 0
    (Cpu.bsp p.Platform.machine.Machine.cpus).Cpu.ring

let test_unprotected_pal_reads_os_memory () =
  (* without the OS-protection module, a PAL really can read OS memory —
     the control condition for the previous test *)
  let p = make_platform () in
  Memory.write p.Platform.machine.Machine.memory ~addr:0x1000 "oskernel";
  let snoop =
    Pal.define ~name:"session-snoop" (fun env ->
        Pal_env.set_output env (Pal_env.read_phys env ~addr:0x1000 ~len:8))
  in
  let outcome = run p snoop in
  Alcotest.(check string) "read OS memory" "oskernel" outcome.Session.outputs;
  Alcotest.(check bool) "no fault" true (outcome.Session.pal_fault = None)

let test_corrupt_slb_changes_measurement () =
  let p = make_platform () in
  let good = run p hello in
  Session.corrupt_slb_in_memory p;
  match Session.execute p ~pal:hello () with
  | Error Session.Unknown_pal ->
      (* nothing ran; the OS recovered; a fresh session works again *)
      let again = run p hello in
      Alcotest.(check string) "recovered" good.Session.slb_measurement
        again.Session.slb_measurement
  | Error e -> Alcotest.failf "unexpected error: %a" Session.pp_error e
  | Ok outcome ->
      Alcotest.(check bool) "measurement differs" true
        (outcome.Session.slb_measurement <> good.Session.slb_measurement)

(* After a flip in the PAL region, PCR 17 is the chain over the
   corrupted bytes: the SHA-1 of the initialized window's measured
   prefix with the flipped byte, for Optimized the stub's measurement of
   the whole corrupted window, the I/O extends (no output: the PAL never
   ran) and the cap. The Optimized stub must hash the window as SKINIT
   left it: a chain that reused the clean window's digest would differ
   here, while the empty output alone already makes it differ from the
   honest one. Only in a Standard image does the flip lie inside the
   measured bytes, so its TPM is sent bytes it did not measure last and
   must hash them. The next clean launch measures like the first. *)
let test_corrupt_pcr17 flavor () =
  let p = make_platform () in
  let image = Builder.build ~flavor hello in
  let off = image.Builder.pal_region_off in
  Alcotest.(check bool) "flip inside the measured bytes" (flavor = Builder.Standard)
    (off < image.Builder.measured_length);
  let first = run ~flavor ~inputs:"in" p hello in
  Session.corrupt_slb_in_memory p;
  (match Session.execute p ~pal:hello ~flavor ~inputs:"in" () with
  | Error Session.Unknown_pal -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Session.pp_error e
  | Ok _ -> Alcotest.fail "the corrupted PAL ran");
  let window = Bytes.of_string (Builder.initialize image ~slb_base:p.Platform.slb_base) in
  Bytes.set window off (Char.chr (Char.code (Bytes.get window off) lxor 0xff));
  let window = Bytes.to_string window in
  let h = Flicker_crypto.Sha1.digest in
  let stub = match flavor with Builder.Optimized -> [ h window ] | Builder.Standard -> [] in
  let chain =
    List.fold_left
      (fun pcr v -> h (pcr ^ v))
      (String.make 20 '\000')
      ((h (String.sub window 0 image.Builder.measured_length) :: stub)
      @ [ h "in"; h ""; Flicker_slb.Slb_core.cap_value ])
  in
  Alcotest.(check string) "pcr17 over the corrupted bytes" chain
    (Result.get_ok (Tpm.pcr_read p.Platform.tpm 17));
  let third = run ~flavor ~inputs:"in" p hello in
  Alcotest.(check string) "third launch measured like the first"
    first.Session.slb_measurement third.Session.slb_measurement;
  Alcotest.(check string) "third pcr17 like the first" first.Session.pcr17_final
    third.Session.pcr17_final

(* Host-work meter, the same gate as [bench micro]'s "measurement
   cache" row: a fresh PAL's first Optimized session misses its image's
   memo slot once, and 20 more sessions only hit. Relaunching the PAL,
   the platform sends its TPM the 4,736 measured bytes that TPM
   measured last, which it extends again without hashing, and the stub
   extends the slot's window digest. What the host still hashes is the
   I/O and PCR extends, at most 256 bytes a session. *)
let test_host_sha1_bytes_per_session () =
  let p = make_platform () in
  let pal = Pal.define ~name:"session-memo-gate" (fun env -> Pal_env.set_output env "hi") in
  let session () = ignore (run ~flavor:Builder.Optimized ~inputs:"x" p pal) in
  let _, misses0 = Measurement.cache_stats () in
  session ();
  let hits1, misses1 = Measurement.cache_stats () in
  Alcotest.(check int) "first session misses once" 1 (misses1 - misses0);
  let sessions = 20 in
  let before = Flicker_crypto.Sha1.bytes_hashed () in
  for _ = 1 to sessions do
    session ()
  done;
  let per_session = (Flicker_crypto.Sha1.bytes_hashed () - before) / sessions in
  let hits2, misses2 = Measurement.cache_stats () in
  Alcotest.(check int) "warm sessions never miss" misses1 misses2;
  Alcotest.(check bool) "warm sessions hit" true (hits2 - hits1 >= sessions);
  if per_session > 256 then
    Alcotest.failf "%d host SHA-1 bytes per Optimized session (limit 256)" per_session

(* Allocation meter: a warm session allocates almost nothing directly in
   the major heap, whatever the size of its PAL's code. It loads the
   window string the image's memo slot keeps as slices, extends the
   digest that slot keeps, and tells the TPM's measured bytes and the
   launched code apart from the loaded image by the window's source
   alone: a copy of either out of simulated RAM would go straight to the
   major heap, 594 words for the 4,736-byte stub and about 5,400 for the
   43,143 bytes of code of a PAL linked with the TPM driver, TPM
   utilities and crypto, and so would a 4 KB page copied on write.
   Words counted are [Gc.counters]' major minus promoted, each read
   after a minor collection. With promoted words included, a session
   stays below one 64 KB window (8,192 words). Promoted words alone stay
   at 16 or fewer: the machine's trace ring lives in the major heap, so
   anything young it kept (an args list, a hex value, a formatted log
   line) would be promoted, about 159 words a session. It keeps only
   scalars and strings that already outlive the session. *)
let tpm_crypto_pal =
  Pal.define ~name:"session-tpm-crypto"
    ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities; Pal.Crypto ]
    (fun env -> Pal_env.set_output env "signed")

let test_major_words_per_session pal () =
  let p = make_platform () in
  let session () = ignore (run ~flavor:Builder.Optimized ~inputs:"x" p pal) in
  for _ = 1 to 20 do
    session ()
  done;
  let sessions = 200 in
  let counters () =
    Gc.minor ();
    let _, promoted, major = Gc.counters () in
    (major, major -. promoted, promoted)
  in
  let major0, direct0, promoted0 = counters () in
  for _ = 1 to sessions do
    session ()
  done;
  let major1, direct1, promoted1 = counters () in
  let per_session v0 v1 = (v1 -. v0) /. float_of_int sessions in
  let direct = per_session direct0 direct1 and major = per_session major0 major1 in
  let promoted = per_session promoted0 promoted1 in
  if promoted > 16.0 then
    Alcotest.failf "%.0f words promoted per warm Optimized session (limit 16)" promoted;
  if direct > 64.0 then
    Alcotest.failf "%.0f direct major-heap words per Optimized session (limit 64)" direct;
  if major >= 8192.0 then
    Alcotest.failf "%.0f major-heap words per Optimized session (limit 8192)" major

let test_input_validation () =
  let p = make_platform () in
  Alcotest.(check bool) "oversized inputs" true
    (match Session.execute p ~pal:hello ~inputs:(String.make 5000 'x') () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad nonce" true
    (match Session.execute p ~pal:hello ~nonce:"short" () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_output_page_limit () =
  let big_mouth =
    Pal.define ~name:"session-bigmouth" (fun env ->
        Pal_env.set_output env (String.make (Layout.io_page_size + 1) 'x'))
  in
  let p = make_platform () in
  let checker = Checker.create () in
  Machine.attach_checker p.Platform.machine checker;
  Alcotest.(check bool) "oversized output raises in PAL" true
    (match run p big_mouth with
    | exception Invalid_argument _ -> true
    | _outcome -> false);
  (* the raising session still wiped, capped and resumed: the platform
     serves its next session, and neither session broke the protocol *)
  let next = run ~inputs:"again" p hello in
  Alcotest.(check string) "next session runs" "Hello, again" next.Session.outputs;
  Alcotest.(check int) "no violations" 0
    (List.length (Checker.report checker).Checker.violations)

let test_execute_from_sysfs () =
  (* the paper's application flow: write slb + inputs, poke control *)
  let p = make_platform () in
  let fs = p.Platform.sysfs in
  (* nothing written yet *)
  (match Session.execute_from_sysfs p ~pal:hello with
  | Error (Session.Os_busy _) -> ()
  | _ -> Alcotest.fail "missing slb accepted");
  let image = Builder.build ~flavor:Builder.Optimized hello in
  Flicker_os.Sysfs.write fs ~path:"slb" image.Builder.bytes;
  Flicker_os.Sysfs.write fs ~path:"inputs" "sysfs-world";
  Flicker_os.Sysfs.write fs ~path:"control" "1";
  (match Session.execute_from_sysfs p ~pal:hello with
  | Error e -> Alcotest.failf "sysfs session: %a" Session.pp_error e
  | Ok outcome ->
      Alcotest.(check string) "outputs" "Hello, sysfs-world" outcome.Session.outputs;
      Alcotest.(check (option string)) "outputs entry" (Some "Hello, sysfs-world")
        (Flicker_os.Sysfs.read fs ~path:"outputs"));
  (* the image the application wrote names its flavor *)
  let std = Builder.build ~flavor:Builder.Standard hello in
  Flicker_os.Sysfs.write fs ~path:"slb" std.Builder.bytes;
  (match Session.execute_from_sysfs p ~pal:hello with
  | Error e -> Alcotest.failf "std sysfs session: %a" Session.pp_error e
  | Ok outcome ->
      Alcotest.(check string) "std measured length matches"
        (Measurement.after_launch std ~slb_base:p.Platform.slb_base)
        outcome.Session.pcr17_during);
  (* a corrupt blob is rejected before any launch *)
  Flicker_os.Sysfs.write fs ~path:"slb" (String.make Flicker_slb.Layout.slb_size '\xff');
  match Session.execute_from_sysfs p ~pal:hello with
  | Error (Session.Os_busy _) | Error Session.Unknown_pal -> ()
  | _ -> Alcotest.fail "corrupt sysfs blob accepted"

let test_sysfs_image_of_other_pal () =
  (* the application hands the PAL it wrote; an image of another PAL
     launches nothing *)
  let p = make_platform () in
  let other = Pal.define ~name:"session-other" (fun env -> Pal_env.set_output env "other") in
  Flicker_os.Sysfs.write p.Platform.sysfs ~path:"slb" (Builder.build other).Builder.bytes;
  (match Session.execute_from_sysfs p ~pal:hello with
  | Error Session.Unknown_pal -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Session.pp_error e
  | Ok _ -> Alcotest.fail "ran the handed PAL on another PAL's image");
  Alcotest.(check int) "nothing launched" 0 p.Platform.sessions_run

let test_pal_too_large_for_optimized () =
  (* 58,000 bytes of code fit the standard PAL region but not the one
     behind the optimized stub. The default launch fails as a permanent
     Os_busy carrying the link message, before it counts, traces or
     touches anything; the sysfs path launches the standard image the
     application wrote *)
  let p = make_platform () in
  let big =
    Pal.define ~name:"session-big" ~app_code_size:58_000 (fun env ->
        Pal_env.set_output env "ran")
  in
  let machine = p.Platform.machine in
  let traced = Flicker_obs.Tracer.length machine.Machine.tracer in
  (match Session.execute p ~pal:big () with
  | Error (Session.Os_busy { transient = false; msg }) ->
      Alcotest.(check string) "link message"
        "Builder.build: PAL too large for the optimized SLB" msg
  | Error e -> Alcotest.failf "unexpected error: %a" Session.pp_error e
  | Ok _ -> Alcotest.fail "launched a PAL the optimized SLB cannot hold");
  Alcotest.(check int) "nothing launched" 0 p.Platform.sessions_run;
  Alcotest.(check int) "no run counted" 0
    (Flicker_obs.Metrics.counter machine.Machine.metrics "session.runs");
  Alcotest.(check int) "nothing traced" traced
    (Flicker_obs.Tracer.length machine.Machine.tracer);
  let std = Builder.build ~flavor:Builder.Standard big in
  Flicker_os.Sysfs.write p.Platform.sysfs ~path:"slb" std.Builder.bytes;
  match Session.execute_from_sysfs p ~pal:big with
  | Ok o -> Alcotest.(check string) "standard image ran" "ran" o.Session.outputs
  | Error e -> Alcotest.failf "sysfs session: %a" Session.pp_error e

let test_standard_size_edges () =
  (* 4 + 320 + 4412 bytes measure exactly as much as the optimized stub;
     the session knows the flavor it built and must not mistake one for
     the other *)
  let p = make_platform () in
  List.iter
    (fun size ->
      let pal =
        Pal.define ~name:(Printf.sprintf "session-std-%d" size) ~app_code_size:size
          (fun env -> Pal_env.set_output env "ran")
      in
      let o = run ~flavor:Builder.Standard p pal in
      Alcotest.(check string) (Printf.sprintf "%d bytes ran" size) "ran" o.Session.outputs)
    [ 4411; 4412; 4413 ]

let test_sessions_increment () =
  let p = make_platform () in
  ignore (run p hello);
  ignore (run p hello);
  Alcotest.(check int) "two sessions" 2 p.Platform.sessions_run

(* [Session.call] returns a PAL's failure report whole as its error. The
   report is still the session's output: the session ran, and the sysfs
   outputs entry holds it. *)
let test_call_pal_failure () =
  let p = make_platform () in
  let pal = Pal.define ~name:"session-fails" (fun env -> Pal_env.fail env "no can do") in
  (match Session.call p ~pal () with
  | Error report -> Alcotest.(check string) "report, whole" "ERROR: no can do" report
  | Ok _ -> Alcotest.fail "a failure report read as a result");
  Alcotest.(check int) "the session ran" 1 p.Platform.sessions_run;
  Alcotest.(check (option string)) "on the output page" (Some "ERROR: no can do")
    (Flicker_os.Sysfs.read p.Platform.sysfs ~path:"outputs");
  match Session.call p ~pal:hello ~inputs:"world" () with
  | Ok o -> Alcotest.(check string) "a result reads as one" "Hello, world" o.Session.outputs
  | Error e -> Alcotest.fail e

(* a session error comes back from [Session.call] exactly as [pp_error]
   renders it *)
let test_call_session_error () =
  let p = make_platform () in
  Session.corrupt_slb_in_memory p;
  match Session.call p ~pal:hello () with
  | Error e ->
      Alcotest.(check string) "rendered by pp_error"
        (Format.asprintf "%a" Session.pp_error Session.Unknown_pal)
        e
  | Ok _ -> Alcotest.fail "ran a corrupted SLB"

let test_measurement_module () =
  let image = Builder.build ~flavor:Builder.Standard hello in
  let base = 0x200000 in
  (* standard: V = extend(0, H(image)) *)
  Alcotest.(check string) "standard after_launch"
    (Measurement.extend (String.make 20 '\000') (Measurement.of_image image ~slb_base:base))
    (Measurement.after_launch image ~slb_base:base);
  (* different base gives different measurement (patched GDT) *)
  Alcotest.(check bool) "base-sensitive" true
    (Measurement.of_image image ~slb_base:base
    <> Measurement.of_image image ~slb_base:0x300000);
  (* io extends: nonce present adds one link *)
  let kinds extends =
    List.map (fun (kind, _) -> Flicker_verify.Event.pcr_kind_to_string kind) extends
  in
  Alcotest.(check (list string)) "io extends without nonce" [ "input"; "output" ]
    (kinds (Measurement.labeled_io_extends ~inputs:"" ~outputs:"" ~nonce:None));
  Alcotest.(check (list string)) "io extends with nonce" [ "input"; "output"; "nonce" ]
    (kinds
       (Measurement.labeled_io_extends ~inputs:"" ~outputs:""
          ~nonce:(Some (String.make 20 'n'))));
  (* final differs when outputs differ *)
  Alcotest.(check bool) "output-sensitive" true
    (Measurement.final image ~slb_base:base ~inputs:"" ~outputs:"a" ~nonce:None
    <> Measurement.final image ~slb_base:base ~inputs:"" ~outputs:"b" ~nonce:None)

let () =
  Alcotest.run "session"
    [
      ( "execution",
        [
          Alcotest.test_case "basic outputs" `Quick test_basic_outputs;
          Alcotest.test_case "phases present" `Quick test_phases_present;
          Alcotest.test_case "skinit by flavor" `Quick test_skinit_time_by_flavor;
          Alcotest.test_case "inputs via memory" `Quick test_inputs_visible_to_pal;
          Alcotest.test_case "session count" `Quick test_sessions_increment;
          Alcotest.test_case "call: PAL failure report" `Quick test_call_pal_failure;
          Alcotest.test_case "call: session error" `Quick test_call_session_error;
          Alcotest.test_case "sysfs entry point" `Quick test_execute_from_sysfs;
          Alcotest.test_case "sysfs image of other pal" `Quick test_sysfs_image_of_other_pal;
          Alcotest.test_case "standard size edges" `Quick test_standard_size_edges;
          Alcotest.test_case "pal too large for optimized" `Quick
            test_pal_too_large_for_optimized;
          Alcotest.test_case "input validation" `Quick test_input_validation;
          Alcotest.test_case "output page limit" `Quick test_output_page_limit;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "pcr17 chain" `Quick test_pcr17_value;
          Alcotest.test_case "flavors alternating" `Quick test_flavors_alternating;
          Alcotest.test_case "differs by pal" `Quick test_measurement_differs_by_pal;
          Alcotest.test_case "stable across sessions" `Quick
            test_measurement_stable_across_sessions;
          Alcotest.test_case "measurement functions" `Quick test_measurement_module;
          Alcotest.test_case "corrupt slb" `Quick test_corrupt_slb_changes_measurement;
          Alcotest.test_case "corrupt optimized pcr17" `Quick
            (test_corrupt_pcr17 Builder.Optimized);
          Alcotest.test_case "corrupt standard pcr17" `Quick
            (test_corrupt_pcr17 Builder.Standard);
          Alcotest.test_case "major words per session" `Quick
            (test_major_words_per_session hello);
          Alcotest.test_case "major words, TPM+crypto PAL" `Quick
            (test_major_words_per_session tpm_crypto_pal);
          Alcotest.test_case "host SHA-1 bytes per session" `Quick
            test_host_sha1_bytes_per_session;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "cleanup zeroizes" `Quick test_cleanup_zeroizes;
          Alcotest.test_case "os suspended during pal" `Quick test_os_suspended_during_pal;
          Alcotest.test_case "dev window" `Quick test_dev_protection_window;
          Alcotest.test_case "os-protection fault" `Quick test_os_protection_fault;
          Alcotest.test_case "unprotected pal reads os" `Quick
            test_unprotected_pal_reads_os_memory;
        ] );
    ]
