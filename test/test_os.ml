open Flicker_crypto
open Flicker_os
module Machine = Flicker_hw.Machine
module Clock = Flicker_hw.Clock
module Cpu = Flicker_hw.Cpu
module Apic = Flicker_hw.Apic
module Timing = Flicker_hw.Timing

let make_machine () = Machine.create ~memory_size:(1024 * 1024) Timing.default
let make_kernel () = Kernel.create (Prng.create ~seed:"k") ~text_size:8192 ~version:"2.6.20" ()

(* --- kernel --- *)

let test_kernel_deterministic () =
  let k1 = make_kernel () and k2 = make_kernel () in
  Alcotest.(check string) "same seed, same text" (Kernel.text_segment k1)
    (Kernel.text_segment k2);
  Alcotest.(check string) "same syscalls" (Kernel.syscall_table k1) (Kernel.syscall_table k2)

let test_kernel_rootkits () =
  let try_rootkit install =
    let k = make_kernel () in
    let before =
      (Kernel.text_segment k, Kernel.syscall_table k, Kernel.loaded_modules k)
    in
    Alcotest.(check bool) "clean" false (Kernel.is_compromised k);
    install k;
    Alcotest.(check bool) "compromised" true (Kernel.is_compromised k);
    let after = (Kernel.text_segment k, Kernel.syscall_table k, Kernel.loaded_modules k) in
    Alcotest.(check bool) "state changed" true (before <> after)
  in
  try_rootkit Kernel.install_text_rootkit;
  try_rootkit Kernel.install_syscall_rootkit;
  try_rootkit Kernel.install_module_rootkit

let test_kernel_text_rootkit_preserves_size () =
  let k = make_kernel () in
  let before = String.length (Kernel.text_segment k) in
  Kernel.install_text_rootkit k;
  Alcotest.(check int) "inline hook keeps size" before
    (String.length (Kernel.text_segment k))

let test_kernel_measured_bytes () =
  let k = make_kernel () in
  let expected =
    String.length (Kernel.text_segment k)
    + String.length (Kernel.syscall_table k)
    + List.fold_left (fun a (_, c) -> a + String.length c) 0 (Kernel.loaded_modules k)
  in
  Alcotest.(check int) "measured bytes" expected (Kernel.measured_bytes k)

(* --- OS state save/restore --- *)

let test_os_state_roundtrip () =
  let m = make_machine () in
  let k = make_kernel () in
  Kernel.set_page_table_root k 0xBEEF000;
  let bsp = Cpu.bsp m.Machine.cpus in
  bsp.Cpu.cr3 <- 0xBEEF000;
  let saved = Os_state.save m k in
  Alcotest.(check int) "saved cr3" 0xBEEF000 (Os_state.saved_cr3 saved);
  (* clobber everything, as SKINIT does *)
  bsp.Cpu.interrupts_enabled <- false;
  bsp.Cpu.paging_enabled <- false;
  bsp.Cpu.mode <- Cpu.Flat_protected;
  bsp.Cpu.cr3 <- 0;
  Os_state.restore m k saved;
  Alcotest.(check bool) "interrupts back" true bsp.Cpu.interrupts_enabled;
  Alcotest.(check bool) "paging back" true bsp.Cpu.paging_enabled;
  Alcotest.(check bool) "mode back" true (bsp.Cpu.mode = Cpu.Long_mode);
  Alcotest.(check int) "cr3 back" 0xBEEF000 bsp.Cpu.cr3

(* --- scheduler --- *)

let test_scheduler_single_process () =
  let m = make_machine () in
  let s = Scheduler.create m in
  let p = Scheduler.spawn s ~name:"job" ~work_ms:100.0 in
  Scheduler.run_for s 50.0;
  Alcotest.(check bool) "half done" true (abs_float (p.Scheduler.remaining_ms -. 50.0) < 1e-6);
  Scheduler.run_for s 50.0;
  Alcotest.(check bool) "complete" true (p.Scheduler.completed_at <> None)

let test_scheduler_fair_share () =
  (* two cores, three equal jobs: each runs at 2/3 rate *)
  let m = make_machine () in
  let s = Scheduler.create m in
  let jobs = List.init 3 (fun i -> Scheduler.spawn s ~name:(string_of_int i) ~work_ms:100.0) in
  Scheduler.run_for s 150.0;
  List.iter
    (fun p -> Alcotest.(check bool) "finished at 150" true (p.Scheduler.completed_at <> None))
    jobs;
  (* one more job than capacity finishes exactly at work/(cores/n) *)
  let m2 = make_machine () in
  let s2 = Scheduler.create m2 in
  let p = Scheduler.spawn s2 ~name:"solo" ~work_ms:100.0 in
  Scheduler.run_for s2 99.0;
  Alcotest.(check bool) "not yet" true (p.Scheduler.completed_at = None);
  Scheduler.run_for s2 1.0;
  Alcotest.(check bool) "exactly done" true (p.Scheduler.completed_at <> None)

let test_scheduler_hotplug () =
  (* descheduling the AP halves throughput for two parallel jobs *)
  let m = make_machine () in
  let s = Scheduler.create m in
  Alcotest.(check int) "two cores" 2 (Scheduler.online_cores s);
  Apic.deschedule_aps m;
  Alcotest.(check int) "one core" 1 (Scheduler.online_cores s);
  let a = Scheduler.spawn s ~name:"a" ~work_ms:100.0 in
  let b = Scheduler.spawn s ~name:"b" ~work_ms:100.0 in
  Scheduler.run_for s 200.0;
  Alcotest.(check bool) "both needed 200ms wall on 1 core" true
    (a.Scheduler.completed_at <> None && b.Scheduler.completed_at <> None);
  Scheduler.run_for s 0.0;
  Alcotest.(check (float 1e-6)) "clock at 200" 200.0 (Clock.now m.Machine.clock)

let test_scheduler_suspend () =
  let m = make_machine () in
  let s = Scheduler.create m in
  let p = Scheduler.spawn s ~name:"job" ~work_ms:100.0 in
  Scheduler.suspend s;
  Alcotest.(check bool) "suspended" true (Scheduler.is_suspended s);
  Scheduler.run_for s 500.0;
  Alcotest.(check bool) "no progress while suspended" true
    (p.Scheduler.remaining_ms = 100.0);
  Alcotest.(check (float 1e-6)) "clock still advanced" 500.0 (Clock.now m.Machine.clock);
  Scheduler.resume s;
  Scheduler.run_until_complete s p;
  Alcotest.(check bool) "done after resume" true (p.Scheduler.completed_at <> None)

let test_scheduler_completion_time () =
  let m = make_machine () in
  let s = Scheduler.create m in
  let p = Scheduler.spawn s ~name:"x" ~work_ms:42.0 in
  Scheduler.run_until_complete s p;
  match p.Scheduler.completed_at with
  | Some t -> Alcotest.(check (float 1e-6)) "completes at 42" 42.0 t
  | None -> Alcotest.fail "not complete"

(* --- sysfs --- *)

let test_sysfs () =
  let fs = Sysfs.create () in
  Sysfs.write fs ~path:"slb" "blob";
  Sysfs.write fs ~path:"inputs" "in";
  Alcotest.(check (option string)) "read" (Some "blob") (Sysfs.read fs ~path:"slb");
  Alcotest.(check (option string)) "missing" None (Sysfs.read fs ~path:"outputs");
  Alcotest.(check string) "read_exn" "in" (Sysfs.read_exn fs ~path:"inputs");
  Alcotest.check_raises "read_exn missing" Not_found (fun () ->
      ignore (Sysfs.read_exn fs ~path:"nope"));
  Sysfs.write fs ~path:"slb" "blob2";
  Alcotest.(check (option string)) "overwrite" (Some "blob2") (Sysfs.read fs ~path:"slb");
  Alcotest.(check (list string)) "paths" [ "inputs"; "slb" ] (Sysfs.paths fs);
  Sysfs.remove fs ~path:"slb";
  Alcotest.(check (list string)) "removed" [ "inputs" ] (Sysfs.paths fs);
  Alcotest.(check (list string)) "standard entries"
    [ "control"; "inputs"; "outputs"; "slb" ]
    Sysfs.standard_entries

(* --- block devices --- *)

let test_blockdev_transfer () =
  let m = make_machine () in
  let s = Scheduler.create m in
  let cdrom = Blockdev.create ~name:"cdrom" ~rate_kb_per_ms:10.0 in
  let usb = Blockdev.create ~name:"usb" ~rate_kb_per_ms:20.0 in
  let data = Prng.bytes (Prng.create ~seed:"file") (300 * 1024) in
  Blockdev.store cdrom ~file:"movie.avi" data;
  let ms =
    Result.get_ok (Blockdev.transfer m ~scheduler:s ~src:cdrom ~dst:usb ~file:"movie.avi" ())
  in
  (* 300 KB at the slower 10 KB/ms rate = 30 ms *)
  Alcotest.(check (float 0.5)) "duration" 30.0 ms;
  Alcotest.(check string) "integrity" (Md5.hex data)
    (Result.get_ok (Blockdev.md5sum usb ~file:"movie.avi"));
  Alcotest.(check bool) "missing file" true
    (Result.is_error (Blockdev.transfer m ~scheduler:s ~src:cdrom ~dst:usb ~file:"nope" ()))

let test_blockdev_interleaved_with_suspension () =
  (* chunks issued around OS suspensions still produce a bit-exact copy *)
  let m = make_machine () in
  let s = Scheduler.create m in
  let hd = Blockdev.create ~name:"hd" ~rate_kb_per_ms:50.0 in
  let usb = Blockdev.create ~name:"usb" ~rate_kb_per_ms:20.0 in
  let data = Prng.bytes (Prng.create ~seed:"big") (512 * 1024) in
  Blockdev.store hd ~file:"big.bin" data;
  let sessions = ref 0 in
  let between_chunks () =
    incr sessions;
    (* simulate a Flicker session freezing the OS *)
    Scheduler.suspend s;
    Clock.advance m.Machine.clock 37.0;
    Scheduler.resume s
  in
  ignore
    (Result.get_ok
       (Blockdev.transfer m ~scheduler:s ~src:hd ~dst:usb ~file:"big.bin"
          ~chunk_kb:64 ~between_chunks ()));
  Alcotest.(check bool) "sessions ran during copy" true (!sessions >= 8);
  Alcotest.(check string) "md5 intact" (Md5.hex data)
    (Result.get_ok (Blockdev.md5sum usb ~file:"big.bin"))

let () =
  Alcotest.run "os"
    [
      ( "kernel",
        [
          Alcotest.test_case "deterministic" `Quick test_kernel_deterministic;
          Alcotest.test_case "rootkits mutate state" `Quick test_kernel_rootkits;
          Alcotest.test_case "inline hook size" `Quick test_kernel_text_rootkit_preserves_size;
          Alcotest.test_case "measured bytes" `Quick test_kernel_measured_bytes;
        ] );
      ("os state", [ Alcotest.test_case "save/restore" `Quick test_os_state_roundtrip ]);
      ( "scheduler",
        [
          Alcotest.test_case "single process" `Quick test_scheduler_single_process;
          Alcotest.test_case "fair share" `Quick test_scheduler_fair_share;
          Alcotest.test_case "cpu hotplug" `Quick test_scheduler_hotplug;
          Alcotest.test_case "suspend" `Quick test_scheduler_suspend;
          Alcotest.test_case "completion time" `Quick test_scheduler_completion_time;
        ] );
      ("sysfs", [ Alcotest.test_case "entries" `Quick test_sysfs ]);
      ( "blockdev",
        [
          Alcotest.test_case "transfer" `Quick test_blockdev_transfer;
          Alcotest.test_case "interleaved with sessions" `Quick
            test_blockdev_interleaved_with_suspension;
        ] );
    ]
