open Flicker_hw
module Tracer = Flicker_obs.Tracer

let timing = Timing.default
let make_machine () = Machine.create ~memory_size:(1024 * 1024) timing

let test_clock () =
  let c = Clock.create () in
  Alcotest.(check (float 0.0)) "starts at zero" 0.0 (Clock.now c);
  Clock.advance c 12.5;
  Clock.advance c 0.5;
  Alcotest.(check (float 1e-9)) "accumulates" 13.0 (Clock.now c);
  Alcotest.check_raises "negative" (Invalid_argument "Clock.advance: negative")
    (fun () -> Clock.advance c (-1.0));
  let (), span = Clock.time c (fun () -> Clock.advance c 5.0) in
  Alcotest.(check (float 1e-9)) "span" 5.0 (Clock.duration span)

let test_memory_rw () =
  let m = Memory.create ~size:8192 in
  Memory.write m ~addr:100 "hello";
  Alcotest.(check string) "read back" "hello" (Memory.read m ~addr:100 ~len:5);
  Memory.write_byte m 0 0xAB;
  Alcotest.(check int) "byte" 0xAB (Memory.read_byte m 0);
  Memory.write_u16_le m 10 0x1234;
  Alcotest.(check int) "u16le" 0x1234 (Memory.read_u16_le m 10);
  Alcotest.(check int) "u16 byte order" 0x34 (Memory.read_byte m 10);
  Memory.zero m ~addr:100 ~len:5;
  Alcotest.(check string) "zeroed" "\000\000\000\000\000" (Memory.read m ~addr:100 ~len:5)

let test_memory_bounds () =
  let m = Memory.create ~size:4096 in
  Alcotest.(check bool) "oob read" true
    (match Memory.read m ~addr:4090 ~len:10 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "negative addr" true
    (match Memory.read m ~addr:(-1) ~len:1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad size" true
    (match Memory.create ~size:1000 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_memory_pages () =
  Alcotest.(check int) "page of 0" 0 (Memory.page_of_addr 0);
  Alcotest.(check int) "page of 4096" 1 (Memory.page_of_addr 4096);
  Alcotest.(check (pair int int)) "range" (0, 1)
    (Memory.pages_of_range ~addr:4000 ~len:200);
  Alcotest.(check (pair int int)) "single page" (2, 2)
    (Memory.pages_of_range ~addr:8192 ~len:4096)

let test_find_pattern () =
  let m = Memory.create ~size:8192 in
  Memory.write m ~addr:5000 "NEEDLE";
  Alcotest.(check (option int)) "found" (Some 5000) (Memory.find_pattern m "NEEDLE");
  Alcotest.(check (option int)) "absent" None (Memory.find_pattern m "MISSING");
  Memory.zero m ~addr:5000 ~len:6;
  Alcotest.(check (option int)) "erased" None (Memory.find_pattern m "NEEDLE")

let test_dev () =
  let dev = Dev.create ~pages:16 in
  Alcotest.(check bool) "initially open" true (Dev.allows dev ~addr:0 ~len:65536);
  Dev.protect_range dev ~addr:4096 ~len:8192;
  Alcotest.(check (list int)) "protected pages" [ 1; 2 ] (Dev.protected_pages dev);
  Alcotest.(check bool) "blocked" false (Dev.allows dev ~addr:5000 ~len:10);
  Alcotest.(check bool) "straddling blocked" false (Dev.allows dev ~addr:4000 ~len:200);
  Alcotest.(check bool) "outside allowed" true (Dev.allows dev ~addr:0 ~len:4096);
  Alcotest.(check bool) "after allowed" true (Dev.allows dev ~addr:12288 ~len:100);
  Dev.unprotect_range dev ~addr:4096 ~len:4096;
  Alcotest.(check (list int)) "partially cleared" [ 2 ] (Dev.protected_pages dev);
  Dev.clear dev;
  Alcotest.(check (list int)) "cleared" [] (Dev.protected_pages dev);
  Alcotest.(check bool) "empty access ok" true (Dev.allows dev ~addr:0 ~len:0)

let test_dma_blocked_by_dev () =
  let m = make_machine () in
  let nic = Dma.create m ~name:"evil-nic" in
  Flicker_hw.Memory.write m.Machine.memory ~addr:0x1000 "secret";
  (match Dma.read nic ~addr:0x1000 ~len:6 with
  | Ok data -> Alcotest.(check string) "dma read works when open" "secret" data
  | Error e -> Alcotest.fail e);
  Dev.protect_range m.Machine.dev ~addr:0x1000 ~len:4096;
  Alcotest.(check bool) "read blocked" true (Result.is_error (Dma.read nic ~addr:0x1000 ~len:6));
  Alcotest.(check bool) "write blocked" true
    (Result.is_error (Dma.write nic ~addr:0x1000 ~data:"evil"));
  Alcotest.(check string) "memory untouched" "secret"
    (Flicker_hw.Memory.read m.Machine.memory ~addr:0x1000 ~len:6);
  let attempts = Dma.attempts nic in
  Alcotest.(check int) "attempts logged" 3 (List.length attempts);
  Alcotest.(check bool) "blocked flagged" true
    (List.exists (fun a -> a.Dma.blocked) attempts)

let test_cpu () =
  let cpus = Cpu.create ~cores:4 in
  Alcotest.(check bool) "bsp is core 0" true ((Cpu.bsp cpus).Cpu.id = 0);
  Alcotest.(check int) "three aps" 3 (List.length (Cpu.aps cpus));
  Alcotest.(check bool) "not parked initially" false (Cpu.all_aps_parked cpus);
  List.iter (fun (c : Cpu.core) -> c.Cpu.run_state <- Cpu.Wait_for_sipi) (Cpu.aps cpus);
  Alcotest.(check bool) "parked" true (Cpu.all_aps_parked cpus);
  let seg = { Cpu.base = 100; limit = 49 } in
  Alcotest.(check bool) "segment contains" true (Cpu.segment_contains seg ~addr:0 ~len:50);
  Alcotest.(check bool) "segment overflow" false (Cpu.segment_contains seg ~addr:0 ~len:51)

let test_apic () =
  let m = make_machine () in
  let ap = List.hd (Cpu.aps m.Machine.cpus) in
  Alcotest.(check bool) "ap running" true (ap.Cpu.run_state = Cpu.Running);
  (* INIT IPI to a busy AP must fail *)
  Alcotest.(check bool) "init to busy fails" true
    (match Apic.send_init_ipi m with exception Failure _ -> true | () -> false);
  Apic.deschedule_aps m;
  Alcotest.(check bool) "descheduled" true (ap.Cpu.run_state = Cpu.Descheduled);
  Apic.send_init_ipi m;
  Alcotest.(check bool) "parked" true (Cpu.all_aps_parked m.Machine.cpus);
  Apic.release_aps m;
  Alcotest.(check bool) "released" true (ap.Cpu.run_state = Cpu.Running)

(* Table 2 calibration: the timing model must reproduce the measured
   SKINIT latencies for each SLB size. *)
let test_timing_table2 () =
  let check_ms name expected ~slb_kb =
    Alcotest.(check (float 0.5)) name expected
      (Timing.skinit_ms timing ~slb_bytes:(slb_kb * 1024))
  in
  check_ms "0 KB" 0.9 ~slb_kb:0;
  check_ms "4 KB" 11.9 ~slb_kb:4;
  check_ms "16 KB" 45.0 ~slb_kb:16;
  check_ms "32 KB" 89.2 ~slb_kb:32;
  check_ms "64 KB" 177.5 ~slb_kb:64

let test_timing_calibration () =
  (* Table 1: hashing the 5.06 MB kernel takes ~22 ms *)
  Alcotest.(check (float 0.5)) "kernel hash" 22.0
    (Timing.sha1_ms timing ~bytes:(5_306_000));
  (* Figure 9a/9b CPU costs *)
  Alcotest.(check (float 0.01)) "keygen 1024" 185.7 (Timing.rsa_keygen_ms timing ~bits:1024);
  Alcotest.(check (float 0.01)) "decrypt 1024" 4.6 (Timing.rsa_private_ms timing ~bits:1024);
  (* scaling shape: 2048-bit keygen is ~8x slower *)
  Alcotest.(check (float 1.0)) "keygen 2048" (185.7 *. 8.0)
    (Timing.rsa_keygen_ms timing ~bits:2048);
  Alcotest.(check (float 0.01)) "getrandom 128B" 1.3 (Timing.get_random_ms timing ~bytes:128);
  Alcotest.(check (float 0.01)) "getrandom 129B" 2.6 (Timing.get_random_ms timing ~bytes:129);
  (* network: one-way ~ half the 9.45 ms RTT *)
  Alcotest.(check (float 0.2)) "network" 4.7 (Timing.network_ms timing ~bytes:64)

let test_timing_profiles () =
  Alcotest.(check bool) "infineon quote faster" true
    (Timing.infineon.Timing.quote_ms < Timing.broadcom.Timing.quote_ms);
  Alcotest.(check bool) "infineon unseal faster" true
    (Timing.infineon.Timing.unseal_ms < Timing.broadcom.Timing.unseal_ms);
  let t = Timing.with_tpm Timing.infineon timing in
  Alcotest.(check string) "with_tpm swaps" "Infineon v1.2" t.Timing.tpm.Timing.tpm_name

(* --- SKINIT semantics --- *)

let machine_with_tpm () =
  let m = make_machine () in
  let measured = ref None in
  let resets = ref 0 in
  Machine.set_tpm_hooks m
    {
      Machine.dynamic_pcr_reset = (fun () -> incr resets);
      measure_into_pcr17 =
        (fun ~len:_ ~source:_ ~read ->
          measured := Some (read ());
          "measurement");
    };
  (m, measured, resets)

let write_slb m ~addr ~len ~entry =
  Memory.write_u16_le m.Machine.memory addr len;
  Memory.write_u16_le m.Machine.memory (addr + 2) entry;
  Memory.write m.Machine.memory ~addr:(addr + 4) (String.make (len - 4) 'P')

let park m =
  Apic.deschedule_aps m;
  Apic.send_init_ipi m

let test_skinit_happy_path () =
  let m, measured, resets = machine_with_tpm () in
  write_slb m ~addr:0x10000 ~len:1000 ~entry:4;
  park m;
  let launch = Skinit.execute m ~slb_base:0x10000 in
  Alcotest.(check int) "length" 1000 launch.Skinit.slb_length;
  Alcotest.(check int) "entry" 0x10004 launch.Skinit.entry_point;
  Alcotest.(check int) "window" 65536 launch.Skinit.protected_len;
  Alcotest.(check int) "dynamic reset" 1 !resets;
  (match !measured with
  | Some contents -> Alcotest.(check int) "measured bytes" 1000 (String.length contents)
  | None -> Alcotest.fail "nothing measured");
  Alcotest.(check string) "launch carries the TPM's digest" "measurement"
    launch.Skinit.measurement;
  let bsp = Cpu.bsp m.Machine.cpus in
  Alcotest.(check bool) "interrupts off" false bsp.Cpu.interrupts_enabled;
  Alcotest.(check bool) "debug off" false bsp.Cpu.debug_enabled;
  Alcotest.(check bool) "paging off" false bsp.Cpu.paging_enabled;
  Alcotest.(check bool) "flat protected" true (bsp.Cpu.mode = Cpu.Flat_protected);
  (* DEV covers the whole window *)
  Alcotest.(check bool) "dev blocks window" false
    (Dev.allows m.Machine.dev ~addr:0x10000 ~len:65536);
  Skinit.teardown_dev m launch;
  Alcotest.(check bool) "dev dropped" true (Dev.allows m.Machine.dev ~addr:0x10000 ~len:65536)

let test_skinit_charges_time () =
  let m, _, _ = machine_with_tpm () in
  write_slb m ~addr:0x10000 ~len:(16 * 1024) ~entry:4;
  park m;
  let before = Clock.now m.Machine.clock in
  ignore (Skinit.execute m ~slb_base:0x10000);
  Alcotest.(check (float 0.5)) "16 KB SKINIT time" 45.0 (Clock.now m.Machine.clock -. before)

let test_skinit_preconditions () =
  (* busy APs *)
  let m, _, _ = machine_with_tpm () in
  write_slb m ~addr:0x10000 ~len:1000 ~entry:4;
  (match Skinit.execute m ~slb_base:0x10000 with
  | _ -> Alcotest.fail "should fail with busy APs"
  | exception Skinit.Skinit_error _ -> ());
  (* ring 3 caller *)
  let m2, _, _ = machine_with_tpm () in
  write_slb m2 ~addr:0x10000 ~len:1000 ~entry:4;
  park m2;
  (Cpu.bsp m2.Machine.cpus).Cpu.ring <- 3;
  (match Skinit.execute m2 ~slb_base:0x10000 with
  | _ -> Alcotest.fail "should fail from ring 3"
  | exception Skinit.Skinit_error _ -> ());
  (* no TPM *)
  let m3 = make_machine () in
  write_slb m3 ~addr:0x10000 ~len:1000 ~entry:4;
  park m3;
  (match Skinit.execute m3 ~slb_base:0x10000 with
  | _ -> Alcotest.fail "should fail without TPM"
  | exception Skinit.Skinit_error _ -> ());
  (* bad header: entry beyond length *)
  let m4, _, _ = machine_with_tpm () in
  write_slb m4 ~addr:0x10000 ~len:100 ~entry:200;
  park m4;
  (match Skinit.execute m4 ~slb_base:0x10000 with
  | _ -> Alcotest.fail "should fail with bad entry"
  | exception Skinit.Skinit_error _ -> ());
  (* unaligned base *)
  let m5, _, _ = machine_with_tpm () in
  park m5;
  (match Skinit.execute m5 ~slb_base:0x10001 with
  | _ -> Alcotest.fail "should fail unaligned"
  | exception Skinit.Skinit_error _ -> ());
  (* window past end of memory *)
  let m6, _, _ = machine_with_tpm () in
  park m6;
  match Skinit.execute m6 ~slb_base:(1024 * 1024 - 4096) with
  | _ -> Alcotest.fail "should fail out of range"
  | exception Skinit.Skinit_error _ -> ()

(* the launch line reads back as the line the launch made, rendered on
   read from the header's ints (and under TXT the ACM digest's prefix),
   at their widest too *)
let test_launch_line () =
  let launch_lines ?acm ~len ~entry () =
    let m, _, _ = machine_with_tpm () in
    write_slb m ~addr:0x10000 ~len ~entry;
    park m;
    ignore (Skinit.execute ?acm m ~slb_base:0x10000);
    List.filter_map
      (fun e ->
        let launched prefix = String.starts_with ~prefix e.Tracer.name in
        if launched "skinit: launched" || launched "senter: launched" then
          Some (e.Tracer.name, e.Tracer.args)
        else None)
      (Tracer.events m.Machine.tracer)
  in
  let check label expected got =
    Alcotest.(check bool) label true (got = [ (expected, []) ])
  in
  check "svm" "skinit: launched SLB at 0x10000 (len=1000, entry=+0x4)"
    (launch_lines ~len:1000 ~entry:4 ());
  check "svm, widest header" "skinit: launched SLB at 0x10000 (len=65535, entry=+0xfffe)"
    (launch_lines ~len:0xffff ~entry:0xfffe ());
  (* the stub TPM's digest is the string "measurement" *)
  check "txt" "senter: launched MLE at 0x10000 (len=1000) under ACM 6d6561737572"
    (launch_lines ~acm:"sinit" ~len:1000 ~entry:4 ());
  check "txt, widest header" "senter: launched MLE at 0x10000 (len=65535) under ACM 6d6561737572"
    (launch_lines ~acm:"sinit" ~len:0xffff ~entry:0xfffe ())

let test_machine_events () =
  let m = make_machine () in
  Machine.log_event m "first";
  Clock.advance m.Machine.clock 10.0;
  Machine.log_event m "second";
  let instants_since since =
    List.filter
      (fun e -> e.Tracer.kind = Tracer.Instant && e.Tracer.ts >= since)
      (Tracer.events m.Machine.tracer)
  in
  Alcotest.(check int) "two events" 2 (List.length (instants_since 0.0));
  let late = instants_since 5.0 in
  Alcotest.(check int) "one late event" 1 (List.length late);
  Alcotest.(check string) "ordering" "second" (List.hd late).Tracer.name

(* property: the DEV blocks an access iff the access overlaps a
   protected page *)
let prop_dev_soundness =
  QCheck.Test.make ~name:"DEV allows iff no protected page overlaps" ~count:200
    QCheck.(
      triple (int_range 0 (16 * 4096 - 1)) (int_range 1 8192)
        (pair (int_range 0 15) (int_range 1 4)))
    (fun (addr, len, (first_page, page_count)) ->
      let dev = Dev.create ~pages:16 in
      Dev.protect_range dev ~addr:(first_page * 4096)
        ~len:(min page_count (16 - first_page) * 4096);
      let len = min len ((16 * 4096) - addr) in
      let lo = addr / 4096 and hi = (addr + len - 1) / 4096 in
      let overlaps =
        List.exists
          (fun p -> p >= lo && p <= hi)
          (Dev.protected_pages dev)
      in
      Dev.allows dev ~addr ~len = not overlaps)

let prop_memory_rw =
  QCheck.Test.make ~name:"memory read-after-write" ~count:200
    QCheck.(pair (int_range 0 4000) (string_of_size Gen.(int_range 0 96)))
    (fun (addr, data) ->
      let m = Memory.create ~size:8192 in
      Memory.write m ~addr data;
      Memory.read m ~addr ~len:(String.length data) = data)

(* property: pages of three kinds behave as one flat byte array. Random
   operations on a four-page memory, with ranges that straddle pages,
   are replayed on a [Bytes] model and every result is compared. Writes
   come from a small pool of strings (two with equal bytes, so equal
   bytes from another string are seen), at aligned addresses that make
   their whole pages slices and at any other; random bytes, single bytes
   and u16s are written in place; [zero] and a power cycle wipe. The
   model also keeps, per page, the string and offset it was last written
   from whole, which gives the [source] contract: a range is reported
   sliced from [(s, o)] exactly when each of its pages still holds the
   next bytes of [s], and then it reads [String.sub s o len]. *)
type mem_op =
  | Write of int * string
  | Write_pool of int * int  (* which pool string, addr *)
  | Write_byte of int * int
  | Write_u16 of int * int
  | Zero of int * int
  | Power_cycle
  | Read of int * int
  | Read_byte of int
  | Read_u16 of int
  | Find of string
  | Equal_range of int * int * int option  (* addr, len, the byte to flip *)
  | Source of int * int

let model_pages = 4
let model_size = model_pages * Memory.page_size

(* the pool's third string is a copy of its first: equal bytes in
   another string *)
let pool =
  let page c = String.init Memory.page_size (fun i -> if i mod 7 = 0 then c else 'a') in
  let two = page 'x' ^ page 'y' in
  [|
    two; page 'p' ^ page 'q' ^ page 'r'; String.init (String.length two) (String.get two);
    page 'z' ^ String.make 100 'b';
  |]

let show_op = function
  | Write (a, s) -> Printf.sprintf "write %d %S" a s
  | Write_pool (k, a) -> Printf.sprintf "write pool.(%d) at %d" k a
  | Write_byte (a, v) -> Printf.sprintf "write_byte %d %d" a v
  | Write_u16 (a, v) -> Printf.sprintf "write_u16 %d %d" a v
  | Zero (a, n) -> Printf.sprintf "zero %d %d" a n
  | Power_cycle -> "power_cycle"
  | Read (a, n) -> Printf.sprintf "read %d %d" a n
  | Read_byte a -> Printf.sprintf "read_byte %d" a
  | Read_u16 a -> Printf.sprintf "read_u16 %d" a
  | Find p -> Printf.sprintf "find %S" p
  | Equal_range (a, n, flip) ->
      Printf.sprintf "equal_range %d %d%s" a n
        (match flip with Some i -> Printf.sprintf " flip %d" i | None -> "")
  | Source (a, n) -> Printf.sprintf "source %d %d" a n

let gen_mem_op =
  let open QCheck.Gen in
  (* an address [span] bytes can start at, often just before a page end *)
  let addr span =
    let top = model_size - span in
    oneof
      [
        int_range 0 top;
        map (fun (p, d) -> max 0 (min top ((p * Memory.page_size) + d)))
          (pair (int_range 1 (model_pages - 1)) (int_range (-8) 8));
      ]
  in
  let aligned span =
    map (fun p -> p * Memory.page_size) (int_range 0 ((model_size - span) / Memory.page_size))
  in
  let range = int_range 0 6000 >>= fun n -> map (fun a -> (a, n)) (addr n) in
  let bytes n = string_size ~gen:(oneofl [ '\000'; 'a'; 'b'; 'x' ]) (return n) in
  let pooled =
    int_range 0 (Array.length pool - 1) >>= fun k ->
    let n = String.length pool.(k) in
    map (fun a -> Write_pool (k, a)) (frequency [ (3, aligned n); (1, addr n) ])
  in
  frequency
    [
      (2, range >>= fun (a, n) -> map (fun s -> Write (a, s)) (bytes n));
      (3, pooled);
      (2, map2 (fun a v -> Write_byte (a, v)) (addr 1) (int_range 0 0x1ff));
      (1, map2 (fun a v -> Write_u16 (a, v)) (addr 2) (int_range 0 0x1ffff));
      (2, map (fun (a, n) -> Zero (a, n)) range);
      (1, return Power_cycle);
      (2, map (fun (a, n) -> Read (a, n)) range);
      (1, map (fun a -> Read_byte a) (addr 1));
      (1, map (fun a -> Read_u16 a) (addr 2));
      (1, int_range 1 6 >>= fun n -> map (fun p -> Find p) (bytes n));
      ( 2,
        range >>= fun (a, n) ->
        map (fun flip -> Equal_range (a, n, flip))
          (if n = 0 then return None else opt (int_range 0 (n - 1))) );
      (3, map (fun (a, n) -> Source (a, n)) range);
      (2, map (fun p -> Source (p * Memory.page_size, Memory.page_size * (1 + (p mod 2))))
           (int_range 0 (model_pages - 2)));
    ]

let prop_memory_matches_flat_model =
  QCheck.Test.make ~name:"sparse memory matches a flat model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_mem_op))
    (fun ops ->
      let machine = Machine.create ~memory_size:model_size ~trace_capacity:64 timing in
      let m = machine.Machine.memory in
      let flat = Bytes.make model_size '\000' in
      (* per page: the string and offset it was last written from whole *)
      let sliced = Array.make model_pages None in
      let forget a n =
        if n > 0 then
          for p = a / Memory.page_size to (a + n - 1) / Memory.page_size do
            sliced.(p) <- None
          done
      in
      let write a s =
        let n = String.length s in
        Memory.write m ~addr:a s;
        Bytes.blit_string s 0 flat a n;
        forget a n;
        for p = 0 to model_pages - 1 do
          let o = (p * Memory.page_size) - a in
          if o >= 0 && o + Memory.page_size <= n then sliced.(p) <- Some (s, o)
        done
      in
      let expected_source a n =
        if n = 0 then None
        else
          let first = a / Memory.page_size and last = (a + n - 1) / Memory.page_size in
          match sliced.(first) with
          | None -> None
          | Some (s, o) ->
              let shift = o - (first * Memory.page_size) in
              let rec continues p =
                p > last
                || (match sliced.(p) with
                   | Some (s', o') -> s' == s && o' - (p * Memory.page_size) = shift
                   | None -> false)
                   && continues (p + 1)
              in
              if continues (first + 1) then Some (s, a + shift) else None
      in
      let flat_find p =
        let n = String.length p in
        let rec go i =
          if n = 0 || i + n > model_size then None
          else if Bytes.sub_string flat i n = p then Some i
          else go (i + 1)
        in
        go 0
      in
      let flat_byte a = Char.code (Bytes.get flat a) in
      List.for_all
        (function
          | Write (a, s) ->
              write a s;
              true
          | Write_pool (k, a) ->
              write a pool.(k);
              true
          | Write_byte (a, v) ->
              Memory.write_byte m a v;
              Bytes.set flat a (Char.chr (v land 0xff));
              forget a 1;
              true
          | Write_u16 (a, v) ->
              Memory.write_u16_le m a v;
              Bytes.set flat a (Char.chr (v land 0xff));
              Bytes.set flat (a + 1) (Char.chr ((v lsr 8) land 0xff));
              forget a 2;
              true
          | Zero (a, n) ->
              Memory.zero m ~addr:a ~len:n;
              Bytes.fill flat a n '\000';
              forget a n;
              true
          | Power_cycle ->
              Machine.power_cycle machine;
              Bytes.fill flat 0 model_size '\000';
              forget 0 model_size;
              true
          | Read (a, n) -> Memory.read m ~addr:a ~len:n = Bytes.sub_string flat a n
          | Read_byte a -> Memory.read_byte m a = flat_byte a
          | Read_u16 a -> Memory.read_u16_le m a = flat_byte a lor (flat_byte (a + 1) lsl 8)
          | Find p -> Memory.find_pattern m p = flat_find p
          | Equal_range (a, n, flip) ->
              let actual = Bytes.sub flat a n in
              Option.iter
                (fun i -> Bytes.set actual i (Char.chr (Char.code (Bytes.get actual i) lxor 1)))
                flip;
              Memory.equal_range m ~addr:a (Bytes.to_string actual) = (flip = None)
          | Source (a, n) -> (
              let range = Bytes.sub_string flat a n in
              match (Memory.source m ~addr:a ~len:n, expected_source a n) with
              | None, None -> true
              | Some (s, o), Some (s', o') -> s == s' && o = o' && String.sub s o n = range
              | Some _, None | None, Some _ -> false))
        ops)

(* The in-place compare equals [String.equal] over a copy of the range.
   A four-page memory gets up to four random writes, so some pages are
   never written, and the range may cross page boundaries. The candidate
   is the range's own bytes, the same with its last byte or one random
   byte changed, or random bytes. *)
let prop_equal_range =
  let size = 4 * Memory.page_size in
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 4) (pair (int_range 0 (size - 1)) (string_size (int_range 1 600)))
      >>= fun writes ->
      int_range 0 size >>= fun addr ->
      int_range 0 (min 6000 (size - addr)) >>= fun len ->
      oneofl [ `Same; `Last; `One; `Random ] >>= fun kind ->
      int_range 0 (max 0 (len - 1)) >>= fun pos ->
      string_size (return len) >|= fun random -> (writes, addr, len, kind, pos, random))
  in
  QCheck.Test.make ~name:"equal_range = equal of a copy" ~count:300
    (QCheck.make gen ~print:(fun (writes, addr, len, _, pos, _) ->
         Printf.sprintf "writes=[%s] addr=%d len=%d pos=%d"
           (String.concat "; "
              (List.map (fun (a, s) -> Printf.sprintf "%d+%d" a (String.length s)) writes))
           addr len pos))
    (fun (writes, addr, len, kind, pos, random) ->
      let m = Memory.create ~size in
      List.iter
        (fun (a, s) -> Memory.write m ~addr:a (String.sub s 0 (min (String.length s) (size - a))))
        writes;
      let actual = Memory.read m ~addr ~len in
      let flip i = String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) actual in
      let candidate =
        match kind with
        | `Same -> actual
        | `Last -> flip (len - 1)
        | `One -> flip pos
        | `Random -> random
      in
      Memory.equal_range m ~addr candidate = String.equal actual candidate)

let () =
  Alcotest.run "hw"
    [
      ( "clock+memory",
        [
          Alcotest.test_case "clock" `Quick test_clock;
          Alcotest.test_case "memory rw" `Quick test_memory_rw;
          Alcotest.test_case "memory bounds" `Quick test_memory_bounds;
          Alcotest.test_case "pages" `Quick test_memory_pages;
          Alcotest.test_case "find pattern" `Quick test_find_pattern;
        ] );
      ( "dev+dma",
        [
          Alcotest.test_case "dev bitmap" `Quick test_dev;
          Alcotest.test_case "dma vs dev" `Quick test_dma_blocked_by_dev;
        ] );
      ( "cpu+apic",
        [
          Alcotest.test_case "cpu" `Quick test_cpu;
          Alcotest.test_case "apic" `Quick test_apic;
        ] );
      ( "timing",
        [
          Alcotest.test_case "table 2 calibration" `Quick test_timing_table2;
          Alcotest.test_case "cpu calibration" `Quick test_timing_calibration;
          Alcotest.test_case "profiles" `Quick test_timing_profiles;
        ] );
      ( "skinit",
        [
          Alcotest.test_case "happy path" `Quick test_skinit_happy_path;
          Alcotest.test_case "charges time" `Quick test_skinit_charges_time;
          Alcotest.test_case "preconditions" `Quick test_skinit_preconditions;
          Alcotest.test_case "launch line" `Quick test_launch_line;
          Alcotest.test_case "event log" `Quick test_machine_events;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_dev_soundness;
            prop_memory_rw;
            prop_memory_matches_flat_model;
            prop_equal_range;
          ] );
    ]
