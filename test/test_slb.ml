open Flicker_crypto
open Flicker_slb

(* --- layout --- *)

let test_layout_constants () =
  Alcotest.(check int) "slb window" 65536 Layout.slb_size;
  Alcotest.(check int) "pal end" 61440 Layout.pal_region_end;
  Alcotest.(check int) "inputs page" 65536 Layout.inputs_page_offset;
  Alcotest.(check int) "outputs page" (65536 + 4096) Layout.outputs_page_offset;
  Alcotest.(check int) "footprint" (65536 + 8192) Layout.total_footprint;
  Alcotest.(check int) "pal capacity" (61440 - 4 - 320)
    (Slb_image.capacity Slb_image.Standard);
  Alcotest.(check int) "optimized pal capacity" (61440 - 4736 - 2)
    (Slb_image.capacity Slb_image.Optimized);
  (* the linker accepts exactly the capacity and not one byte more *)
  List.iter
    (fun flavor ->
      let cap = Slb_image.capacity flavor in
      Alcotest.(check bool) "capacity links" true
        (Result.is_ok (Slb_image.link flavor (String.make cap 'x')));
      Alcotest.(check bool) "one byte over fails" true
        (Result.is_error (Slb_image.link flavor (String.make (cap + 1) 'x'))))
    [ Slb_image.Standard; Slb_image.Optimized ]

(* --- slb core --- *)

let test_slb_core_code () =
  Alcotest.(check int) "core size" Slb_core.core_size (String.length Slb_core.code);
  Alcotest.(check int) "stub size" (Slb_core.stub_size - 4) (String.length Slb_core.stub_code);
  Alcotest.(check int) "stub is 4736 with header" 4736 Slb_core.stub_size;
  (* patch fields start blank *)
  Alcotest.(check string) "blank gdt field" "\000\000\000\000"
    (String.sub Slb_core.code (Slb_core.gdt_patch_offset - 4) 4)

let test_slb_core_patch () =
  let image = Bytes.make 1024 '\000' in
  Slb_core.patch image ~slb_base:0x200000;
  Alcotest.(check int) "gdt patched" 0x200000
    (Util.int_of_be32 (Bytes.to_string image) Slb_core.gdt_patch_offset);
  Alcotest.(check int) "tss patched" 0x200000
    (Util.int_of_be32 (Bytes.to_string image) Slb_core.tss_patch_offset)

(* --- module catalog (Figure 6) --- *)

let test_catalog_figure6 () =
  let find k = Pal.info k in
  Alcotest.(check int) "os protection loc" 5 (find Pal.Os_protection).Pal.loc;
  Alcotest.(check int) "tpm driver loc" 216 (find Pal.Tpm_driver).Pal.loc;
  Alcotest.(check int) "tpm utils loc" 889 (find Pal.Tpm_utilities).Pal.loc;
  Alcotest.(check int) "crypto loc" 2262 (find Pal.Crypto).Pal.loc;
  Alcotest.(check int) "memory loc" 657 (find Pal.Memory_management).Pal.loc;
  Alcotest.(check int) "secure channel loc" 292 (find Pal.Secure_channel).Pal.loc;
  Alcotest.(check int) "catalog size" 6 (List.length Pal.catalog);
  (* module code is deterministic and the declared size *)
  List.iter
    (fun info ->
      let code = Pal.module_code info.Pal.kind in
      Alcotest.(check int) "code size" info.Pal.size_bytes (String.length code);
      Alcotest.(check string) "deterministic" code (Pal.module_code info.Pal.kind))
    Pal.catalog

let test_pal_define_and_registry () =
  let pal = Pal.define ~name:"registry-test" ~modules:[ Pal.Tpm_driver ] (fun _ -> ()) in
  (* the linked code is stored once: module code, then the app code *)
  Alcotest.(check int) "linked size" (845 + 512) (String.length pal.Pal.code);
  Alcotest.(check string) "module code first" (Pal.module_code Pal.Tpm_driver)
    (String.sub pal.Pal.code 0 845);
  Alcotest.(check string) "same code for the same definition" pal.Pal.code
    (Pal.define ~name:"registry-test" ~modules:[ Pal.Tpm_driver ] (fun _ -> ())).Pal.code;
  Alcotest.(check bool) "wants driver" true (Pal.wants pal Pal.Tpm_driver);
  Alcotest.(check bool) "no crypto" false (Pal.wants pal Pal.Crypto);
  (* TCB accounting: SLB core + TPM driver *)
  Alcotest.(check int) "tcb loc" (94 + 216) (Pal.total_loc pal)

let test_pal_modules_sorted_dedup () =
  let pal =
    Pal.define ~name:"sorted-test"
      ~modules:[ Pal.Crypto; Pal.Tpm_driver; Pal.Crypto ]
      (fun _ -> ())
  in
  Alcotest.(check int) "deduped" 2 (List.length pal.Pal.modules);
  Alcotest.(check bool) "driver before crypto" true
    (pal.Pal.modules = [ Pal.Tpm_driver; Pal.Crypto ])

let test_pal_too_large () =
  Alcotest.(check bool) "oversized rejected" true
    (match Pal.define ~name:"huge" ~app_code_size:(62 * 1024) (fun _ -> ()) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- builder --- *)

(* a window loaded at [slb_base] of a fresh memory, as the session reads
   it back after the launch *)
let slb_base = 0x10000

let loaded window =
  let m = Flicker_hw.Memory.create ~size:(4 * Layout.slb_size) in
  Flicker_hw.Memory.write m ~addr:slb_base window;
  m

let holds_loaded ~flavor window code =
  Builder.holds_pal_code ~flavor (loaded window) ~slb_base code

let test_builder_standard () =
  let pal = Pal.define ~name:"builder-std" ~app_code_size:1000 (fun _ -> ()) in
  let image = Builder.build ~flavor:Builder.Standard pal in
  Alcotest.(check int) "window size" Layout.slb_size (String.length image.Builder.bytes);
  Alcotest.(check int) "measured length" (4 + 320 + 1000) image.Builder.measured_length;
  (* header encodes length and entry *)
  let b = image.Builder.bytes in
  Alcotest.(check int) "header length" image.Builder.measured_length
    (Char.code b.[0] lor (Char.code b.[1] lsl 8));
  Alcotest.(check int) "header entry" 4 (Char.code b.[2] lor (Char.code b.[3] lsl 8));
  (* the loaded window holds the PAL code *)
  Alcotest.(check bool) "holds pal code" true
    (holds_loaded ~flavor:Builder.Standard image.Builder.bytes pal.Pal.code)

let test_builder_optimized () =
  let pal = Pal.define ~name:"builder-opt" ~app_code_size:1000 (fun _ -> ()) in
  let image = Builder.build ~flavor:Builder.Optimized pal in
  Alcotest.(check int) "measured = stub" 4736 image.Builder.measured_length;
  Alcotest.(check bool) "holds pal code" true
    (holds_loaded ~flavor:Builder.Optimized image.Builder.bytes pal.Pal.code);
  let std, opt = Builder.slb_sizes pal in
  Alcotest.(check int) "standard size" (4 + 320 + 1000) std;
  Alcotest.(check int) "optimized size" 4736 opt;
  (* the PAL holds its images: every build hands out the same string *)
  Alcotest.(check bool) "held image" true
    ((Builder.build ~flavor:Builder.Optimized pal).Builder.bytes == image.Builder.bytes);
  (* code that fits the standard PAL region but not the one behind the
     stub: the PAL is defined, and only its optimized build fails *)
  let big = Pal.define ~name:"builder-big" ~app_code_size:58_000 (fun _ -> ()) in
  Alcotest.(check int) "standard still builds" (4 + 320 + 58_000)
    (Builder.build ~flavor:Builder.Standard big).Builder.measured_length;
  Alcotest.check_raises "optimized too large"
    (Invalid_argument "Builder.build: PAL too large for the optimized SLB") (fun () ->
      ignore (Builder.build ~flavor:Builder.Optimized big))

let test_builder_initialize () =
  let pal = Pal.define ~name:"builder-init" (fun _ -> ()) in
  let image = Builder.build pal in
  let a = Builder.initialize image ~slb_base:0x200000 in
  let b = Builder.initialize image ~slb_base:0x300000 in
  Alcotest.(check bool) "patch differs by base" true (a <> b);
  Alcotest.(check string) "deterministic per base" a
    (Builder.initialize image ~slb_base:0x200000);
  Alcotest.(check int) "gdt base patched" 0x200000 (Util.int_of_be32 a Slb_core.gdt_patch_offset)

let test_builder_window_errors () =
  let pal = Pal.define ~name:"builder-errors" (fun _ -> ()) in
  let small = Flicker_hw.Memory.create ~size:Layout.slb_size in
  Alcotest.(check bool) "window past the end of memory" false
    (Builder.holds_pal_code ~flavor:Builder.Optimized small ~slb_base:4096 pal.Pal.code);
  let junk = String.make Layout.slb_size '\xff' in
  Alcotest.(check bool) "corrupt header" false
    (holds_loaded ~flavor:Builder.Standard junk pal.Pal.code);
  Alcotest.(check bool) "corrupt inner header" false
    (holds_loaded ~flavor:Builder.Optimized junk pal.Pal.code);
  (* a well-formed window of another PAL's code, of the same length: the
     header names a region of the right size, and its bytes differ *)
  let other = Pal.define ~name:"builder-other" (fun _ -> ()) in
  List.iter
    (fun flavor ->
      let window = (Builder.build ~flavor other).Builder.bytes in
      Alcotest.(check bool) "same length" true
        (String.length other.Pal.code = String.length pal.Pal.code);
      Alcotest.(check bool) "wrong code" false (holds_loaded ~flavor window pal.Pal.code);
      Alcotest.(check bool) "its own code" true (holds_loaded ~flavor window other.Pal.code);
      let code = other.Pal.code in
      Alcotest.(check bool) "a prefix of its code" false
        (holds_loaded ~flavor window (String.sub code 0 (String.length code - 1))))
    [ Builder.Standard; Builder.Optimized ]

(* --- allocator --- *)

let test_allocator_basic () =
  let h = Mod_memory.create ~size:1024 in
  let a = Option.get (Mod_memory.malloc h 100) in
  let b = Option.get (Mod_memory.malloc h 200) in
  Alcotest.(check bool) "distinct blocks" true (a <> b);
  Alcotest.(check int) "allocated" 300 (Mod_memory.allocated_bytes h);
  Mod_memory.write h ~off:a "hello";
  Alcotest.(check string) "rw" "hello" (Mod_memory.read h ~off:a ~len:5);
  Mod_memory.free h a;
  Alcotest.(check int) "after free" 200 (Mod_memory.allocated_bytes h);
  Alcotest.(check (option int)) "block size" (Some 200) (Mod_memory.block_size h b)

let test_allocator_exhaustion_and_coalesce () =
  let h = Mod_memory.create ~size:256 in
  let a = Option.get (Mod_memory.malloc h 128) in
  let b = Option.get (Mod_memory.malloc h 128) in
  Alcotest.(check (option int)) "exhausted" None (Mod_memory.malloc h 1);
  Mod_memory.free h a;
  Mod_memory.free h b;
  (* coalescing makes the full heap available again *)
  Alcotest.(check bool) "coalesced" true (Mod_memory.malloc h 256 <> None)

let test_allocator_errors () =
  let h = Mod_memory.create ~size:128 in
  let a = Option.get (Mod_memory.malloc h 32) in
  Mod_memory.free h a;
  Alcotest.(check bool) "double free" true
    (match Mod_memory.free h a with exception Invalid_argument _ -> true | () -> false);
  Alcotest.(check bool) "wild free" true
    (match Mod_memory.free h 999 with exception Invalid_argument _ -> true | () -> false);
  let b = Option.get (Mod_memory.malloc h 16) in
  Alcotest.(check bool) "oob read" true
    (match Mod_memory.read h ~off:b ~len:17 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_allocator_free_wipes () =
  let h = Mod_memory.create ~size:128 in
  let a = Option.get (Mod_memory.malloc h 16) in
  Mod_memory.write h ~off:a "secret deleted!!";
  Mod_memory.free h a;
  let b = Option.get (Mod_memory.malloc h 16) in
  Alcotest.(check string) "freed memory wiped" (String.make 16 '\000')
    (Mod_memory.read h ~off:b ~len:16)

let test_allocator_realloc () =
  let h = Mod_memory.create ~size:512 in
  let a = Option.get (Mod_memory.malloc h 16) in
  Mod_memory.write h ~off:a "0123456789abcdef";
  let b = Option.get (Mod_memory.realloc h a 64) in
  Alcotest.(check string) "prefix preserved" "0123456789abcdef"
    (Mod_memory.read h ~off:b ~len:16);
  Alcotest.(check (option int)) "new size" (Some 64) (Mod_memory.block_size h b);
  (* shrink keeps the block in place *)
  let c = Option.get (Mod_memory.realloc h b 32) in
  Alcotest.(check int) "shrink in place" b c

let prop_allocator_no_overlap =
  QCheck.Test.make ~name:"live blocks never overlap" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 30) (int_range 1 64))
    (fun sizes ->
      let h = Mod_memory.create ~size:4096 in
      let blocks =
        List.filter_map (fun n -> Option.map (fun off -> (off, n)) (Mod_memory.malloc h n)) sizes
      in
      (* no two blocks overlap *)
      let rec check = function
        | [] -> true
        | (off, n) :: rest ->
            List.for_all (fun (off', n') -> off + n <= off' || off' + n' <= off) rest
            && check rest
      in
      check blocks)

let prop_allocator_free_then_reuse =
  QCheck.Test.make ~name:"free makes space reusable" ~count:50
    QCheck.(int_range 1 512)
    (fun n ->
      let h = Mod_memory.create ~size:512 in
      match Mod_memory.malloc h n with
      | None -> false
      | Some off ->
          Mod_memory.free h off;
          Mod_memory.malloc h n <> None)

(* --- OS protection --- *)

let test_os_protection_check () =
  let policy = Mod_os_protection.policy_for_launch ~slb_base:0x200000 ~footprint:0x12000 in
  Mod_os_protection.check policy ~addr:0x200000 ~len:0x12000;
  Mod_os_protection.check policy ~addr:0x211fff ~len:1;
  Alcotest.(check bool) "below" true
    (match Mod_os_protection.check policy ~addr:0x1fffff ~len:1 with
    | exception Mod_os_protection.Pal_fault _ -> true
    | () -> false);
  Alcotest.(check bool) "above" true
    (match Mod_os_protection.check policy ~addr:0x212000 ~len:1 with
    | exception Mod_os_protection.Pal_fault _ -> true
    | () -> false);
  Alcotest.(check bool) "straddle" true
    (match Mod_os_protection.check policy ~addr:0x211fff ~len:2 with
    | exception Mod_os_protection.Pal_fault _ -> true
    | () -> false)

let test_os_protection_rings () =
  let m = Flicker_hw.Machine.create ~memory_size:(1024 * 1024) Flicker_hw.Timing.default in
  let policy = Mod_os_protection.policy_for_launch ~slb_base:0x10000 ~footprint:0x12000 in
  let bsp = Flicker_hw.Cpu.bsp m.Flicker_hw.Machine.cpus in
  Mod_os_protection.enter_ring3 m policy;
  Alcotest.(check int) "ring 3" 3 bsp.Flicker_hw.Cpu.ring;
  Alcotest.(check int) "segment base" 0x10000 bsp.Flicker_hw.Cpu.cs.Flicker_hw.Cpu.base;
  Mod_os_protection.exit_ring3 m;
  Alcotest.(check int) "ring 0" 0 bsp.Flicker_hw.Cpu.ring

(* --- TPM driver discipline --- *)

let test_tpm_driver_claim () =
  let machine = Flicker_hw.Machine.create ~memory_size:(1024 * 1024) Flicker_hw.Timing.default in
  let tpm = Flicker_tpm.Tpm.create machine (Prng.create ~seed:"drv") ~key_bits:512 in
  let drv = Mod_tpm_driver.attach tpm in
  let pcr_read () = Mod_tpm_driver.submit drv (Flicker_tpm.Tpm_wire.Pcr_read 17) in
  Alcotest.(check bool) "unclaimed access fails" true (Result.is_error (pcr_read ()));
  Alcotest.(check bool) "claim" true (Result.is_ok (Mod_tpm_driver.claim drv));
  Alcotest.(check bool) "double claim fails" true (Result.is_error (Mod_tpm_driver.claim drv));
  Alcotest.(check bool) "claimed access works" true (Result.is_ok (pcr_read ()));
  Mod_tpm_driver.release drv;
  Alcotest.(check bool) "released" false (Mod_tpm_driver.is_claimed drv)

(* --- TCB accounting --- *)

let test_tcb () =
  let rows = Tcb.figure6 () in
  Alcotest.(check int) "seven rows" 7 (List.length rows);
  let loc, bytes = Tcb.totals rows in
  Alcotest.(check int) "figure 6 total loc" (94 + 5 + 216 + 889 + 2262 + 657 + 292) loc;
  Alcotest.(check bool) "bytes positive" true (bytes > 50_000);
  let pal = Pal.define ~name:"tcb-test" ~modules:[ Pal.Tpm_driver ] (fun _ -> ()) in
  let pal_rows = Tcb.pal_tcb pal in
  Alcotest.(check int) "core + one module" 2 (List.length pal_rows);
  (* headline claim: mandatory TCB in the low hundreds of lines *)
  let flicker_loc = List.assoc "Flicker (SLB Core + OS Protection + TPM driver)" Tcb.comparison in
  Alcotest.(check bool) "about 250 lines" true (flicker_loc > 200 && flicker_loc < 400);
  Alcotest.(check bool) "vastly smaller than Xen" true
    (flicker_loc * 100 < List.assoc "Xen hypervisor (SKINIT-launched VMM)" Tcb.comparison)

let () =
  Alcotest.run "slb"
    [
      ( "layout+core",
        [
          Alcotest.test_case "layout constants" `Quick test_layout_constants;
          Alcotest.test_case "core code" `Quick test_slb_core_code;
          Alcotest.test_case "patching" `Quick test_slb_core_patch;
        ] );
      ( "pal",
        [
          Alcotest.test_case "figure 6 catalog" `Quick test_catalog_figure6;
          Alcotest.test_case "define + registry" `Quick test_pal_define_and_registry;
          Alcotest.test_case "modules sorted" `Quick test_pal_modules_sorted_dedup;
          Alcotest.test_case "too large" `Quick test_pal_too_large;
        ] );
      ( "builder",
        [
          Alcotest.test_case "standard image" `Quick test_builder_standard;
          Alcotest.test_case "optimized image" `Quick test_builder_optimized;
          Alcotest.test_case "initialize/patch" `Quick test_builder_initialize;
          Alcotest.test_case "window errors" `Quick test_builder_window_errors;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "basic" `Quick test_allocator_basic;
          Alcotest.test_case "exhaustion + coalesce" `Quick test_allocator_exhaustion_and_coalesce;
          Alcotest.test_case "errors" `Quick test_allocator_errors;
          Alcotest.test_case "free wipes" `Quick test_allocator_free_wipes;
          Alcotest.test_case "realloc" `Quick test_allocator_realloc;
        ] );
      ( "protection",
        [
          Alcotest.test_case "segment check" `Quick test_os_protection_check;
          Alcotest.test_case "ring transitions" `Quick test_os_protection_rings;
          Alcotest.test_case "tpm driver claim" `Quick test_tpm_driver_claim;
        ] );
      ("tcb", [ Alcotest.test_case "accounting" `Quick test_tcb ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_allocator_no_overlap; prop_allocator_free_then_reuse ] );
    ]
