module Event = Flicker_verify.Event

exception Skinit_error of string

type launch = {
  slb_base : int;
  slb_length : int;
  entry_point : int;
  measurement : string;
  protected_base : int;
  protected_len : int;
}

(* the architectural SLB protection window *)
let slb_window = 64 * 1024

let fail fmt = Printf.ksprintf (fun s -> raise (Skinit_error s)) fmt

let default_acm () =
  (* deterministic stand-in for the ~20 KB vendor SINIT module, built
     on each call: only TXT launches read it *)
  let buf = Buffer.create 20480 in
  Buffer.add_string buf "\x7fSINIT-ACM-v1\x00";
  let c = ref 0 in
  while Buffer.length buf < 20480 do
    Buffer.add_string buf (Flicker_crypto.Sha256.digest (Printf.sprintf "sinit:%d" !c));
    incr c
  done;
  Buffer.contents buf

(* The launch lines, formatted only when the trace is read. SVM: [code]
   packs the SLB header's 16-bit length and entry offset, [n] is the
   SLB's base. TXT: [code] packs the base and the 16-bit length, [n] is
   the first 6 bytes of the ACM's digest. *)
let skinit_line _ code slb_base _ =
  ( Printf.sprintf "skinit: launched SLB at %#x (len=%d, entry=+%#x)" slb_base (code lsr 16)
      (code land 0xffff),
    [] )

let senter_line _ code acm_prefix _ =
  ( Printf.sprintf "senter: launched MLE at %#x (len=%d) under ACM %012x" (code lsr 16)
      (code land 0xffff) acm_prefix,
    [] )

let prefix48 digest =
  let rec go acc i = if i = 6 then acc else go ((acc lsl 8) lor Char.code digest.[i]) (i + 1) in
  go 0 0

let execute ?acm (m : Machine.t) ~slb_base =
  let insn = match acm with None -> "SKINIT" | Some _ -> "GETSEC[SENTER]" in
  let bsp = Cpu.bsp m.cpus in
  if bsp.ring <> 0 then fail "%s is privileged: caller in ring %d" insn bsp.ring;
  if not (Cpu.all_aps_parked m.cpus) then
    fail "%s on multi-core requires all APs parked via INIT IPI" insn;
  (match acm with Some "" -> fail "no SINIT ACM provided" | _ -> ());
  let hooks =
    match m.tpm_hooks with
    | Some h -> h
    | None -> fail "no TPM attached to the platform"
  in
  if slb_base < 0 || slb_base + slb_window > Memory.size m.memory then
    fail "SLB window [%#x, %#x) outside physical memory" slb_base (slb_base + slb_window);
  if slb_base mod Memory.page_size <> 0 then fail "SLB base must be page-aligned";
  let slb_length = Memory.read_u16_le m.memory slb_base in
  let entry_offset = Memory.read_u16_le m.memory (slb_base + 2) in
  if slb_length < 4 then fail "SLB header: length %d too small" slb_length;
  if entry_offset >= slb_length then
    fail "SLB header: entry point %#x beyond length %#x" entry_offset slb_length;
  (* Hardware protections, in architectural order: DMA exclusion first so
     no device can race the measurement (TXT: NoDMA / protected memory
     ranges), then interrupts and debug. All validation is done, so from
     here the launch always completes. *)
  Machine.protocol_event m
    (Event.Skinit_begin (match acm with None -> Event.Svm | Some _ -> Event.Txt));
  Dev.protect_range m.dev ~addr:slb_base ~len:slb_window;
  bsp.interrupts_enabled <- false;
  bsp.debug_enabled <- false;
  (* The CPU transmits the SLB contents to the TPM, which resets the
     dynamic PCRs and extends PCR 17 with the measurement. The TPM reads
     the bytes out of memory only when they are not the very slice it
     measured last. Under TXT the chipset first authenticates and
     measures the SINIT ACM, which then measures the SLB (the MLE). *)
  hooks.dynamic_pcr_reset ();
  let acm_measurement =
    Option.map
      (fun acm ->
        let digest =
          hooks.measure_into_pcr17 ~len:(String.length acm) ~source:(Some (acm, 0))
            ~read:(fun () -> acm)
        in
        Machine.charge m (Timing.skinit_ms m.timing ~slb_bytes:(String.length acm));
        digest)
      acm
  in
  let measurement =
    hooks.measure_into_pcr17 ~len:slb_length
      ~source:(Memory.source m.memory ~addr:slb_base ~len:slb_length)
      ~read:(fun () -> Memory.read m.memory ~addr:slb_base ~len:slb_length)
  in
  Machine.charge m (Timing.skinit_ms m.timing ~slb_bytes:slb_length);
  (* Enter flat 32-bit protected mode at the entry point. *)
  bsp.mode <- Cpu.Flat_protected;
  bsp.paging_enabled <- false;
  bsp.ring <- 0;
  let flat = Cpu.flat_segment (Memory.size m.memory) in
  bsp.cs <- flat;
  bsp.ds <- flat;
  bsp.ss <- flat;
  (match acm_measurement with
  | None ->
      Machine.log_record m ~render:skinit_line
        ~code:((slb_length lsl 16) lor entry_offset)
        ~n:slb_base "skinit: launched SLB"
  | Some digest ->
      Machine.log_record m ~render:senter_line
        ~code:((slb_base lsl 16) lor slb_length)
        ~n:(prefix48 digest) "senter: launched MLE");
  Machine.protocol_event m Event.Skinit_end;
  {
    slb_base;
    slb_length;
    entry_point = slb_base + entry_offset;
    measurement;
    protected_base = slb_base;
    protected_len = slb_window;
  }

let teardown_dev (m : Machine.t) launch =
  Dev.unprotect_range m.dev ~addr:launch.protected_base ~len:launch.protected_len;
  Machine.log_event m "skinit: DEV protection dropped"
