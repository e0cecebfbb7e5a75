open Flicker_crypto

exception Senter_error of string

let default_acm =
  (* deterministic stand-in for the ~20 KB vendor SINIT module *)
  let buf = Buffer.create 20480 in
  Buffer.add_string buf "\x7fSINIT-ACM-v1\x00";
  let c = ref 0 in
  while Buffer.length buf < 20480 do
    Buffer.add_string buf (Sha256.digest (Printf.sprintf "sinit:%d" !c));
    incr c
  done;
  Buffer.contents buf

let fail fmt = Printf.ksprintf (fun s -> raise (Senter_error s)) fmt

let execute (m : Machine.t) ~slb_base ~acm =
  let bsp = Cpu.bsp m.cpus in
  if bsp.Cpu.ring <> 0 then fail "GETSEC[SENTER] is privileged: caller in ring %d" bsp.Cpu.ring;
  if not (Cpu.all_aps_parked m.cpus) then
    fail "SENTER requires all responding logical processors rendezvoused";
  if String.length acm = 0 then fail "no SINIT ACM provided";
  let hooks =
    match m.tpm_hooks with
    | Some h -> h
    | None -> fail "no TPM attached to the platform"
  in
  if slb_base < 0 || slb_base + Skinit.slb_window > Memory.size m.memory then
    fail "MLE window outside physical memory";
  if slb_base mod Memory.page_size <> 0 then fail "MLE base must be page-aligned";
  let mle_length = Memory.read_u16_le m.memory slb_base in
  let entry_offset = Memory.read_u16_le m.memory (slb_base + 2) in
  if mle_length < 4 then fail "MLE header: length %d too small" mle_length;
  if entry_offset >= mle_length then fail "MLE header: entry point beyond length";
  (* protections first (TXT: NoDMA / protected memory ranges); same
     protocol role as SKINIT, so the same event names *)
  Machine.protocol_event m "skinit.begin"
    ~args:[ ("tech", Flicker_obs.Tracer.Str "txt") ];
  Dev.protect_range m.dev ~addr:slb_base ~len:Skinit.slb_window;
  bsp.Cpu.interrupts_enabled <- false;
  bsp.Cpu.debug_enabled <- false;
  (* stage 1: the chipset authenticates and measures the SINIT ACM *)
  hooks.Machine.dynamic_pcr_reset ();
  let acm_measurement =
    hooks.Machine.measure_into_pcr17 ~len:(String.length acm) ~same:(String.equal acm)
      ~read:(fun () -> acm)
  in
  Machine.charge m (Timing.skinit_ms m.timing ~slb_bytes:(String.length acm));
  (* stage 2: the ACM measures and launches the MLE *)
  let measurement = Skinit.measure_range hooks m ~addr:slb_base ~len:mle_length in
  Machine.charge m (Timing.skinit_ms m.timing ~slb_bytes:mle_length);
  bsp.Cpu.mode <- Cpu.Flat_protected;
  bsp.Cpu.paging_enabled <- false;
  let flat = Cpu.flat_segment (Memory.size m.memory) in
  bsp.Cpu.cs <- flat;
  bsp.Cpu.ds <- flat;
  bsp.Cpu.ss <- flat;
  Machine.log_event m
    (Printf.sprintf "senter: launched MLE at %#x (len=%d) under ACM %s" slb_base
       mle_length
       (Util.to_hex (String.sub acm_measurement 0 6)));
  Machine.protocol_event m "skinit.end";
  {
    Skinit.slb_base;
    slb_length = mle_length;
    entry_point = slb_base + entry_offset;
    measurement;
    protected_base = slb_base;
    protected_len = Skinit.slb_window;
  }
