open Flicker_crypto
module Machine = Flicker_hw.Machine
module Timing = Flicker_hw.Timing
module Clock = Flicker_hw.Clock
module Tpm = Flicker_tpm.Tpm
module Privacy_ca = Flicker_tpm.Privacy_ca
module Kernel = Flicker_os.Kernel
module Scheduler = Flicker_os.Scheduler
module Sysfs = Flicker_os.Sysfs

type t = {
  machine : Machine.t;
  tpm : Tpm.t;
  kernel : Kernel.t;
  scheduler : Scheduler.t;
  sysfs : Sysfs.t;
  rng : Prng.t;
  aik_cert : Privacy_ca.aik_certificate;
  slb_base : int;
  mutable sessions_run : int;
  mutable corrupt_next_slb : bool;
}

let default_slb_base = 0x200000 (* 2 MB: inside the kernel's direct mapping *)

let create ?(seed = "flicker-platform") ?(timing = Timing.default) ?(key_bits = 512)
    ?(kernel_text_size = 64 * 1024) ?ca () =
  let rng = Prng.create ~seed in
  let machine = Machine.create timing in
  let tpm = Tpm.create machine (Prng.fork rng ~label:"tpm") ~key_bits in
  Machine.set_tpm_hooks machine (Tpm.skinit_hooks tpm);
  let ca =
    match ca with
    | Some ca -> ca
    | None -> Privacy_ca.create (Prng.fork rng ~label:"privacy-ca") ~name:"SimPrivacyCA" ~key_bits
  in
  Privacy_ca.register_ek ca (Tpm.ek_public tpm);
  let aik_cert =
    match Privacy_ca.certify_aik ca ~ek:(Tpm.ek_public tpm) ~aik:(Tpm.aik_public tpm) with
    | Ok cert -> cert
    | Error msg -> failwith ("Platform.create: " ^ msg)
  in
  let kernel =
    Kernel.create (Prng.fork rng ~label:"kernel") ~text_size:kernel_text_size
      ~version:"2.6.20" ()
  in
  {
    machine;
    tpm;
    kernel;
    scheduler = Scheduler.create machine;
    sysfs = Sysfs.create ();
    rng;
    aik_cert;
    slb_base = default_slb_base;
    sessions_run = 0;
    corrupt_next_slb = false;
  }

let clock t = t.machine.Machine.clock
let now_ms t = Clock.now (clock t)
let fork_rng t ~label = Prng.fork t.rng ~label
let fresh_nonce t = Prng.bytes t.rng 20

(* A mid-session crash and reboot. Volatile state is lost: memory, DEV
   ranges, CPU modes (Machine.power_cycle), the suspended scheduler, and
   the flicker-module's sysfs entries. The TPM's PCRs reboot to the
   0xff reboot digest while NV, counters, and the key hierarchy persist
   — which is exactly why sealed blobs bound to PCR 17-during-PAL unseal
   again after the next SKINIT reproduces that value (Section 4.3's
   recovery story). The TPM reboots first: its [pcr.reboot] ends any
   launch before the DEV is cleared and the OS resumes. *)
let power_cycle t =
  Tpm.reboot t.tpm;
  Machine.power_cycle t.machine;
  if Scheduler.is_suspended t.scheduler then Scheduler.resume t.scheduler;
  List.iter (fun path -> Sysfs.remove t.sysfs ~path) (Sysfs.paths t.sysfs);
  t.corrupt_next_slb <- false
