open Flicker_crypto
module Memory = Flicker_hw.Memory
module Kernel = Flicker_os.Kernel
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Mod_crypto = Flicker_slb.Mod_crypto
module Mod_tpm_utils = Flicker_slb.Mod_tpm_utils
module Mod_tpm_driver = Flicker_slb.Mod_tpm_driver
module Builder = Flicker_slb.Builder
module Platform = Flicker_core.Platform
module Session = Flicker_core.Session
module Attestation = Flicker_core.Attestation
module Verifier = Flicker_core.Verifier
module Network = Flicker_core.Network

(* Physical placement of the kernel regions the detector hashes. *)
let kernel_base = 0x400000

(* The PAL: parse the region descriptor from its inputs, hash the regions
   out of physical memory (charging CPU hash time), extend PCR 17 with the
   result, and write it to the output page. *)
let detector_behavior env =
  match Util.decode_fields env.Pal_env.inputs with
  | Error _ -> Pal_env.fail env "bad region descriptor"
  | Ok fields ->
      let regions =
        let rec pair = function
          | a :: l :: rest -> (Util.int_of_be32 a 0, Util.int_of_be32 l 0) :: pair rest
          | _ -> []
        in
        pair fields
      in
      let ctx = Sha1.init () in
      List.iter
        (fun (addr, len) ->
          let data = Pal_env.read_phys env ~addr ~len in
          Flicker_hw.Machine.charge_sha1 env.Pal_env.machine ~bytes:len;
          Sha1.update ctx data)
        regions;
      let hash = Sha1.finalize ctx in
      ignore
        (Mod_tpm_driver.with_tpm env.Pal_env.tpm_driver (fun tpm ->
             ignore (Mod_tpm_utils.pcr_extend tpm 17 hash);
             Ok ()));
      Pal_env.set_output env hash

(* A ~4 KB detector (Table 1's SKINIT time implies a ~5 KB measured SLB),
   linked against only the TPM driver; crucially it must NOT link the
   OS-protection module, since it has to read kernel memory. *)
let detector_pal () =
  Pal.define ~name:"rootkit-detector" ~app_code_size:4096 ~modules:[ Pal.Tpm_driver ]
    detector_behavior

type deployment = {
  platform : Platform.t;
  pal : Pal.t;
  text_addr : int;
  mutable text_len : int;
  syscall_addr : int;
  mutable syscall_len : int;
  modules_addr : int;
  mutable modules_len : int;
  pristine_hash : string;
}

let region_descriptor d =
  Util.encode_fields
    (List.concat_map
       (fun (addr, len) -> [ Util.be32_of_int addr; Util.be32_of_int len ])
       [
         (d.text_addr, d.text_len);
         (d.syscall_addr, d.syscall_len);
         (d.modules_addr, d.modules_len);
       ])

let write_kernel d =
  let memory = d.platform.Platform.machine.Flicker_hw.Machine.memory in
  let kernel = d.platform.Platform.kernel in
  let text = Kernel.text_segment kernel in
  let syscalls = Kernel.syscall_table kernel in
  let modules =
    Util.encode_fields
      (List.concat_map (fun (name, code) -> [ name; code ]) (Kernel.loaded_modules kernel))
  in
  d.text_len <- String.length text;
  d.syscall_len <- String.length syscalls;
  d.modules_len <- String.length modules;
  Memory.write memory ~addr:d.text_addr text;
  Memory.write memory ~addr:d.syscall_addr syscalls;
  Memory.write memory ~addr:d.modules_addr modules

let live_hash d =
  let memory = d.platform.Platform.machine.Flicker_hw.Machine.memory in
  let ctx = Sha1.init () in
  List.iter
    (fun (addr, len) -> Sha1.update ctx (Memory.read memory ~addr ~len))
    [
      (d.text_addr, d.text_len);
      (d.syscall_addr, d.syscall_len);
      (d.modules_addr, d.modules_len);
    ];
  Sha1.finalize ctx

let deploy_on platform =
  let kernel = platform.Platform.kernel in
  let text_len = String.length (Kernel.text_segment kernel) in
  let syscall_len = String.length (Kernel.syscall_table kernel) in
  (* generous gaps so a grown module list still fits *)
  let syscall_addr = kernel_base + text_len + Memory.page_size in
  let modules_addr = syscall_addr + syscall_len + Memory.page_size in
  let d =
    {
      platform;
      pal = detector_pal ();
      text_addr = kernel_base;
      text_len;
      syscall_addr;
      syscall_len;
      modules_addr;
      modules_len = 0;
      pristine_hash = "";
    }
  in
  write_kernel d;
  let d = { d with pristine_hash = live_hash d } in
  d

let sync d = write_kernel d

let known_good_hash d = d.pristine_hash

let measured_region_bytes d = d.text_len + d.syscall_len + d.modules_len

type scan_result = {
  reported_hash : string;
  outcome : Session.outcome;
  evidence : Attestation.evidence;
  nonce : string;
}

let scan d ~nonce =
  let inputs = region_descriptor d in
  match Session.call d.platform ~pal:d.pal ~inputs ~nonce () with
  | Error e -> Error e
  | Ok outcome ->
      let evidence =
        Attestation.generate d.platform ~nonce ~inputs ~outputs:outcome.Session.outputs
      in
      Ok { reported_hash = outcome.Session.outputs; outcome; evidence; nonce }

type admin_verdict =
  | Clean
  | Rootkit_detected of { expected : string; got : string }
  | Attestation_rejected of Verifier.failure

let admin_check d ~ca_key result =
  (* the detector PAL extends its reported hash into PCR 17 itself *)
  let expectation =
    Verifier.expect ~pal:d.pal ~flavor:Builder.Optimized
      ~pal_extends:[ result.evidence.Attestation.claimed_outputs ]
      ~slb_base:d.platform.Platform.slb_base ~nonce:result.nonce ()
  in
  match Verifier.verify ~ca_key expectation result.evidence with
  | Error f -> Attestation_rejected f
  | Ok () ->
      let got = result.evidence.Attestation.claimed_outputs in
      if Util.constant_time_equal got d.pristine_hash then Clean
      else Rootkit_detected { expected = d.pristine_hash; got }

let remote_query d ~ca_key =
  let clock = Platform.clock d.platform in
  let started = Flicker_hw.Clock.now clock in
  (* admin -> host: nonce *)
  Network.send d.platform ~bytes:64;
  let nonce = Platform.fresh_nonce d.platform in
  match scan d ~nonce with
  | Error e -> Error e
  | Ok result ->
      (* host -> admin: quote + hash *)
      Network.send d.platform ~bytes:1024;
      let verdict = admin_check d ~ca_key result in
      Ok (verdict, Flicker_hw.Clock.now clock -. started)
