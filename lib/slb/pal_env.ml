module Machine = Flicker_hw.Machine
module Memory = Flicker_hw.Memory
module Tpm = Flicker_tpm.Tpm

type t = {
  machine : Machine.t;
  tpm_driver : Mod_tpm_driver.t;
  rng : Flicker_crypto.Prng.t;
  inputs : string;
  inputs_addr : int;
  outputs_addr : int;
  protection : Mod_os_protection.policy option;
  heap : Mod_memory.t option;
  mutable outputs : string;
}

let create ~machine ~tpm ~rng ~inputs ~inputs_addr ~outputs_addr ~protection ~heap =
  {
    machine;
    tpm_driver = Mod_tpm_driver.attach tpm;
    rng;
    inputs;
    inputs_addr;
    outputs_addr;
    protection;
    heap;
    outputs = "";
  }

let guard t ~addr ~len =
  match t.protection with
  | Some policy -> Mod_os_protection.check policy ~addr ~len
  | None -> ()

let read_phys t ~addr ~len =
  guard t ~addr ~len;
  Memory.read t.machine.Machine.memory ~addr ~len

let write_phys t ~addr data =
  guard t ~addr ~len:(String.length data);
  Memory.write t.machine.Machine.memory ~addr data

let set_output t data =
  if String.length data > Layout.io_page_size then
    invalid_arg "Pal_env.set_output: output exceeds the 4 KB output page";
  t.outputs <- data;
  (* the output page lies inside the PAL's allocated region, so this write
     passes the OS-protection check *)
  write_phys t ~addr:t.outputs_addr data

let output t = t.outputs

let failure_prefix = "ERROR: "
let fail t msg = set_output t (failure_prefix ^ msg)
let failed outputs = String.starts_with ~prefix:failure_prefix outputs

let compute t ~ms =
  if ms < 0.0 then invalid_arg "Pal_env.compute: negative time";
  Machine.charge t.machine ms
