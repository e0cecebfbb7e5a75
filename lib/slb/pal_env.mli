(** The execution environment a PAL sees inside a Flicker session.

    A real PAL runs on bare metal with nothing but the SLB Core beneath
    it: it can touch physical memory (all of it, unless the OS-Protection
    module restricts its segments), drive the TPM through the driver
    module, and read/write the well-known input/output pages. This record
    is the simulation's equivalent — the capabilities are explicit, and
    everything else (the OS, other processes, the network) is simply not
    reachable from here. *)

module Machine = Flicker_hw.Machine
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

val create :
  machine:Machine.t ->
  tpm:Tpm.t ->
  rng:Flicker_crypto.Prng.t ->
  inputs:string ->
  inputs_addr:int ->
  outputs_addr:int ->
  protection:Mod_os_protection.policy option ->
  heap:Mod_memory.t option ->
  t

val read_phys : t -> addr:int -> len:int -> string
(** Physical memory read. With OS protection in force, accesses outside
    the PAL's region raise {!Mod_os_protection.Pal_fault}; without it,
    the PAL can read anything — including OS memory (Section 5.1.2). *)

val write_phys : t -> addr:int -> string -> unit

val set_output : t -> string -> unit
(** Write the PAL's result to the output page (PAL_OUT in the paper's
    "hello world"). @raise Invalid_argument beyond the 4 KB page. *)

val output : t -> string

val fail : t -> string -> unit
(** [fail env msg] writes the PAL's failure report, ["ERROR: " ^ msg],
    to the output page. The report is attested like any other output;
    {!failed} tells it apart on the host side. *)

val failed : string -> bool
(** [true] exactly for an output page that holds a {!fail} report. *)

val compute : t -> ms:float -> unit
(** Application-specific CPU work (charges the simulated clock). *)
