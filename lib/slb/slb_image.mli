(** The SLB linker: lays linked PAL code out as a 64 KB image of either
    flavor. {!Pal.define} links both flavors once and the PAL holds the
    images; {!Builder} describes the flavors and hands the images out. *)

type flavor = Standard | Optimized

type memo = {
  slb_base : int;  (** the load address the window was patched for *)
  initialized : string;  (** the window patched for [slb_base] *)
  measured : string;  (** H(measured prefix of [initialized]) *)
  window : string;  (** H([initialized]): what the optimized stub extends *)
}
(** An image's launch values at one load address. [Measurement] alone
    reads and fills an image's slot. *)

type t = private {
  flavor : flavor;
  bytes : string;  (** full 64 KB uninitialized window image *)
  measured_length : int;  (** value of the header's length field *)
  pal_region_off : int;
  pal_region_len : int;
  memo : memo option Atomic.t;
      (** the launch values at the last load address asked for. Every
          value published for one address is equal and immutable, so
          domains racing on a first use need no lock. *)
}
(** Only {!link} makes one, so every field but [memo] is a function of
    [bytes]. *)

val capacity : flavor -> int
(** Bytes of PAL code the flavor's PAL region holds: 61,116 behind the
    standard SLB Core, 56,702 behind the optimized flavor's 4,736-byte
    stub and its 2-byte length. *)

val link : flavor -> string -> (t, string) result
(** The image of linked PAL code, or the message [Builder.build] raises
    when the code is longer than that flavor's {!capacity}. *)
