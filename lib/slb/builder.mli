(** Links a PAL against the SLB Core into an SLB image — the simulator's
    equivalent of the Flicker linker script (Section 5.1.2), which places
    the SLB Core's skeleton structures first and emits a flat binary.

    Two flavors:
    - [Standard]: SKINIT measures the whole image (header + core + PAL).
    - [Optimized]: SKINIT measures only the 4736-byte hash-then-extend
      stub; the stub hashes the full 64 KB window on the main CPU and
      extends PCR 17 itself (Section 7.2, "SKINIT Optimization"). *)

type flavor = Slb_image.flavor = Standard | Optimized

type image = Slb_image.t = private {
  flavor : flavor;
  bytes : string;  (** full 64 KB uninitialized window image *)
  measured_length : int;  (** value of the header's length field *)
  pal_region_off : int;
  pal_region_len : int;
  memo : Slb_image.memo option Atomic.t;  (** filled by [Measurement] *)
}

val linked : flavor:flavor -> Pal.t -> (image, string) result
(** The link verdict of that flavor the PAL holds, from {!Pal.define}:
    its image, or why its code does not fit the flavor's PAL region. *)

val build : ?flavor:flavor -> Pal.t -> image
(** The image of that flavor the PAL holds: built once by
    {!Pal.define}, so every call returns the same shared string.
    @raise Invalid_argument when the PAL does not fit. *)

val initialize : image -> slb_base:int -> string
(** The patched (GDT/TSS bases filled in) 64 KB image the flicker-module
    loads at [slb_base] — and the bytes a verifier must hash to predict
    the measurement. *)

val holds_pal_code : flavor:flavor -> Flicker_hw.Memory.t -> slb_base:int -> string -> bool
(** Whether the window of that flavor at [slb_base] holds [code] as its
    linked PAL code, as the session checks physical memory after the
    launch: the header that flavor writes names a code region of
    [String.length code] bytes, and those bytes equal [code], compared
    in place. [false] when the window lies outside memory or its header
    is corrupt. *)

val slb_sizes : Pal.t -> int * int
(** [(standard_measured, optimized_measured)] byte counts for a PAL —
    what Table 2 sweeps. *)
