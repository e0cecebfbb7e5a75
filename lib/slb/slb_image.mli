(** The SLB linker: lays linked PAL code out as a 64 KB image of either
    flavor. {!Pal.define} links both flavors once and the PAL holds the
    images; {!Builder} describes the flavors and hands the images out. *)

type flavor = Standard | Optimized

type t = private {
  flavor : flavor;
  bytes : string;  (** full 64 KB uninitialized window image *)
  measured_length : int;  (** value of the header's length field *)
  pal_region_off : int;
  pal_region_len : int;
}
(** Only {!link} makes one, so every field is a function of [bytes]. *)

val link : flavor -> string -> (t, string) result
(** The image of linked PAL code, or the message [Builder.build] raises
    when the code does not fit that flavor's PAL region. *)
