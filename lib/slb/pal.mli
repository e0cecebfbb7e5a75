(** PAL definitions: the Figure 6 module catalog and deterministic
    "binary" code synthesis.

    A real PAL is a binary blob linked against the SLB Core; the kernel
    module sees only bytes, and the hardware measures exactly those bytes.
    The simulator preserves that: a PAL's [code] is a deterministic byte
    string (synthesized from its name and declared size, mirroring the
    sizes in Figure 6), and a session runs the PAL's behaviour only when
    the bytes it reads back from the launched window equal that code.
    Corrupt the bytes and you get a different measurement and no
    behaviour — exactly the hardware contract. A [t] is an immutable
    value: nothing outside it maps code back to behaviour. It holds its
    64 KB SLB images, linked once when it is defined. *)

type module_kind =
  | Os_protection
  | Tpm_driver
  | Tpm_utilities
  | Crypto
  | Memory_management
  | Secure_channel

type module_info = {
  kind : module_kind;
  module_name : string;
  loc : int;  (** lines of code added to the TCB (Figure 6) *)
  size_bytes : int;  (** contribution to the SLB binary (Figure 6) *)
  description : string;
}

val catalog : module_info list
(** All optional modules, with the paper's LOC and size figures. *)

val info : module_kind -> module_info
val module_code : module_kind -> string
(** The module's deterministic code bytes ([size_bytes] long). *)

type t = {
  name : string;
  code : string;
      (** the linked code: module code (in catalog order) followed by the
          app code — the PAL region of the SLB image *)
  modules : module_kind list;  (** sorted, duplicate-free *)
  behavior : Pal_env.t -> unit;
  standard : (Slb_image.t, string) result;  (** [Slb_image.link Standard code] *)
  optimized : (Slb_image.t, string) result;
      (** [Slb_image.link Optimized code]: an [Error] when the code fits
          the standard PAL region but not the one behind the 4,736-byte
          stub *)
}

val define :
  name:string ->
  ?app_code_size:int ->
  ?modules:module_kind list ->
  (Pal_env.t -> unit) ->
  t
(** Create a PAL, linking its code and both flavors' SLB images once.
    The app code bytes are synthesized from [name] and [app_code_size]
    (default 512 bytes — a small C function).
    @raise Invalid_argument if the linked code exceeds the PAL region. *)

val wants : t -> module_kind -> bool
val total_loc : t -> int
(** TCB lines of code: SLB Core plus every linked module (app logic not
    included, as in the paper's per-module accounting). *)
