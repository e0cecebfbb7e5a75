(** Device Exclusion Vector.

    AMD SVM's DEV is a bit vector over physical pages; a set bit blocks all
    DMA to that page. SKINIT sets the bits covering the 64 KB SLB region so
    that no DMA-capable device can read or tamper with the measured code
    (Section 2.4).

    Out-of-range policy: pages beyond the bitmap (i.e. beyond physical
    memory) are treated as {e permanently protected} — DMA to them is
    always denied (fail closed), and range operations silently leave them
    in that state. Per-page queries ([is_page_protected]) still raise
    [Invalid_argument] on out-of-range page numbers, since asking about a
    specific nonexistent page is a caller bug rather than a device
    access. *)

type t

val create : pages:int -> t

val set_notify : t -> (Flicker_verify.Event.t -> unit) -> unit
(** Observe range-level protection changes as [Dev_protect],
    [Dev_unprotect] and [Dev_clear] events (the machine wires this to
    {!Machine.protocol_event}). Range operations with [len <= 0] notify
    nothing. *)

val protect_range : t -> addr:int -> len:int -> unit
(** Set the DEV bits for every page overlapping the byte range. Pages
    beyond the bitmap are already permanently protected, so the portion
    of the range outside coverage is a no-op. *)

val unprotect_range : t -> addr:int -> len:int -> unit
(** Clear the DEV bits for covered pages of the range. Pages beyond the
    bitmap cannot be unprotected. *)

val clear : t -> unit
val is_page_protected : t -> int -> bool
(** @raise Invalid_argument if the page is outside the bitmap. *)

val allows : t -> addr:int -> len:int -> bool
(** [true] iff no byte of the range lies in a protected page. Any byte
    beyond the bitmap's coverage makes this [false]. *)

val protected_pages : t -> int list
(** Sorted list of protected page numbers (for tests and audits). *)
