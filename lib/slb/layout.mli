(** The SLB memory image layout (paper Figure 3).

    From the SLB base upward: a 4-byte header (16-bit length, 16-bit entry
    point), the SLB Core (skeleton GDT, TSS, init/exit code), then the PAL,
    up to the 60 KB "End of PAL" mark; the top 4 KB of the 64 KB window
    holds the resume-time page-table skeleton and the stack. The first
    4 KB page above the window carries the PAL inputs and saved kernel
    state in; the second page carries the PAL outputs out. *)

val slb_size : int
(** 65536 — the architectural measurement/protection window. *)

val header_size : int
(** 4 bytes: u16 length, u16 entry point (both little-endian). *)

val pal_region_end : int
(** 61440 (60 KB): PAL code must end here. *)

val stack_size : int
(** 4096 bytes at the top of the window. *)

val inputs_page_offset : int
(** 65536: first page above the SLB (relative to the SLB base). *)

val outputs_page_offset : int
(** 69632: second page above the SLB. *)

val io_page_size : int
(** 4096: each of the input/output areas is one page. *)

val total_footprint : int
(** SLB window plus both I/O pages: what the flicker-module allocates. *)
