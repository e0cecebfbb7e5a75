(** The untrusted operating system's kernel image.

    Flicker treats the OS as adversarial; the simulator gives it concrete
    state so the applications have something real to work on: the rootkit
    detector hashes the text segment, system-call table, and loaded
    modules (Section 6.1), and the flicker-module saves/restores the
    kernel's paging state around a session. *)

type t

val create :
  Flicker_crypto.Prng.t ->
  ?text_size:int ->
  version:string ->
  unit ->
  t
(** Deterministically generated kernel image with four loaded modules.
    [text_size] defaults to 64 KB (benchmarks use a realistic
    multi-megabyte image). *)

val version : t -> string
val text_segment : t -> string
val syscall_table : t -> string
(** Serialized syscall table (index, handler address pairs). *)

val loaded_modules : t -> (string * string) list
(** [(name, code)] for each loaded kernel module. *)

val measured_bytes : t -> int
(** Total size of everything the rootkit detector hashes. *)

val page_table_root : t -> int
val set_page_table_root : t -> int -> unit

(** {1 Rootkit installation (the attacks the detector must catch)} *)

val install_text_rootkit : t -> unit
(** Patch bytes inside the kernel text segment (inline hook). *)

val install_syscall_rootkit : t -> unit
(** Redirect a syscall-table entry (classic syscall hijack). *)

val install_module_rootkit : t -> unit
(** Load a malicious kernel module. *)

val is_compromised : t -> bool
