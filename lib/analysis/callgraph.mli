(** Indexed call graph over the extraction IR.

    Nodes are the program's defined functions (first definition wins,
    matching the slicer); edges keep the body's call order, which the
    taint pass relies on. Undefined callees stay as [External] names —
    they are the stdlib/TPM/PAL-primitive surface the advice table and
    effects table classify. *)

module Extract = Flicker_extract.Extract

type callee = Defined of int | External of string
type t

val build : Extract.program -> t

val node_count : t -> int
val name : t -> int -> string
val func : t -> int -> Extract.func
val id : t -> string -> int option
val calls : t -> int -> callee array
(** The function's callees in body order (duplicates preserved). *)

val defined_callees : t -> int -> int list
val external_callees : t -> int -> string list

val reachable : t -> root:string -> string list
(** Defined functions reachable from [root] (inclusive), preorder.
    Empty when [root] is undefined. *)

val unreachable : t -> root:string -> string list
(** Defined functions NOT reachable from [root]: dead code that would
    ride along in the PAL image. *)

val recursive_groups : t -> string list list
(** SCCs that can actually recurse: size > 1, or a direct self-call.
    Recursion is a hazard on the fixed 4 KB PAL stack. *)

val has_recursion_from : t -> root:string -> bool
