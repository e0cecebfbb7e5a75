(** The PAL verifier's rule registry and driver.

    A [target] pairs a {!Flicker_slb.Pal.t} with the
    extraction-IR program modeling its code, the entry function, a
    declared TCB budget, and per-PAL effects annotations. [run] slices
    the program, builds the call graph, runs the abstract interpreter
    once, and evaluates every rule, returning the findings in the
    canonical export order (rule id, then subject function, then
    location) beside the slice and the interpreter's result.

    Rule classes:
    - [recursion] (error): call cycles on the fixed 4 KB PAL stack
    - [secret-leak] (error): source->sink flow with no sanitizer
    - [missing-zeroize] (error): secrets not erased before teardown
    - [tcb-budget] (error): [Pal.total_loc] over the declared budget
    - [slb-region] (error/warning): linked code that either SLB flavor
      cannot hold, or over 90% of the optimized flavor's PAL region
    - [unnecessary-module] (warning): linked but not implied by the slice
    - [missing-module] (error): implied by the slice but not linked
    - [forbidden-call] (error): needs the OS (sockets, fork, time-of-day)
    - [eliminate-call] (warning): printf-family calls
    - [unresolved-callee] (warning): undefined, unrecognized callees
    - [dead-function] (info): defined but unreachable from the entry

    Abstract-interpretation-backed classes (proofs over {!Absint}):
    - [stack-bound] (error): proved worst-case stack over the 4 KB PAL
      stack, with the deepest call chain (a shape-only function costs a
      conservative 128-byte frame)
    - [buffer-bounds] (error): abstract buffer index escapes the
      declared element count
    - [secret-branch] (error): branch condition or loop bound
      influenced by an effects source (timing side channel)
    - [secret-index] (error): memory access indexed by a secret
    - [duplicate-definition] (warning): a function defined twice, the
      later definition silently shadowed by the slicer *)

module Pal = Flicker_slb.Pal
module Extract = Flicker_extract.Extract

type severity = Info | Warning | Error

val severity_name : severity -> string

type finding = {
  rule : string;
  severity : severity;
  subject : string;  (** the offending function, module, or callee *)
  location : string;  (** site within the subject (chain, expression, or
                          buffer range); [""] when not applicable *)
  message : string;
}

type target = {
  pal : Pal.t;
  program : Extract.program;  (** extraction-IR model of the PAL's code *)
  entry : string;  (** the PAL's entry function in [program] *)
  budget_loc : int;  (** declared TCB budget ([Pal.total_loc] must fit) *)
  effects : (string * Effects.effect_class) list;  (** per-PAL annotations *)
}

type ctx = {
  target : target;
  graph : Callgraph.t;
  extraction : Extract.extraction;
  table : Effects.table;
  absint : Absint.result;
}
(** What every rule reads about one target. *)

type rule = { id : string; title : string; severity : severity; check : ctx -> finding list }

val rules : rule list

type analysis = {
  findings : finding list;  (** every rule's, in the canonical order *)
  extraction : Extract.extraction;  (** the entry's slice *)
  absint : Absint.result;  (** the proved stack bound and lint results *)
}
(** One target analyzed once: the reports and the bench read this. *)

val run : target -> (analysis, string) result
(** Evaluate every rule. [Error] only when the entry function is not
    defined in the program. *)

val compare_findings : finding -> finding -> int
(** The canonical export order: (rule id, subject, location, message). *)

val count : severity -> finding list -> int
val errors : finding list -> int
val warnings : finding list -> int

val should_fail : ?strict:bool -> finding list -> bool
(** Admission/exit-code policy: any error fails; with [strict] warnings
    fail too. *)
