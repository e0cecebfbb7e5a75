(** Analysis targets for the five shipped paper PALs: rootkit detector,
    distributed computing (BOINC factoring), SSH password auth,
    certificate authority, and the hello-world quickstart. Each pairs
    the {!Flicker_slb.Pal.t} it builds with the extraction-IR program
    modeling its code (entry, statement bodies, types, LOC) and a
    declared TCB budget.

    Two additional {e planted-defect} targets exercise the abstract
    interpreter: [stack-hog] (per-frame sizes fine, whole-chain stack
    over 4 KB) and [secret-branch] (unsealed secret steers a branch and
    indexes a table). They are kept out of {!all} — the shipped set
    must analyze clean — but resolve through {!find}. *)

val stack_hog : unit -> Rules.target
val secret_branch : unit -> Rules.target

val all : unit -> (string * Rules.target) list
(** Key/target pairs, keys: hello, rootkit, boinc, ssh, ca. *)

val planted : unit -> (string * Rules.target) list
(** Planted-defect key/target pairs, keys: stack-hog, secret-branch. *)

val keys : unit -> string list
val planted_keys : unit -> string list

val find : string -> Rules.target option
(** Looks up shipped keys first, then planted ones. *)
