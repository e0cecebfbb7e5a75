(** The effects table: classifies function names by their role in the
    secret-flow discipline a PAL must uphold (Sections 4.3 and 5.1).

    A built-in table covers the TPM API, the PAL-environment primitives,
    and crypto naming conventions; per-PAL annotations (e.g. marking a
    constant-time comparison as a declassifier) are layered on top and
    win over the built-ins. *)

type effect_class =
  | Source  (** produces a secret: TPM_Unseal, sealed inputs, GetRandom keys *)
  | Sanitizer  (** makes a secret safe to leave the SLB: seal/encrypt/sign *)
  | Sink  (** bytes leave the PAL: output page, physical writes outside *)
  | Zeroizer  (** erases secrets before teardown (Section 5.1) *)

type table

val default : unit -> table
val make : (string * effect_class) list -> table
(** A table with per-PAL overrides; overrides beat the built-ins. *)

val classify : table -> string -> effect_class option
