(** The PAL extraction tool (Section 5.2).

    The paper ships a CIL-based tool: given a target function inside a
    larger C program, it walks the call graph and pulls out every function
    and type the target transitively needs, producing a standalone program
    — and tells the programmer which standard-library calls must be
    eliminated (printf) or redirected to a PAL module (malloc to the
    Memory Management module, TPM_* to TPM Utilities, crypto to the Crypto
    module). This is that tool over a structured program representation
    (the simulator has no C parser; CIL's role was exactly to reduce C to
    such a representation). *)

(** {1 Statement/expression mini-language}

    The structured bodies CIL would plausibly emit after its
    simplification passes: three-address-style expressions over scalar
    locals and parameters, fixed-size local arrays, guarded branches,
    and counted [for] loops whose bounds are evaluated once on entry
    (CIL normalizes loops it can bound into exactly this shape). The
    abstract-interpretation passes in [lib/analysis] run over these;
    functions may instead carry an empty [stmts] list and remain
    "shape-only" (call list + LOC), the pre-mini-IR representation. *)

type binop = Add | Sub | Mul | Div | Mod | Band | Eq | Ne | Lt | Le
(** [Div]/[Mod] by zero evaluate to 0 (total semantics; CIL would have
    inserted a guard). Comparisons yield 0/1. [Band] is bitwise AND. *)

type expr =
  | Num of int
  | Var of string  (** scalar local or parameter *)
  | Bin of binop * expr * expr
  | Load of { buf : string; index : expr }
      (** typed-buffer read: element [index] of local array [buf] *)

type stmt =
  | Local of { name : string; elems : int; elem_size : int }
      (** stack array declaration: [elems] elements of [elem_size]
          bytes, charged to the function's frame *)
  | Assign of { dst : string; src : expr }
  | Store of { buf : string; index : expr; src : expr }
      (** typed-buffer write: element [index] of local array [buf] *)
  | Call of { dst : string option; callee : string; args : expr list }
  | If of { cond : expr; then_ : stmt list; else_ : stmt list }
  | For of { var : string; lo : expr; hi : expr; body : stmt list }
      (** counted loop: [var] ranges over [lo, hi) with both bounds
          evaluated once on entry, so termination is structural; on
          exit [var] holds [hi] if the loop ran, [lo] otherwise *)
  | Return of expr option

type func = {
  fname : string;
  params : string list;  (** scalar parameters, in call order *)
  calls : string list;  (** callees, by name; unknown names are stdlib *)
  uses_types : string list;
  stmts : stmt list;
      (** structured body; [[]] means shape-only (calls + LOC only) *)
  body : string;  (** source text, carried into the extraction *)
  loc : int;  (** lines of code *)
}

val fn :
  ?params:string list ->
  ?calls:string list ->
  ?uses_types:string list ->
  ?stmts:stmt list ->
  ?body:string ->
  ?loc:int ->
  string ->
  func
(** [fn name] builds a function definition. When [stmts] is given and
    [calls] is not, [calls] defaults to [calls_of_stmts stmts]; [body]
    defaults to a comment carrying the name and LOC. *)

type typedef = {
  tname : string;
  type_depends : string list;
  definition : string;
}

type program = { functions : func list; types : typedef list }

(** What to do about a standard-library call found in the slice. *)
type advice =
  | Eliminate  (** e.g. printf: makes no sense inside a PAL *)
  | Link_module of Flicker_slb.Pal.module_kind
      (** e.g. malloc: link the Memory Management module *)
  | Inline_replacement of string
      (** e.g. memcpy: a freestanding implementation is provided *)
  | Forbidden of string
      (** e.g. socket: needs the OS; restructure around multiple sessions *)

val stdlib_advice : string -> advice option
(** The built-in advice table; [None] for names that are not recognized
    as standard-library functions (they are reported as unresolved). *)

type extraction = {
  target : string;
  required_functions : func list;  (** callees before callers *)
  required_types : typedef list;
  stdlib_calls : (string * advice) list;
  unresolved : string list;  (** called but neither defined nor known stdlib *)
  extracted_loc : int;
}

val extract : program -> target:string -> (extraction, string) result
(** Slice the program for [target]. Fails only if the target itself is
    undefined; unresolved callees are reported, not fatal (the programmer
    must supply them), mirroring the paper's "not completely automated"
    caveat. *)

val suggested_modules : extraction -> Flicker_slb.Pal.module_kind list
(** The PAL modules the slice's stdlib usage implies, deduplicated. *)

val has_blockers : extraction -> bool
(** True when the slice calls something [Forbidden]. *)

val render_standalone : extraction -> string
(** The standalone program text: required types, then functions in
    dependency order, with an extraction report header. *)

val report : Format.formatter -> extraction -> unit
(** Human-readable summary (what the CLI prints). *)
