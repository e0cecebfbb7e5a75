(** The SARIF 2.1.0 skeleton both verifiers write: the static analyzer
    ([flicker_cli analyze --json]) and the temporal verifier
    ([flicker_cli check --json]). A document holds one run per analyzed
    subject; each run names its tool and rules and lists its results,
    and carries the caller's property bag. *)

val rule :
  ?properties:(string * Json.t) list -> id:string -> text:string -> level:string -> unit -> Json.t
(** A rule descriptor: [id], [shortDescription.text],
    [defaultConfiguration.level], and a [properties] bag when given. *)

val result : rule_id:string -> level:string -> message:string -> location:string -> Json.t
(** One result at the logical location [location]
    ([logicalLocations.fullyQualifiedName]). *)

val run :
  tool:string -> rules:Json.t list -> results:Json.t list -> (string * Json.t) list -> Json.t
(** A run of [tool] with its rule descriptors, results and properties. *)

val document : Json.t list -> Json.t
(** The [{version; runs}] document. *)
