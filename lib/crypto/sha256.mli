(** SHA-256 (FIPS 180-2). *)

type ctx

val digest_size : int
(** 32 bytes. *)

val init : unit -> ctx

val update : ctx -> string -> unit
(** @raise Invalid_argument on a context that was already finalized. *)

val finalize : ctx -> string
(** Returns the 32-byte digest and marks the context finalized: any
    further [update] or [finalize] raises [Invalid_argument]. A new
    message needs a new context from {!init}. *)

val digest : string -> string
(** One-shot hash. Reuses a scratch context local to the calling
    domain, so domains that hash at once never share one. *)

val hex : string -> string
