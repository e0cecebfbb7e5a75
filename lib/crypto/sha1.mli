(** SHA-1 (FIPS 180-1). The TPM v1.2 specification uses SHA-1 for all PCR
    extends and measurements, so this is the measurement hash throughout
    the simulator. *)

type ctx

val digest_size : int
(** 20 bytes. *)

val init : unit -> ctx

val update : ctx -> string -> unit
(** @raise Invalid_argument on a context that was already finalized. *)

val finalize : ctx -> string
(** Returns the 20-byte digest and marks the context finalized: any
    further [update] or [finalize] raises [Invalid_argument]. A new
    message needs a new context from {!init}. *)

val digest : string -> string
(** One-shot hash. Reuses a scratch context local to the calling
    domain, so domains that hash at once never share one. *)

val bytes_hashed : unit -> int
(** Message bytes absorbed through [update] since process start —
    host-side instrumentation for the measurement-cache benchmarks
    (padding bytes are not counted). *)

val hex : string -> string
(** [hex s] is [Util.to_hex (digest s)]. *)
