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
    further [update] or [finalize] raises [Invalid_argument] until the
    context is [reset]. *)

val digest : string -> string
(** One-shot hash (reuses one process-wide scratch context; the
    simulator is single-domain). *)

val bytes_hashed : unit -> int
(** Message bytes absorbed through [update] since process start —
    host-side instrumentation for the measurement-cache benchmarks
    (padding bytes are not counted). *)

val hex : string -> string
(** [hex s] is [Util.to_hex (digest s)]. *)
