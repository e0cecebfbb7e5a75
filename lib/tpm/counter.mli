(** TPM Monotonic Counters — the other replay-protection primitive the
    paper sketches (Figure 4). Counters only ever increase; a sealed blob
    carrying a stale counter value is detected on unseal. *)

type t

val create : unit -> t

val create_counter : t -> label:string -> int
(** Returns the new counter's handle. *)

val increment : t -> handle:int -> (int, Tpm_types.error) result
(** Returns the post-increment value. *)

val read : t -> handle:int -> (int, Tpm_types.error) result
