(** Replay protection for sealed storage (Section 4.3.2, Figure 4).

    TPM_Unseal guarantees only the intended PAL reads the plaintext — not
    that the ciphertext is the *latest* version. The untrusted OS stores
    the blobs, so it can feed a PAL yesterday's password database. The
    fix is a secure counter: each [seal] increments a TPM monotonic
    counter and embeds its value; [unseal] compares the embedded value
    with the live counter and rejects stale blobs. *)

type guard = { counter_handle : int }

val init : Flicker_slb.Pal_env.t -> owner_auth:string -> label:string -> (guard, string) result
(** Create the PAL's monotonic counter (owner-authorized; the 20-byte
    owner secret reaches the PAL over a secure channel in the paper's
    deployment). Run once, inside a session. *)

val seal_for_self :
  Flicker_slb.Pal_env.t -> guard -> string -> (string, string) result
(** Figure 4 Seal: IncrementCounter(); j <- ReadCounter();
    c <- TPM_Seal(d || j), sealed to the current PCR 17. *)

type unseal_error =
  | Replay_detected of { sealed_version : int; counter : int }
  | Counter_out_of_sync of { sealed_version : int; counter : int }
      (** the counter is exactly one ahead of the blob: the signature of a
          crash between the increment and the ciphertext reaching disk
          (the recovery scenario Section 4.3.2 flags as needing explicit
          detection). Recoverable by policy; distinct from a plain
          replay. *)
  | Tpm_error of string

val pp_unseal_error : Format.formatter -> unseal_error -> unit

val unseal :
  Flicker_slb.Pal_env.t -> guard -> string -> (string, unseal_error) result
(** Figure 4 Unseal: d || j' <- TPM_Unseal(c); reject unless
    j' = ReadCounter(). *)

(** The paper's second construction (Section 4.3.2): the counter lives in
    TPM non-volatile storage, in a space whose read and write conditions
    name the PAL's own PCR 17 value — so only the intended PAL, inside a
    genuine Flicker session, can read or advance it. No OS-held state
    beyond the ciphertext. *)
module Nv : sig
  type guard = { nv_index : int }

  val init :
    Flicker_slb.Pal_env.t -> owner_auth:string -> nv_index:int -> (guard, string) result
  (** Define the PCR-gated counter space (owner-authorized Define Space)
      and zero it. Must run inside a session of the PAL that will use it:
      the gate binds to the current PCR 17. *)

  val seal : Flicker_slb.Pal_env.t -> guard -> string -> (string, string) result
  (** Increment the NV counter and seal [data || j] to the current
      PCR 17. *)

  val unseal : Flicker_slb.Pal_env.t -> guard -> string -> (string, unseal_error) result
end
