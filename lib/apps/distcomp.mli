(** Flicker-protected distributed computing (Section 6.2).

    A BOINC-style server hands out work units — ranges of candidate
    divisors for a large number — to untrusted clients. Each client
    processes its unit inside Flicker sessions: the first session draws a
    160-bit HMAC key from the TPM RNG and seals it to the PAL; every
    subsequent session unseals the key, verifies the MAC on the state the
    untrusted OS stored, works for a bounded slice (so the OS can
    multitask), MACs the new state, and yields. The final session extends
    the results into PCR 17 so the attested quote proves they came from
    the genuine PAL — replacing the usual redundant re-execution.

    The state is deliberately unversioned. An OS that hands the PAL an
    older (state, MAC) pair only makes it redo the slices since then,
    which the OS could equally withhold by never running the PAL. The
    MAC stops forged state, and the final PCR 17 extend covers the
    result the server accepts. So no session pays for a counter
    ({!Flicker_slb.Mod_tpm_utils.seal_versioned}), and Table 4 and
    Figure 8 keep their numbers. *)

type work_unit = {
  unit_id : int;
  number : int;  (** the number being factored *)
  lo : int;  (** first candidate divisor, inclusive *)
  hi : int;  (** last candidate divisor, inclusive *)
}

type state = {
  unit_ : work_unit;
  next_candidate : int;
  divisors_found : int list;
  finished : bool;
}

val encode_state : state -> string
val decode_state : string -> (state, string) result

val pal : unit -> Flicker_slb.Pal.t
(** Build the distributed-computing PAL. A client and a
    {!Boinc} server each build the one they run or verify when
    created. *)

type client

val create_client : Flicker_core.Platform.t -> client

type step = {
  outcome : Flicker_core.Session.outcome;
  state : state;
  session_overhead_ms : float;  (** SKINIT + unseal + MAC check: everything before useful work *)
}

val start : client -> work_unit -> slice_ms:float -> (step, string) result
(** First session: key generation + seal, then the first work slice. *)

val resume : client -> state -> slice_ms:float -> (step, string) result
(** One more session over the stored state.
    @raise Invalid_argument if the state is already finished. *)

val resume_raw : client -> state_blob:string -> slice_ms:float -> (step, string) result
(** Like {!resume} but feeding raw encoded state — what the untrusted OS
    actually hands the PAL. Used to demonstrate that tampered state is
    rejected by the MAC check. *)

val resume_attested :
  nonce:string -> client -> state -> slice_ms:float -> (step * string, string) result
(** A resume session run against a server-supplied nonce; also returns the
    exact PAL input bytes so the server can replay the measurement chain
    when verifying the quote. *)

val result_extend_of_state : state -> string
(** The value the PAL extends into PCR 17 when it finishes a unit —
    what a verifying server lists in its expectation's [pal_extends]. *)

val run_to_completion :
  client -> work_unit -> slice_ms:float -> (state * int, string) result
(** Drive sessions until the unit finishes; returns the final state and
    the number of sessions used. *)

val tamper_state : string -> string
(** Adversary helper: flip a byte in an encoded-state blob (the MAC must
    catch it). *)

val candidates_per_ms : float
(** Calibration of useful work: candidate divisors tested per simulated
    millisecond. *)

val efficiency : Flicker_hw.Timing.t -> work_ms:float -> float
(** Fraction of a session spent on useful work (Figure 8's Flicker
    curve): work / (work + SKINIT + Unseal overhead). *)

val replication_efficiency : int -> float
(** 1/k: the efficiency of k-way redundant execution. *)
