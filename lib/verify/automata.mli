(** Temporal safety automata over the protocol alphabet.

    Each automaton is a small labeled transition system encoding one
    invariant of the Flicker session protocol (paper Sections 4–6). The
    same automata serve two backends: the trace-conformance checker runs
    them over recorded {!Event.t} streams, and the model checker runs
    them in lockstep with the abstract session model, so a property is
    written once and checked both dynamically and exhaustively.

    An automaton is a {e safety} property: it either accepts an event
    (possibly changing state) or rejects it with a message; there are no
    accepting states to reach. Rejection means the finite prefix seen so
    far already violates the invariant. *)

type t
(** An automaton definition (immutable; shared between runs). *)

val name : t -> string
(** Short kebab-case identifier, e.g. ["cap-before-resume"]. *)

val property : t -> string
(** One-sentence statement of the invariant. *)

val paper : t -> string
(** The paper section the invariant comes from, e.g. ["§4.3"]. *)

type instance
(** A running automaton: definition plus current state. *)

val start : t -> instance

val feed : instance -> Event.t -> (instance, string) result
(** Advance by one event. [Error msg] means the event violates the
    invariant; the instance is consumed either way (restart with
    {!start} to keep scanning past a violation). A step that leaves the
    state physically unchanged returns the same instance. *)

val equal : instance -> instance -> bool
(** Same automaton and structurally equal state. Each automaton keeps
    its state canonical (sorted lists, no closures), so equal instances
    react alike to every later event. Instances of different automata
    are never equal. *)

val hash : instance -> int
(** Hash of the instance's state; equal instances hash alike. *)

(** {1 The shipped invariants} *)

val cap_before_resume : t
(** PCR 17 must be extended with the cap value before the OS resumes
    after a late launch (§4.3: prevents the resumed OS from extending
    PCR 17 into a state that attests a PAL still running). *)

val dev_covers_slb : t
(** The DEV must protect the SLB window before the SKINIT measurement
    and must not be dropped until the window has been zeroized (§2.2,
    §5.1: no device may read secrets or patch measured code). *)

val zeroize_before_exit : t
(** The SLB window must be zeroized before the OS resumes (§4.3:
    no PAL secrets survive into the untrusted OS). *)

val extend_order : t
(** Session-labeled PCR 17 extends follow the discipline
    reset, measure+, stub?, inputs, outputs, nonce?, cap — with
    application ([software]) extends permitted anywhere before the cap
    (§4.2–4.3, §5.2). *)

val nv_monotonic : t
(** Monotonic counters strictly increase and 4-byte NV counter values
    strictly advance on every write — a rollback {e or} a same-value
    rewrite is the signature of a replayed blob being persisted (§4.4's
    replay protection for PAL state). *)

val fresh_nv_on_launch : t
(** A launch that re-writes an existing NV counter must read that index
    first in the same launch: no freshness check is possible without a
    fresh read, so a reseal without one cannot have compared the sealed
    blob's counter against NV (§4.4). First-time writes (provisioning)
    and out-of-launch writes are exempt. *)

val no_unchecked_dma : t
(** While a PAL session is live, no DMA may reach the SLB window
    un-denied (§2.2: the DEV is the only thing standing between devices
    and PAL secrets). *)

val suspend_before_launch : t
(** A late launch is only legal while the OS is suspended (§4.1: the
    kernel module quiesces the OS before invoking SKINIT). *)

val all : t list
(** The eight automata above, in a stable order. *)
