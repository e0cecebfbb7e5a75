(** Abstract session model for the model checker.

    A small-step composition of three components, each abstracted to
    just the state the protocol automata observe:

    - the {e session program}: the fixed sequence of protocol actions a
      Flicker session performs (suspend, late launch, PAL work, zeroize,
      extends, resume), as atomic blocks — SKINIT's protect + reset +
      measure is one hardware instruction and cannot be interleaved.
      There is one good session, built from the parameters
      [Session.execute] takes (launch technology, the Optimized flavor's
      stub extend, the optional nonce), the window and input-page
      geometry and the PAL's own blocks; {!session_events} lists its
      events. The model runs it as an SVM launch with stub and nonce,
      over a 64 KB window with the 4 KB input page right after it, as
      [Layout] places them, and a PAL that keeps an NV counter. With
      [sessions > 1] the program runs back-to-back sessions over the
      same persistent NV state, which is what gives the replay adversary
      something to replay;
    - the {e machine}: DEV coverage, OS suspension, the monotonic
      counter, NV counter, sealed-blob binding and the adversary's
      recorded snapshot (enough to compute whether a DMA is denied and
      what a counter write contains);
    - the {e adversary}: an {!Adversary.config} of budgeted models
      (DMA probes, platform resets, NV/blob replay, corrupt-OS message
      tampering), schedulable between any two session blocks.

    Variants plant specific protocol bugs so the model checker can be
    shown to catch real violations, not just bless correct code. Each
    planted variant is the good session with at most three edits by
    block label (drop, swap, move after, insert before), or the good
    session with another PAL ([Reseal_without_counter_check]);
    [Trust_state_across_reset] runs the good session unchanged, its bug
    being where a reset sends it.

    Every transition also carries a {!footprint} — the machine variables
    it reads and writes, and whether any automaton can observe its
    events — which is what the model checker's partial-order reduction
    uses to decide which interleavings commute. *)

type variant =
  | Good  (** the shipped session discipline; must verify *)
  | Resume_before_cap
      (** resumes the OS before extending the cap — breaks
          [cap-before-resume] *)
  | Clear_dev_early
      (** clears the DEV right after PAL work, before zeroize — breaks
          [dev-covers-slb] and opens a DMA window *)
  | Skip_zeroize
      (** skips the cleanup wipe — breaks [zeroize-before-exit] *)
  | Nv_rollback
      (** rewrites the NV counter from a stale snapshot — breaks
          [nv-monotonic] *)
  | Launch_unsuspended
      (** invokes SKINIT without suspending the OS — breaks
          [suspend-before-launch] *)
  | Out_of_order_extends
      (** extends outputs before inputs — breaks [extend-order] *)
  | Reseal_without_counter_check
      (** the PAL reseals its state with the {e blob's} counter + 1,
          never comparing it against NV — only the replay adversary
          re-presenting a stale blob across two sessions exposes it
          (breaks [nv-monotonic]'s no-rewrite clause, §4.4) *)
  | Trust_state_across_reset
      (** after a platform reset the session keeps executing where it
          left off, as if volatile trust state survived the power
          cycle — only the reset adversary exposes it (the post-reset
          extend lands outside any launch, breaking [extend-order]) *)

val variant_name : variant -> string
val all_variants : variant list

val broken_variants : variant list
(** Every variant except [Good]. *)

val requires : variant -> Adversary.kind option
(** The adversary model a planted bug needs before it manifests;
    [None] for bugs in the session's own ordering (any adversary, or
    none, exposes those). *)

val default_sessions : variant -> int
(** Sessions the variant is meant to be checked with: 2 where replay
    matters, 1 otherwise. *)

val intended_adversary : variant -> Adversary.config * int
(** The (adversary, sessions) pair the variant is designed to be
    checked under: the minimal configuration that exposes its bug, or,
    for [Good], all four models composed over two sessions. *)

val session_events :
  name:string ->
  tech:Event.tech ->
  stub:bool ->
  nonce:bool ->
  window:int * int ->
  input_page:int * int ->
  Event.t list ->
  Event.t list
(** [session_events ~name ~tech ~stub ~nonce ~window ~input_page pal]:
    the good session's protocol events for a session of the PAL [name]
    launched with [tech], with the stub extend when [stub] and the nonce
    extend when [nonce], over the [window] and [input_page] (address,
    length), and with [pal] in the PAL slot. A TXT launch extends PCR 17
    twice with [Measure]: the SINIT ACM, then the SLB. *)

type state
(** A program counter, the adversary's remaining budgets and the
    machine, plus the run's static part (the variant and its flattened
    session program), which every state of one run shares. *)

val initial : ?adversary:Adversary.config -> ?sessions:int -> variant -> state
(** [adversary] defaults to {!Adversary.default} (DMA only, two
    probes); [sessions] defaults to {!default_sessions}. *)

val equal : state -> state -> bool
(** Equality of the dynamic part: pc, budgets and machine. The static
    part is the same for every state of one run and is not compared. *)

val hash : state -> int
(** Hash of the dynamic part; equal states hash alike. *)

type footprint
(** Read/write sets over machine variables plus event visibility. *)

val independent : footprint -> footprint -> bool
(** No write-write or write-read overlap: the transitions commute. *)

val fp_visible : footprint -> bool
(** Whether any automaton could observe the transition's events. *)

type source = Session | Attack of Adversary.effect

type trans = {
  label : string;
  events : Event.t list;
  succ : state;
  source : source;
  fp : footprint;
}

val transitions : state -> trans list
(** Enabled actions from [state]; empty means the run is complete. At
    most one [Session] transition is ever enabled (the program is
    deterministic), and it comes first. *)
