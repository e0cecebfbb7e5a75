(** Pluggable adversary models for the model checker.

    PR 4's checker hard-coded one adversary: a device firing DMA probes
    at the SLB window. This module generalizes it to four budgeted
    models, schedulable between any two session blocks (drawn from the
    attacker models of Bursuc, Johansen & Xu, "Automated verification of
    dynamic root of trust protocols"):

    - {b Dma}: a malicious device probing the SLB window (read and
      write) over the bus; the DEV decides whether the probe is denied.
    - {b Reset}: a platform power cycle mid-protocol. Volatile machine
      state — DEV coverage, OS suspension, RAM — is lost; NV storage and
      monotonic counters persist; the PCRs reboot.
    - {b Replay}: corrupt OS software that records the sealed blob / NV
      snapshot at rest during one session and re-presents it to a later
      session (requires the two-session model).
    - {b Corrupt_os}: a corrupt-OS message injector that drops,
      duplicates or swaps the input/output messages crossing the
      untrusted OS, and forges software PCR-17 extends from OS context.

    The adversary module is deliberately ignorant of the machine
    representation: it sees a {!view}, emits protocol {!Event.t}s, and
    names a machine-level {!effect} the {!Model} applies. *)

type kind = Dma | Reset | Replay | Corrupt_os

val all_kinds : kind list
val kind_name : kind -> string
(** ["dma"], ["reset"], ["replay"], ["corrupt-os"]. *)

val kind_of_name : string -> kind option

type config = {
  kinds : kind list;  (** active models; composable *)
  dma_probes : int;
  resets : int;
  replay_records : int;
  replay_injects : int;
  os_injections : int;
}

val default : config
(** PR-4 behavior: DMA only, two probes. *)

val of_kinds : kind list -> config
(** Default budgets with the given models active. *)

val none : config
(** No adversary at all: pure session exploration. *)

val name : config -> string
(** ["dma"], ["dma+replay"], ... ["none"]. *)

val active : config -> kind -> bool

type budgets = {
  probes : int;
  resets : int;
  records : int;
  injects : int;
  os_injs : int;
}
(** Remaining budgets — the dynamic adversary state carried in each
    model-checker state (and its dedup key). *)

val budgets_of : config -> budgets

type view = {
  dev_up : bool;
  suspended : bool;
  at_end : bool;
  blob : int;
  recorded : int option;
  slb_addr : int;
  probe_len : int;
  denies : bool;
}

type effect = Spend_probe | Do_reset | Do_record | Do_inject | Spend_os

type action = {
  act_label : string;
  act_events : Event.t list;
  act_effect : effect;
}

val spend : budgets -> effect -> budgets

val actions : budgets -> view -> action list
(** Every adversary action enabled right now. *)
