(** Simulated CPU cores.

    Models the architectural state Flicker's correctness depends on:
    privilege ring, interrupt flag, paging state, segment registers, and
    the multi-core bring-up constraints of SKINIT (it must run on the Boot
    Strap Processor with every Application Processor parked in the
    INIT-received state, Section 4.2 "Suspend OS"). *)

type role = Bsp | Ap

type run_state =
  | Running  (** executing OS-scheduled work *)
  | Descheduled  (** idled via CPU hotplug, still accepting work *)
  | Wait_for_sipi  (** received INIT IPI; parked for SKINIT handshake *)

type mode =
  | Long_mode  (** normal 64-bit OS operation (paging on) *)
  | Flat_protected  (** flat 32-bit protected mode, paging off: SKINIT entry *)

type segment = { base : int; limit : int }
(** Simplified descriptor: byte-granular base and limit. *)

type core = {
  id : int;
  role : role;
  mutable run_state : run_state;
  mutable ring : int;
  mutable interrupts_enabled : bool;
  mutable mode : mode;
  mutable paging_enabled : bool;
  mutable cr3 : int;
  mutable cs : segment;
  mutable ds : segment;
  mutable ss : segment;
  mutable debug_enabled : bool;
}

type t

val create : cores:int -> t
(** Core 0 is the BSP; the rest are APs.
    @raise Invalid_argument if [cores < 1]. *)

val bsp : t -> core
val aps : t -> core list
val all : t -> core list

val flat_segment : int -> segment
(** A segment covering all of a [size]-byte memory. *)

val segment_contains : segment -> addr:int -> len:int -> bool
(** Whether an access at [addr..addr+len-1], expressed relative to the
    segment base, stays within the limit. *)

val all_aps_parked : t -> bool
(** Precondition for SKINIT on a multi-core system. *)
