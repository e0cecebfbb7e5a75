(** DMA-capable devices.

    Flicker's adversary model includes malicious expansion hardware (e.g.,
    a compromised Ethernet card on the PCI bus) that can issue DMA to any
    physical address. Every access is checked against the DEV; blocked
    attempts are recorded so tests can assert both that attacks fail during
    a session and that the log shows they were attempted. *)

type t

type attempt = {
  at : float;
  device : string;
  addr : int;
  len : int;
  write : bool;
  blocked : bool;
}

val create : Machine.t -> name:string -> t

val read : t -> addr:int -> len:int -> (string, string) result
(** [Error reason] when the DEV blocks the access. *)

val write : t -> addr:int -> data:string -> (unit, string) result
val attempts : t -> attempt list
(** All accesses this device issued, oldest first. *)

val fire_storm : Machine.t -> focus:int * int -> unit
(** Consult the machine's fault injector and, if a storm fires, issue a
    burst of adversarial DMA writes from a ["chaos-dma"] device through
    the normal checked path (each attempt is logged and traced; the DEV
    denies any that touch protected pages). Even-numbered writes aim
    inside [focus] ([base, len] — typically the live SLB window) so every
    storm exercises the DEV, odd ones hit arbitrary addresses. No-op
    without an injector. *)
