(** The protocol event alphabet.

    Every security-relevant state change in the simulator — late launch,
    DEV updates, PCR extends, NV traffic, OS suspend/resume, DMA
    attempts, memory zeroization — is emitted as an instant trace event
    under the ["protocol"] category (see {!Flicker_hw.Machine.protocol_event}).
    This module gives those raw tracer records a typed alphabet that both
    verification layers consume: the trace-conformance checker parses
    recorded traces into it, and the model checker generates it directly
    from the abstract session model. *)

(** How a PCR extend is labeled by its call site. The Flicker session
    discipline (paper Sections 4–5) extends PCR 17 in a fixed order:
    the SKINIT measurement ([Measure], hardware-initiated), optionally
    the untrusted stub ([Stub]), then inputs, outputs, an optional
    nonce, and finally the cap that closes the session. [Software] is
    any extend outside the session discipline (PAL application code,
    tests); [Other s] preserves unknown labels. *)
type pcr_kind =
  | Measure
  | Stub
  | Input
  | Output
  | Nonce
  | Cap
  | Software
  | Other of string

val pcr_kind_to_string : pcr_kind -> string

type t =
  | Session_begin of string  (** PAL name; emitted by [Session.run] *)
  | Session_end
  | Os_suspend
  | Os_resume
  | Skinit_begin of string  (** launch technology: ["svm"] or ["txt"] *)
  | Skinit_end
  | Dev_protect of { addr : int; len : int }
  | Dev_unprotect of { addr : int; len : int }
  | Dev_clear
  | Pcr_reset  (** dynamic reset of the DRTM PCRs at late launch *)
  | Pcr_reboot
  | Pcr_extend of { index : int; kind : pcr_kind }
  | Nv_read of { index : int }
  | Nv_write of { index : int; counter : int option }
      (** [counter] is decoded when the payload is a 4-byte counter *)
  | Counter_increment of { handle : int; value : int }
  | Zeroize of { addr : int; len : int }
  | Dma_attempt of { addr : int; len : int; write : bool; denied : bool }
  | Replay_record of { counter : int }
      (** the adversary copies the sealed blob / NV snapshot currently at
          rest (its bound counter value) — pure observation *)
  | Replay_inject of { counter : int }
      (** the adversary re-presents a previously recorded blob in place
          of the current one *)
  | Os_inject of { what : string }
      (** a corrupt-OS manipulation of the input/output messages crossing
          the untrusted OS (["drop-msg"], ["dup-msg"], ["swap-msg"]) —
          invisible to the lifecycle automata by design: message
          integrity is attested via PCR 17 hashes, not lifecycle order *)

val to_string : t -> string
(** Compact one-line rendering used in counterexample traces. *)

val of_trace : Flicker_obs.Tracer.event list -> t list
(** [of_trace events] keeps the relative order of the parseable
    protocol events. *)
