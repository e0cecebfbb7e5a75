(** The protocol event alphabet.

    Every security-relevant state change in the simulator — late launch,
    DEV updates, PCR extends, NV traffic, OS suspend/resume, DMA
    attempts, memory zeroization — is one of these events. The emitters
    construct it and hand it to {!Flicker_hw.Machine.protocol_event},
    which records it with {!record} as an instant under the ["protocol"]
    trace category (read back named by {!name}, with {!args}) and feeds
    it to the machine's
    {!Checker} when one is attached. The model checker generates the
    same alphabet directly from the abstract session model, so both
    verification layers check exactly what the simulator emits. *)

(** How a PCR extend is labeled by its call site. The Flicker session
    discipline (paper Sections 4–5) extends PCR 17 in a fixed order:
    the SKINIT measurement ([Measure], hardware-initiated), optionally
    the untrusted stub ([Stub]), then inputs, outputs, an optional
    nonce, and finally the cap that closes the session. [Software] is
    any extend outside the session discipline (PAL application code,
    tests). *)
type pcr_kind = Measure | Stub | Input | Output | Nonce | Cap | Software

val pcr_kind_to_string : pcr_kind -> string
(** The label a trace records: ["measure"], ["stub"], ["input"],
    ["output"], ["nonce"], ["cap"] or ["software"]. *)

(** The late-launch technology: AMD SVM's SKINIT, or Intel TXT's
    GETSEC[SENTER]. *)
type tech = Svm | Txt

type t =
  | Session_begin of string  (** PAL name; emitted by [Session.execute] *)
  | Session_end
  | Os_suspend
  | Os_resume
  | Skinit_begin of tech  (** recorded as ["svm"] or ["txt"] *)
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

val name : t -> string
(** The trace record's name: ["session.begin"], ["pcr.extend"],
    ["dma.attempt"], and so on, one per constructor. *)

val args : t -> (string * Flicker_obs.Tracer.arg) list
(** The trace record's arguments, one per field, in declaration order;
    a PCR kind is recorded by {!pcr_kind_to_string}. *)

val record : Flicker_obs.Tracer.t -> ?device:string -> ?value:string -> t -> unit
(** Record the event as an instant under the ["protocol"] category, as
    scalars: its constructor and int fields packed into the slot's code
    word and int, its string field (PAL, [what]) or [device] kept as is,
    and [value]'s first 4 bytes as an int. Nothing else is stored; on
    read the slot renders back as {!name}, and {!args} with [device]
    first and [value] last as 8 lowercase hex digits. [device] annotates
    only a [Dma_attempt] and [value] (at least 4 bytes) only a
    [Pcr_extend]; a second int field (a length, a counter value) must fit
    in 53 bits. [Invalid_argument] otherwise. *)
