(** Block devices (hard drive, CD-ROM, USB flash).

    Section 7.5 measures whether repeated Flicker sessions corrupt
    in-flight block transfers: the paper copies large files between
    devices while an 8.3 s PAL runs repeatedly and checks integrity with
    md5sum. The simulated devices transfer in chunks at a fixed rate;
    chunks issued while the OS is suspended are buffered by the device
    and complete after resume, which is why integrity holds. *)

type t

type driver =
  | Legacy
      (** in-flight requests time out if the OS stays unresponsive too
          long (a SCSI-style command timeout) *)
  | Flicker_aware
      (** the Section 7.5 proposal: the driver quiesces the device before
          a session, so no request is in flight while the OS is frozen *)

val create : name:string -> rate_kb_per_ms:float -> t
val store : t -> file:string -> string -> unit
val md5sum : t -> file:string -> (string, string) result

val transfer :
  Flicker_hw.Machine.t ->
  scheduler:Scheduler.t ->
  src:t ->
  dst:t ->
  file:string ->
  ?chunk_kb:int ->
  ?between_chunks:(unit -> unit) ->
  ?driver:driver ->
  unit ->
  (float, string) result
(** Copy [file] from [src] to [dst], advancing the clock at the slower
    device's rate. [between_chunks] is a hook the experiment uses to
    interleave Flicker sessions with the copy. Returns the wall-clock
    milliseconds the copy took.

    With a [Legacy] driver (the default), a chunk left in flight while
    the OS is unresponsive for more than 30 000 ms (a typical SCSI
    command timeout) aborts the copy with an I/O error — the risk
    Section 7.5 identifies for very long sessions. A [Flicker_aware]
    driver quiesces the device first and never times out. The paper's
    8.3 s sessions are safely below that timeout either way, matching
    its observation of zero errors.

    Issuing a chunk while the OS is suspended fails the copy with an I/O
    error: the driver cannot run mid-session, and the device must never
    resume the OS itself (the running session caps PCR 17, zeroizes, and
    resumes in that order — a device-initiated resume would violate the
    cap-before-resume invariant the protocol verifier checks). *)
