(** What the fleet actually runs when a batch of requests reaches a
    platform.

    A workload owns the PAL(s) involved and any per-platform server state
    (a CA's sealed key, for instance). [prepare] runs once per platform
    when the fleet is built; [run_batch] turns a batch of requests into
    positional per-request results, paying the per-session overhead
    (SKINIT, TPM commands, OS suspension) as few times as it can manage.
    Implementations run their sessions through
    {!Flicker_core.Session.call}, which rides out a transient
    [Os_busy]. *)

type t = {
  name : string;
  prepare : Flicker_core.Platform.t -> int -> unit;
      (** called once per platform at fleet construction with the
          platform and its fleet index *)
  run_batch :
    Flicker_core.Platform.t ->
    Request.t list ->
    (string, string) result list;
      (** must return exactly one result per request, in order *)
}

val echo : ?work_ms:float -> unit -> t
(** A minimal PAL that charges [work_ms] (default 1 ms) of simulated
    compute per request and echoes each payload back, the whole batch in
    one Flicker session. The fleet tests' and microbenchmarks' workhorse:
    its cost model is transparent, so queueing and batching effects can
    be predicted exactly. *)

val echo_pal : Flicker_slb.Pal.t
(** The PAL behind {!echo}. Its inputs are the input page of
    {!echo_session}; its output encodes ["echo:" ^ payload] for each
    payload, in order. *)

val echo_session :
  Flicker_core.Platform.t ->
  ?nonce:string Lazy.t ->
  work_ms:float ->
  string list ->
  (string * string * string list, string) result
(** [echo_session platform ?nonce ~work_ms payloads] runs one {!echo_pal}
    session through {!Flicker_core.Session.call} that echoes [payloads]
    at [work_ms] each. It returns the session's input page, its output
    page and one echo per payload, in order. An input page over 4 KB
    fails before any session, and [nonce] is forced only once the page
    fits. *)

val echo_chunks : payload:('a -> string) -> 'a list -> 'a list list
(** Split [items], in order, into chunks whose {!echo_session} input
    and output pages each fit 4 KB; [payload] reads an item's
    payload. *)

val ca :
  ?key_bits:int ->
  ?issuer:string ->
  Flicker_apps.Cert_authority.policy ->
  t
(** The paper's certificate authority (Section 6.3.2) as a fleet
    workload: each platform runs a CA replica whose signing key is
    generated inside a Flicker session on that machine and sealed to its
    TPM. Request payloads are {!ca_csr_payload}-encoded CSRs; a batch is
    signed by {!Flicker_apps.Cert_authority.sign_batch}, so the dominant
    ~898 ms unseal is paid once per session instead of once per CSR.
    [key_bits] defaults to 512 (tests and benches; the simulated
    latencies follow the calibrated model either way). *)

val ca_csr_payload :
  subject:string -> subject_key:Flicker_crypto.Rsa.public -> string
(** Encode a CSR as a fleet request payload. *)

val decode_ca_output :
  string ->
  ( Flicker_apps.Cert_authority.certificate * Flicker_crypto.Rsa.public,
    string )
  result
(** Decode a completed CA request's output back into the certificate and
    the issuing replica's public key (each platform's replica has its
    own TPM-sealed key), ready for
    {!Flicker_apps.Cert_authority.verify_certificate}. *)
