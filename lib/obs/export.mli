(** Exporters for the tracer and metrics registry.

    Two formats: Chrome [trace_event] JSON (load the file in
    [chrome://tracing] or Perfetto to see the session phases, TPM
    commands, and OS suspensions on the simulated timeline) and a
    compact stats summary (text or JSON) for counters and histograms. *)

val chrome_trace_string : ?process_name:string -> Tracer.t -> string

val stats_json : ?tracer:Tracer.t -> Metrics.t -> Json.t
(** [{"counters": {...}, "histograms": [...]}], and with [tracer]
    ["trace": {"events": n, "dropped": n}]: the events its ring holds
    and the ones it evicted. *)

val stats_summary : ?tracer:Tracer.t -> Metrics.t -> string
(** Human-readable table of every counter and histogram, and with
    [tracer] the events its ring holds and the ones it evicted. *)
