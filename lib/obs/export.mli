(** Exporters for the tracer and metrics registry.

    Two formats: Chrome [trace_event] JSON (load the file in
    [chrome://tracing] or Perfetto to see the session phases, TPM
    commands, and OS suspensions on the simulated timeline) and a
    compact stats summary (text or JSON) for counters and histograms. *)

val chrome_trace_string : ?process_name:string -> Tracer.t -> string

val stats_json : Metrics.t -> Json.t
(** [{"counters": {...}, "histograms": [...]}]. *)

val stats_summary : Metrics.t -> string
(** Human-readable table of every counter and histogram. *)
