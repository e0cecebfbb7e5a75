(** Finding exporters: the deterministic text report (the golden-test
    format, including the proved worst-case stack line) and a
    SARIF-style JSON document with one run per PAL whose property bag
    carries the Figure 6 TCB accounting plus the abstract-interpretation
    stack bound ([worst_stack_bytes], [-1] when unbounded) and
    constant-time finding count ([ct_findings]). Both read the
    {!Rules.analysis} that {!Rules.run} returned for the target. *)

val to_text : key:string -> Rules.target -> Rules.analysis -> string

val sarif : (string * Rules.target * Rules.analysis) list -> Flicker_obs.Json.t
