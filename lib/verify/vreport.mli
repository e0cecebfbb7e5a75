(** SARIF runs for the temporal verifier, built on
    {!Flicker_obs.Sarif} like the static analyzer's
    ({!Flicker_analysis.Report}): each run carries the tool driver with
    rule descriptors (each naming its paper section), the results, and
    a property bag with the run's headline numbers. Conformance checks
    and model-checking runs each become one SARIF run;
    {!Flicker_obs.Sarif.document} wraps them. *)

val conformance_run :
  subject:string -> Checker.report -> Flicker_obs.Json.t
(** One SARIF run for a trace-conformance check of [subject] (a
    workload or session name). Properties carry [events_checked] and
    [violations]. *)

val mc_run :
  ?adversary:Adversary.config ->
  ?sessions:int ->
  Model.variant ->
  expected_violation:bool ->
  Mc.result ->
  Flicker_obs.Json.t
(** One SARIF run for a model-checking pass. [expected_violation] marks
    the deliberately broken variants: for those, a found counterexample
    is reported at level ["note"] (the check {e passing}) and a missed
    one as an ["error"]. [adversary] and [sessions] (defaults: DMA-only,
    one session) are recorded in the property bag alongside the search
    statistics, POR flag and counterexample length. *)

val mc_missed_violation : Mc.result -> expected_violation:bool -> bool
(** True when a broken variant was NOT caught, a good variant was
    flagged, or a good variant's search was truncated (a cut-off search
    verifies nothing) — the gate condition for CI. *)
