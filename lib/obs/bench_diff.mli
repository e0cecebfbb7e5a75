(** Record-by-record comparison of two bench JSON artifacts — the
    regression gate behind [bench diff OLD NEW].

    A bench artifact is the JSON array of flat records [bench --json]
    emits: each record carries an ["artifact"] and a ["label"] plus
    metric fields. The simulator is deterministic, so every metric field
    must be byte-identical between a committed [BENCH_*.json] baseline
    and a regenerated run; only host wall-clock fields (any field whose
    name contains ["wall"]) are inherently noisy: drift beyond a 25%
    relative band warns and never fails. *)

type value = Json.t

type field_diff = {
  record : string;  (** "artifact/label" (with "#n" on repeated labels) *)
  field : string;
  old_value : value;
  new_value : value;
  drift_pct : float option;
      (** relative drift for numeric fields, [None] otherwise *)
}

type report = {
  records_compared : int;
  fields_identical : int;
  missing : string list;  (** baseline records absent from the new run *)
  extra : string list;  (** new-run records absent from the baseline *)
  new_artifacts : (string * int) list;
      (** artifacts in the new run with no baseline record at all, as
          [(name, record count)] — distinguished from schema drift
          because the remedy differs: commit a [BENCH_<name>.json]
          baseline rather than chase a field mismatch. Their records do
          not also appear in [extra]. Still fails {!clean}. *)
  regressions : field_diff list;  (** simulated metrics that changed *)
  wall_within : int;  (** wall-clock fields inside the tolerance band *)
  wall_drift : field_diff list;  (** wall-clock fields beyond it *)
}

val compare : baseline:Json.t -> current:Json.t -> (report, string) result
(** Pair records by (artifact, label, occurrence) and compare key by
    key. A wall-clock field may drift 25% relative to the baseline
    before it lands in [wall_drift]; every other field requires exact
    equality. [Error] only on malformed input documents. *)

val clean : report -> bool
(** No missing/extra records and no simulated-metric change. Wall-clock
    drift never fails. *)

val render : report -> string
(** Human-readable report: one line per difference, warnings for
    wall-clock drift, and a final OK/REGRESSION verdict. *)
