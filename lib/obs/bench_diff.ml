(* Record-by-record comparison of two bench JSON artifacts — the perf
   trajectory's regression gate.

   A bench artifact is a JSON array of flat records, each carrying an
   "artifact" and a "label" plus metric fields (the format `bench --json`
   emits). Everything the simulator computes is deterministic, so every
   field is required to be *identical* between a committed baseline and a
   regenerated run — except fields that measure host wall-clock time
   (named with "wall"), which are inherently noisy: drift beyond a
   relative band only warns. *)

type value = Json.t

(* identity of one record: artifact + label, plus an occurrence index so
   artifacts that legitimately repeat a label still pair up in order *)
let record_id ~artifact ~label ~occurrence =
  if occurrence = 0 then artifact ^ "/" ^ label
  else Printf.sprintf "%s/%s#%d" artifact label occurrence

let is_wall_field name =
  let n = String.length name and w = "wall" in
  let rec go i =
    i + 4 <= n && (String.sub name i 4 = w || go (i + 1))
  in
  go 0

type field_diff = {
  record : string;
  field : string;
  old_value : value;
  new_value : value;
  drift_pct : float option;
      (* relative drift for numeric wall-clock fields, None otherwise *)
}

type report = {
  records_compared : int;
  fields_identical : int;
  missing : string list;  (* baseline records absent from the new run *)
  extra : string list;  (* new-run records absent from the baseline *)
  new_artifacts : (string * int) list;
      (* artifacts with no baseline record at all: (name, record count).
         Their records are reported here, not as [extra] — the fix is
         committing a baseline, not hunting for schema drift *)
  regressions : field_diff list;  (* simulated metrics that changed *)
  wall_within : int;  (* wall-clock fields inside the tolerance band *)
  wall_drift : field_diff list;  (* wall-clock fields beyond it *)
}

let clean r =
  r.missing = [] && r.extra = [] && r.new_artifacts = [] && r.regressions = []

let str_field fields name =
  match List.assoc_opt name fields with
  | Some (Json.String s) -> Some s
  | _ -> None

let rows_of_json = function
  | Json.List rows ->
      let tag i = function
        | Json.Obj fields -> (
            match (str_field fields "artifact", str_field fields "label") with
            | Some artifact, Some label -> Ok (artifact, label, fields)
            | _ ->
                Error
                  (Printf.sprintf "record %d lacks artifact/label string fields" i))
        | _ -> Error (Printf.sprintf "record %d is not an object" i)
      in
      List.mapi tag rows
      |> List.fold_left
           (fun acc r ->
             match (acc, r) with
             | Error e, _ | _, Error e -> Error e
             | Ok rows, Ok row -> Ok (row :: rows))
           (Ok [])
      |> Result.map List.rev
  | _ -> Error "bench artifact must be a JSON array of records"

(* assign occurrence indices so duplicate (artifact, label) pairs keep a
   stable identity in emission order *)
let identify rows =
  let seen = Hashtbl.create 64 in
  List.map
    (fun (artifact, label, fields) ->
      let key = (artifact, label) in
      let occurrence =
        match Hashtbl.find_opt seen key with Some n -> n | None -> 0
      in
      Hashtbl.replace seen key (occurrence + 1);
      (record_id ~artifact ~label ~occurrence, fields))
    rows

let float_of = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let drift_pct old_v new_v =
  match (float_of old_v, float_of new_v) with
  | Some o, Some n ->
      let base = Float.max (Float.abs o) 1e-9 in
      Some (Float.abs (n -. o) /. base *. 100.0)
  | _ -> None

(* the relative drift a wall-clock field may show before it warns;
   simulated metrics always require exact equality *)
let wall_tolerance_pct = 25.0

let compare ~baseline ~current =
  match (rows_of_json baseline, rows_of_json current) with
  | Error e, _ -> Error ("baseline: " ^ e)
  | _, Error e -> Error ("current: " ^ e)
  | Ok old_rows, Ok new_rows ->
      let old_tagged = identify old_rows and new_tagged = identify new_rows in
      let new_tbl = Hashtbl.create 64 in
      List.iter (fun (id, fields) -> Hashtbl.replace new_tbl id fields) new_tagged;
      let old_ids = List.map fst old_tagged in
      let missing =
        List.filter (fun id -> not (Hashtbl.mem new_tbl id)) old_ids
      in
      (* an artifact with no baseline record at all is a different
         failure than schema drift within a known artifact: the fix is
         to commit its baseline, so report it separately *)
      let baseline_artifacts = Hashtbl.create 8 in
      List.iter
        (fun (artifact, _, _) -> Hashtbl.replace baseline_artifacts artifact ())
        old_rows;
      let new_artifacts =
        let order = ref [] and counts = Hashtbl.create 8 in
        List.iter
          (fun (artifact, _, _) ->
            if not (Hashtbl.mem baseline_artifacts artifact) then begin
              if not (Hashtbl.mem counts artifact) then
                order := artifact :: !order;
              Hashtbl.replace counts artifact
                (1
                + Option.value ~default:0 (Hashtbl.find_opt counts artifact))
            end)
          new_rows;
        List.rev_map (fun a -> (a, Hashtbl.find counts a)) !order
      in
      let extra =
        let old_set = Hashtbl.create 64 in
        List.iter (fun id -> Hashtbl.replace old_set id ()) old_ids;
        List.filter_map
          (fun ((artifact, _, _), (id, _)) ->
            if Hashtbl.mem old_set id || List.mem_assoc artifact new_artifacts
            then None
            else Some id)
          (List.combine new_rows new_tagged)
      in
      let records_compared = ref 0 in
      let fields_identical = ref 0 in
      let wall_within = ref 0 in
      let regressions = ref [] in
      let wall_drift = ref [] in
      List.iter
        (fun (id, old_fields) ->
          match Hashtbl.find_opt new_tbl id with
          | None -> ()
          | Some new_fields ->
              incr records_compared;
              let old_keys = List.map fst old_fields in
              let new_keys = List.map fst new_fields in
              (* a changed field *set* is a schema regression on both
                 sides: a dropped metric and an unbaselined one alike *)
              List.iter
                (fun k ->
                  if not (List.mem k new_keys) then
                    regressions :=
                      {
                        record = id;
                        field = k;
                        old_value = List.assoc k old_fields;
                        new_value = Json.Null;
                        drift_pct = None;
                      }
                      :: !regressions)
                old_keys;
              List.iter
                (fun k ->
                  if not (List.mem k old_keys) then
                    regressions :=
                      {
                        record = id;
                        field = k;
                        old_value = Json.Null;
                        new_value = List.assoc k new_fields;
                        drift_pct = None;
                      }
                      :: !regressions)
                new_keys;
              List.iter
                (fun (k, old_v) ->
                  match List.assoc_opt k new_fields with
                  | None -> ()
                  | Some new_v ->
                      if is_wall_field k then begin
                        match drift_pct old_v new_v with
                        | Some d when d > wall_tolerance_pct ->
                            wall_drift :=
                              {
                                record = id;
                                field = k;
                                old_value = old_v;
                                new_value = new_v;
                                drift_pct = Some d;
                              }
                              :: !wall_drift
                        | _ -> incr wall_within
                      end
                      else if old_v = new_v then incr fields_identical
                      else
                        regressions :=
                          {
                            record = id;
                            field = k;
                            old_value = old_v;
                            new_value = new_v;
                            drift_pct = drift_pct old_v new_v;
                          }
                          :: !regressions)
                old_fields)
        old_tagged;
      Ok
        {
          records_compared = !records_compared;
          fields_identical = !fields_identical;
          missing;
          extra;
          new_artifacts;
          regressions = List.rev !regressions;
          wall_within = !wall_within;
          wall_drift = List.rev !wall_drift;
        }

let pp_value v = Json.to_string v

let render r =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "%d record(s) compared: %d simulated field(s) identical, %d wall-clock field(s) in band\n"
    r.records_compared r.fields_identical r.wall_within;
  List.iter (fun id -> add "MISSING in new run: %s\n" id) r.missing;
  List.iter (fun id -> add "EXTRA in new run (not in baseline): %s\n" id) r.extra;
  List.iter
    (fun (artifact, n) ->
      add
        "NEW ARTIFACT %S: %d record(s) with no baseline at all — this is an \
         unbaselined artifact, not schema drift; regenerate and commit its \
         BENCH_%s.json baseline\n"
        artifact n artifact)
    r.new_artifacts;
  List.iter
    (fun d ->
      add "REGRESSION %s %s: %s -> %s\n" d.record d.field (pp_value d.old_value)
        (pp_value d.new_value))
    r.regressions;
  List.iter
    (fun d ->
      add "warning: wall-clock drift %s %s: %s -> %s (%.1f%%)\n" d.record d.field
        (pp_value d.old_value) (pp_value d.new_value)
        (Option.value d.drift_pct ~default:0.0))
    r.wall_drift;
  add "bench diff: %s\n" (if clean r then "OK" else "REGRESSION");
  Buffer.contents b
