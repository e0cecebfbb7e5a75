let arg_json = function
  | Tracer.Str s -> Json.String s
  | Tracer.Num f -> Json.Float f
  | Tracer.Count i -> Json.Int i
  | Tracer.Flag b -> Json.Bool b

let ms_to_us v = v *. 1000.0

let event_json (e : Tracer.event) =
  let common =
    [
      ("name", Json.String e.Tracer.name);
      ("cat", Json.String e.Tracer.cat);
      ("ts", Json.Float (ms_to_us e.Tracer.ts));
      ("pid", Json.Int 1);
      ("tid", Json.Int 1);
    ]
  in
  let kind_fields =
    match e.Tracer.kind with
    | Tracer.Span { dur } ->
        [ ("ph", Json.String "X"); ("dur", Json.Float (ms_to_us dur)) ]
    | Tracer.Instant -> [ ("ph", Json.String "i"); ("s", Json.String "t") ]
  in
  let args =
    match e.Tracer.args with
    | [] -> []
    | args -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_json v)) args)) ]
  in
  Json.Obj (common @ kind_fields @ args)

let chrome_trace ?(process_name = "flicker-simulator") tracer =
  let name_meta =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.String process_name) ]);
      ]
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (name_meta :: List.map event_json (Tracer.events tracer)) );
      ("displayTimeUnit", Json.String "ms");
      ("droppedEventCount", Json.Int (Tracer.dropped tracer));
    ]

let chrome_trace_string ?process_name tracer =
  Json.to_string (chrome_trace ?process_name tracer)

let histogram_json (h : Metrics.histogram_summary) =
  Json.Obj
    [
      ("name", Json.String h.Metrics.h_name);
      ("count", Json.Int h.Metrics.count);
      ("sum", Json.Float h.Metrics.sum);
      ("min", Json.Float h.Metrics.min_v);
      ("max", Json.Float h.Metrics.max_v);
      ("mean", Json.Float h.Metrics.mean);
      ("p50", Json.Float h.Metrics.p50);
      ("p90", Json.Float h.Metrics.p90);
      ("p99", Json.Float h.Metrics.p99);
      ("dropped", Json.Int h.Metrics.dropped);
    ]

let stats_json ?tracer metrics =
  Json.Obj
    ([
       ( "counters",
         Json.Obj
           (List.map (fun (name, v) -> (name, Json.Int v)) (Metrics.counters metrics)) );
       ("histograms", Json.List (List.map histogram_json (Metrics.histograms metrics)));
     ]
    @
    match tracer with
    | None -> []
    | Some t ->
        [
          ( "trace",
            Json.Obj
              [ ("events", Json.Int (Tracer.length t)); ("dropped", Json.Int (Tracer.dropped t)) ]
          );
        ])

let stats_summary ?tracer metrics =
  let b = Buffer.create 512 in
  let counters = Metrics.counters metrics in
  let histograms = Metrics.histograms metrics in
  if counters <> [] then begin
    Buffer.add_string b "counters:\n";
    List.iter
      (fun (name, v) -> Buffer.add_string b (Printf.sprintf "  %-36s %12d\n" name v))
      counters
  end;
  if histograms <> [] then begin
    Buffer.add_string b "histograms (ms):\n";
    Buffer.add_string b
      (Printf.sprintf "  %-30s %8s %12s %10s %10s %10s %10s\n" "name" "count" "sum"
         "mean" "min" "max" "p99");
    List.iter
      (fun (h : Metrics.histogram_summary) ->
        Buffer.add_string b
          (Printf.sprintf "  %-30s %8d %12.3f %10.3f %10.3f %10.3f %10.3f\n"
             h.Metrics.h_name h.Metrics.count h.Metrics.sum h.Metrics.mean
             h.Metrics.min_v h.Metrics.max_v h.Metrics.p99))
      histograms
  end;
  if counters = [] && histograms = [] then Buffer.add_string b "no metrics recorded\n";
  Option.iter
    (fun t ->
      Buffer.add_string b "trace:\n";
      Buffer.add_string b (Printf.sprintf "  %-36s %12d\n" "events retained" (Tracer.length t));
      Buffer.add_string b (Printf.sprintf "  %-36s %12d\n" "events dropped" (Tracer.dropped t)))
    tracer;
  Buffer.contents b
