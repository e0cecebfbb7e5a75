(* Histogram buckets are powers of two over milliseconds, starting at
   1 ns (bucket 0 holds everything <= 1e-6 ms). 64 buckets reach ~1.8e13
   ms, far beyond any simulated latency. *)
let bucket_count = 64

(* Bucket i's upper bound, 1e-6 * 2^i ms, computed once, so placing a
   sample costs only comparisons: every TPM command and completion is a
   sample. Never written after this. *)
let bucket_bounds = Array.init bucket_count (fun i -> 1e-6 *. (2.0 ** Float.of_int i))

type histo = {
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  mutable dropped : int; (* NaN / negative samples refused by [observe] *)
  buckets : int array;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  histos : (string, histo) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 32; histos = Hashtbl.create 32 }

let incr t ?(by = 1) name =
  if by < 0 then invalid_arg "Metrics.incr: counters are monotonic";
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let bucket_index v =
  let rec go i =
    if i >= bucket_count - 1 || v <= bucket_bounds.(i) then i else go (i + 1)
  in
  go 0

let observe t name v =
  let h =
    match Hashtbl.find_opt t.histos name with
    | Some h -> h
    | None ->
        let h =
          {
            count = 0;
            sum = 0.0;
            vmin = infinity;
            vmax = neg_infinity;
            dropped = 0;
            buckets = Array.make bucket_count 0;
          }
        in
        Hashtbl.replace t.histos name h;
        h
  in
  (* A NaN sample would poison [sum]/[mean] forever, fail both the
     [vmin] and [vmax] comparisons, and walk [bucket_index] to the top
     bucket; a negative duration is a caller bug. Drop either — but
     visibly, via the [dropped] count. *)
  if Float.is_nan v || v < 0.0 then h.dropped <- h.dropped + 1
  else begin
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    if v < h.vmin then h.vmin <- v;
    if v > h.vmax then h.vmax <- v;
    let i = bucket_index v in
    h.buckets.(i) <- h.buckets.(i) + 1
  end

type histogram_summary = {
  h_name : string;
  count : int;
  sum : float;
  min_v : float;
  max_v : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  dropped : int;
}

let percentile (h : histo) p =
  if h.count = 0 then 0.0
  else begin
    let rank = Float.of_int h.count *. p /. 100.0 in
    let rec go i seen =
      if i >= bucket_count then h.vmax
      else begin
        let seen = seen + h.buckets.(i) in
        if Float.of_int seen >= rank && seen > 0 then bucket_bounds.(i) else go (i + 1) seen
      end
    in
    Float.min h.vmax (Float.max h.vmin (go 0 0))
  end

let summarize name (h : histo) =
  {
    h_name = name;
    count = h.count;
    sum = h.sum;
    min_v = (if h.count = 0 then 0.0 else h.vmin);
    max_v = (if h.count = 0 then 0.0 else h.vmax);
    mean = (if h.count = 0 then 0.0 else h.sum /. Float.of_int h.count);
    p50 = percentile h 50.0;
    p90 = percentile h 90.0;
    p99 = percentile h 99.0;
    dropped = h.dropped;
  }

let histogram t name =
  Option.map (summarize name) (Hashtbl.find_opt t.histos name)

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort compare

let histograms t =
  Hashtbl.fold (fun name h acc -> summarize name h :: acc) t.histos []
  |> List.sort (fun a b -> compare a.h_name b.h_name)

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.histos

(* Order-independent by construction: counters add, histograms add
   count/sum/dropped and buckets element-wise and take min/max of the
   extrema. Merging shard registries in any order therefore yields the
   same registry — the property the sharded fleet's byte-identical
   summaries lean on (percentiles come from the merged buckets, not from
   a sample order). *)
let merge_into src ~into =
  Hashtbl.iter (fun name r -> incr into ~by:!r name) src.counters;
  Hashtbl.iter
    (fun name (h : histo) ->
      let d =
        match Hashtbl.find_opt into.histos name with
        | Some d -> d
        | None ->
            let d =
              {
                count = 0;
                sum = 0.0;
                vmin = infinity;
                vmax = neg_infinity;
                dropped = 0;
                buckets = Array.make bucket_count 0;
              }
            in
            Hashtbl.replace into.histos name d;
            d
      in
      d.count <- d.count + h.count;
      d.sum <- d.sum +. h.sum;
      if h.vmin < d.vmin then d.vmin <- h.vmin;
      if h.vmax > d.vmax then d.vmax <- h.vmax;
      d.dropped <- d.dropped + h.dropped;
      Array.iteri (fun i n -> d.buckets.(i) <- d.buckets.(i) + n) h.buckets)
    src.histos
