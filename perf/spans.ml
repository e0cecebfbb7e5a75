module Json = Flicker_obs.Json

type span = {
  id : int;
  parent : int;
  name : string;
  domain : int;
  start_ns : int;
  stop_ns : int;
  ids : int list;
}

type buffer = {
  domain : int;
  mutable spans : span array;
  mutable len : int;
  mutable dropped : int;
  mutable open_ids : int list;  (* innermost open span first *)
}

let capacity = 1 lsl 22
let on = Atomic.make false
let next_id = Atomic.make 1
let enable () = Atomic.set on true
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* every domain's buffer, so [collect] can find them after the joins *)
let buffers = ref []
let buffers_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          domain = (Domain.self () :> int);
          spans = [||];
          len = 0;
          dropped = 0;
          open_ids = [];
        }
      in
      Mutex.protect buffers_lock (fun () -> buffers := b :: !buffers);
      b)

let push b s =
  if b.len >= capacity then b.dropped <- b.dropped + 1
  else begin
    if b.len = Array.length b.spans then begin
      let grown = Array.make (max 1024 (2 * b.len)) s in
      Array.blit b.spans 0 grown 0 b.len;
      b.spans <- grown
    end;
    b.spans.(b.len) <- s;
    b.len <- b.len + 1
  end

let with_span ?(ids = fun () -> []) name f =
  if not (Atomic.get on) then f ()
  else begin
    let b = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match b.open_ids with p :: _ -> p | [] -> 0 in
    b.open_ids <- id :: b.open_ids;
    let ids = ids () in
    let start_ns = now_ns () in
    Fun.protect f ~finally:(fun () ->
        let stop_ns = now_ns () in
        b.open_ids <- List.tl b.open_ids;
        push b { id; parent; name; domain = b.domain; start_ns; stop_ns; ids })
  end

let collect () =
  let all = Mutex.protect buffers_lock (fun () -> !buffers) in
  let spans =
    List.concat_map (fun b -> Array.to_list (Array.sub b.spans 0 b.len)) all
  in
  let dropped = List.fold_left (fun acc b -> acc + b.dropped) 0 all in
  ( List.sort
      (fun a b -> compare (a.start_ns, a.domain, a.id) (b.start_ns, b.domain, b.id))
      spans,
    dropped )

let self_ns parent children =
  let clip c = (max c.start_ns parent.start_ns, min c.stop_ns parent.stop_ns) in
  let intervals =
    List.filter (fun (a, b) -> b > a) (List.map clip children) |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, min_int) intervals
  in
  parent.stop_ns - parent.start_ns - covered

let chrome_trace spans ~dropped =
  let t0 = match spans with s :: _ -> s.start_ns | [] -> 0 in
  let us ns = Json.Float (float_of_int ns /. 1000.0) in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("ph", Json.String "X");
        ("ts", us (s.start_ns - t0));
        ("dur", us (s.stop_ns - s.start_ns));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.domain);
        ( "args",
          Json.Obj
            [
              ("span_id", Json.Int s.id);
              ("parent_id", Json.Int s.parent);
              ("request_ids", Json.List (List.map (fun i -> Json.Int i) s.ids));
            ] );
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event spans));
      ("displayTimeUnit", Json.String "ms");
      ("droppedEventCount", Json.Int dropped);
    ]
