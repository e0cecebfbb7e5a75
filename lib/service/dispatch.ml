type policy = Round_robin | Least_loaded | Sealed_affinity

let policy_name = function
  | Round_robin -> "round-robin"
  | Least_loaded -> "least-loaded"
  | Sealed_affinity -> "sealed-affinity"

let all_policies =
  [
    ("round-robin", Round_robin);
    ("least-loaded", Least_loaded);
    ("sealed-affinity", Sealed_affinity);
  ]

type load = { queued : int; busy : bool; available : bool }

(* FNV-1a, so affinity routing does not depend on OCaml's Hashtbl.hash
   implementation details *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0x3fffffff)
    s;
  !h

let effective_load l = l.queued + if l.busy then 1 else 0

(* least-loaded among the available platforms; None when every member is
   down or shedding *)
let least_loaded loads =
  let best = ref (-1) in
  Array.iteri
    (fun i l ->
      if
        l.available
        && (!best < 0 || effective_load l < effective_load loads.(!best))
      then best := i)
    loads;
  if !best < 0 then None else Some !best

let affinity_target ~client ~total =
  if total < 1 then invalid_arg "Dispatch.affinity_target: empty fleet";
  fnv1a client mod total

let select ~gstart ~gtotal policy ~cursor ~request loads =
  let n = Array.length loads in
  if n = 0 then invalid_arg "Dispatch.select: empty fleet";
  (* [loads] is one shard's window [gstart, gstart + n) into a fleet of
     [gtotal] platforms. Placement that must be stable fleet-wide
     (homes, the affinity hash) is computed over global indices and
     translated. The returned index is always local to [loads]. *)
  match request.Request.home with
  | Some h ->
      if h < 0 || h >= gtotal then
        invalid_arg
          (Printf.sprintf "Dispatch.select: home platform %d outside fleet of %d" h
             gtotal);
      let l = h - gstart in
      (* a home is a hard constraint: when it is unavailable the request
         must fail explicitly, never silently reroute — its sealed state
         exists nowhere else. A home outside this shard's window is a
         routing bug upstream; treat it as unavailable here. *)
      if l >= 0 && l < n && loads.(l).available then Some l else None
  | None -> (
      match policy with
      | Round_robin ->
          let rec scan k =
            if k = n then None
            else
              let i = (!cursor + k) mod n in
              if loads.(i).available then begin
                cursor := (i + 1) mod n;
                Some i
              end
              else scan (k + 1)
          in
          scan 0
      | Least_loaded -> least_loaded loads
      | Sealed_affinity -> (
          match request.Request.client with
          | Some c ->
              let l = (fnv1a c mod gtotal) - gstart in
              (* affinity is soft: a down (or off-shard) affinity target
                 falls back to least-loaded (fresh sealed state will grow
                 there) *)
              if l >= 0 && l < n && loads.(l).available then Some l
              else least_loaded loads
          | None -> least_loaded loads))
