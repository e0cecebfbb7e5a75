(* One reported number, and the statistics the benchmark summarizes
   samples with. *)

module Json = Flicker_obs.Json

(* [Sim] numbers are a pure function of the seed (simulated time,
   operation counts, verdicts) and must repeat exactly; [Host] numbers
   are host measurements and vary run to run. *)
type kind = Host | Sim

type t = {
  name : string;
  value : float;
  unit_ : string;
  kind : kind;
  q1 : float option;  (* spread of the samples behind [value], if any *)
  q3 : float option;
  n : int option;  (* sample count behind [value], if it is a statistic *)
}

let host ?q1 ?q3 ?n name unit_ value = { name; value; unit_; kind = Host; q1; q3; n }
let sim ?n name unit_ value = { name; value; unit_; kind = Sim; q1 = None; q3 = None; n }

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* first and third quartiles by the "exclusive" method of Python's
   statistics.quantiles(n=4), so they match what an outside script
   computes from the same samples; a single sample is its own spread *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let ld = Array.length a in
  if ld = 0 then (0.0, 0.0)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* median of host samples, with their quartiles and count alongside *)
let host_samples name unit_ xs =
  let q1, q3 = quartiles xs in
  host ~q1 ~q3 ~n:(List.length xs) name unit_ (median xs)

(* nearest-rank percentile over unsorted samples, the estimator the
   fleet's own summary uses *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  Flicker_service.Fleet.percentile a p

let ratio a b = if b = 0.0 then 0.0 else a /. b

let kind_name = function Host -> "host" | Sim -> "sim"

let to_json m =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  Json.Obj
    ([
       ("name", Json.String m.name);
       ("value", Json.Float m.value);
       ("unit", Json.String m.unit_);
       ("kind", Json.String (kind_name m.kind));
     ]
    @ opt "q1" (fun v -> Json.Float v) m.q1
    @ opt "q3" (fun v -> Json.Float v) m.q3
    @ opt "n" (fun v -> Json.Int v) m.n)

let of_json j =
  let str k = match Json.member k j with Some (Json.String s) -> s | _ -> "" in
  let num k = Option.bind (Json.member k j) Json.to_float in
  {
    name = str "name";
    value = Option.value (num "value") ~default:nan;
    unit_ = str "unit";
    kind = (if str "kind" = "sim" then Sim else Host);
    q1 = num "q1";
    q3 = num "q3";
    n = Option.map int_of_float (num "n");
  }

(* the 12 significant digits Json writes, so a printed value and its
   JSON form agree and exact comparisons see the same digits *)
let pp_value v = Printf.sprintf "%.12g" v

let pp_line ~workload m =
  let extra =
    match (m.q1, m.q3, m.n) with
    | Some q1, Some q3, Some n -> Printf.sprintf " (q1 %s q3 %s n %d)" (pp_value q1) (pp_value q3) n
    | _, _, Some n -> Printf.sprintf " (n %d)" n
    | _ -> ""
  in
  Printf.sprintf "%s %s %s %s%s" workload m.name (pp_value m.value) m.unit_ extra
