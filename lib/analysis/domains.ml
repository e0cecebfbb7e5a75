module Extract = Flicker_extract.Extract

module Interval = struct
  type t = { lo : int; hi : int }

  let neg_inf = min_int
  let pos_inf = max_int
  let mk lo hi = { lo; hi }
  let top = mk neg_inf pos_inf
  let of_int n = mk n n
  let range a b = if a <= b then mk a b else mk b a
  let join a b = mk (min a.lo b.lo) (max a.hi b.hi)

  let widen old next =
    mk
      (if next.lo < old.lo then neg_inf else next.lo)
      (if next.hi > old.hi then pos_inf else next.hi)

  let contains i n = i.lo <= n && n <= i.hi
  let subset a b = b.lo <= a.lo && a.hi <= b.hi
  let equal a b = a.lo = b.lo && a.hi = b.hi
  let finite n = n <> neg_inf && n <> pos_inf

  (* saturating bound arithmetic; the _lo/_hi variants resolve an
     (-oo) + (+oo) clash toward the bound being computed, which is the
     sound direction for the endpoint formulas below *)
  let add_dir ~inf a b =
    if a = inf || b = inf then inf
    else if a = neg_inf || a = pos_inf then a
    else if b = neg_inf || b = pos_inf then b
    else
      let s = a + b in
      if a > 0 && b > 0 && s < 0 then pos_inf
      else if a < 0 && b < 0 && s >= 0 then neg_inf
      else s

  let add_lo = add_dir ~inf:neg_inf
  let add_hi = add_dir ~inf:pos_inf

  let mul_sat a b =
    if a = 0 || b = 0 then 0
    else if not (finite a) || not (finite b) then
      if a > 0 = (b > 0) then pos_inf else neg_inf
    else
      let p = a * b in
      if p / b <> a || (a = -1 && b = min_int) || (b = -1 && a = min_int) then
        if a > 0 = (b > 0) then pos_inf else neg_inf
      else p

  let div_sat x d =
    (* d <> 0 *)
    if not (finite x) then if x > 0 = (d > 0) then pos_inf else neg_inf
    else if x = min_int && d = -1 then pos_inf
    else x / d

  let hull = function
    | [] -> of_int 0
    | c :: cs ->
        List.fold_left (fun acc v -> mk (min acc.lo v) (max acc.hi v)) (mk c c) cs

  let add a b = mk (add_lo a.lo b.lo) (add_hi a.hi b.hi)

  let sub a b =
    (* negate with saturation: -(min_int) = max_int *)
    let neg n = if n = neg_inf then pos_inf else if n = pos_inf then neg_inf else -n in
    mk (add_lo a.lo (neg b.hi)) (add_hi a.hi (neg b.lo))

  let mul a b = hull [ mul_sat a.lo b.lo; mul_sat a.lo b.hi; mul_sat a.hi b.lo; mul_sat a.hi b.hi ]

  let div a b =
    let divisors =
      List.sort_uniq compare
        (List.filter (fun d -> d <> 0 && contains b d) [ b.lo; b.hi; -1; 1 ])
    in
    let cands = if contains b 0 then [ 0 ] else [] in
    let cands =
      cands @ List.concat_map (fun d -> [ div_sat a.lo d; div_sat a.hi d ]) divisors
    in
    hull cands

  let rem a b =
    (* x mod d follows the dividend's sign; |x mod d| < |d| and <= |x|;
       mod-by-zero is 0 (total semantics) *)
    let m =
      if not (finite b.lo) || not (finite b.hi) then pos_inf
      else max (abs b.lo) (abs b.hi)
    in
    if m = 0 then of_int 0
    else
      let bound = if m = pos_inf then pos_inf else m - 1 in
      let lo = if a.lo >= 0 then 0 else max (if bound = pos_inf then neg_inf else -bound) (min 0 a.lo) in
      let hi = if a.hi <= 0 then 0 else min bound (max 0 a.hi) in
      mk lo hi

  let band a b =
    let nonneg_his =
      List.filter_map (fun i -> if i.lo >= 0 then Some i.hi else None) [ a; b ]
    in
    match nonneg_his with
    | [] -> top
    | hs -> mk 0 (List.fold_left min pos_inf hs)

  let cmp_bool decide_true decide_false =
    if decide_true then of_int 1 else if decide_false then of_int 0 else mk 0 1

  let binop (op : Extract.binop) a b =
    match op with
    | Extract.Add -> add a b
    | Extract.Sub -> sub a b
    | Extract.Mul -> mul a b
    | Extract.Div -> div a b
    | Extract.Mod -> rem a b
    | Extract.Band -> band a b
    | Extract.Eq -> cmp_bool (a.lo = a.hi && b.lo = b.hi && a.lo = b.lo) (a.hi < b.lo || b.hi < a.lo)
    | Extract.Ne -> cmp_bool (a.hi < b.lo || b.hi < a.lo) (a.lo = a.hi && b.lo = b.hi && a.lo = b.lo)
    | Extract.Lt -> cmp_bool (a.hi < b.lo) (a.lo >= b.hi)
    | Extract.Le -> cmp_bool (a.hi <= b.lo) (a.lo > b.hi)

  let bound_str n =
    if n = neg_inf then "-oo" else if n = pos_inf then "+oo" else string_of_int n

  let to_string i = Printf.sprintf "[%s, %s]" (bound_str i.lo) (bound_str i.hi)
end

module Secrecy = struct
  type t = string option

  let public = None
  let join a b = match a with Some _ -> a | None -> b
  let equal (a : t) (b : t) = a = b
end

module Env = struct
  module M = Map.Make (String)

  type 'a t = 'a M.t

  let empty = M.empty
  let get ~default env k = match M.find_opt k env with Some v -> v | None -> default
  let set env k v = M.add k v env

  let merge ~f ~default a b =
    M.merge
      (fun _ va vb ->
        Some (f (Option.value va ~default) (Option.value vb ~default)))
      a b

  let equal ~eq ~default a b =
    let covers a b =
      M.for_all (fun k va -> eq va (get ~default b k)) a
    in
    covers a b && covers b a
end
