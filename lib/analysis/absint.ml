module Extract = Flicker_extract.Extract
module I = Domains.Interval
module S = Domains.Secrecy
module Env = Domains.Env

(* ------------------------------------------------------------------ *)
(* Frame model                                                         *)
(* ------------------------------------------------------------------ *)

let opaque_frame_bytes = 128
let frame_base_bytes = 32
let scalar_bytes = 8

let rec iter_stmts f stmts =
  List.iter
    (fun s ->
      f s;
      match s with
      | Extract.If { then_; else_; _ } ->
          iter_stmts f then_;
          iter_stmts f else_
      | Extract.For { body; _ } -> iter_stmts f body
      | _ -> ())
    stmts

(* every Local declared anywhere in the body: name -> (elems, elem_size);
   first declaration wins, matching the slicer's shadowing rule *)
let locals_of (f : Extract.func) =
  let acc = ref [] in
  iter_stmts
    (function
      | Extract.Local { name; elems; elem_size } ->
          if not (List.mem_assoc name !acc) then
            acc := (name, (max elems 0, max elem_size 1)) :: !acc
      | _ -> ())
    f.Extract.stmts;
  List.rev !acc

let scalars_of (f : Extract.func) =
  let bufs = List.map fst (locals_of f) in
  let acc = ref [] in
  let add n = if not (List.mem n bufs) && not (List.mem n !acc) then acc := n :: !acc in
  List.iter add f.Extract.params;
  iter_stmts
    (function
      | Extract.Assign { dst; _ } -> add dst
      | Extract.Call { dst = Some d; _ } -> add d
      | Extract.For { var; _ } -> add var
      | _ -> ())
    f.Extract.stmts;
  List.rev !acc

let frame_bytes (f : Extract.func) =
  if f.Extract.stmts = [] then opaque_frame_bytes
  else
    let arrays =
      List.fold_left (fun a (_, (elems, sz)) -> a + (elems * sz)) 0 (locals_of f)
    in
    frame_base_bytes + arrays + (scalar_bytes * List.length (scalars_of f))

(* ------------------------------------------------------------------ *)
(* Whole-PAL stack bound (work-list over the acyclic reachable graph)  *)
(* ------------------------------------------------------------------ *)

type stack_bound = Bounded of int | Unbounded

let stack_pass g ~entry =
  match Callgraph.id g entry with
  | None -> (Bounded 0, [])
  | Some root ->
      if Callgraph.has_recursion_from g ~root:entry then (Unbounded, [])
      else
        let n = Callgraph.node_count g in
        let cost = Array.make n 0 in
        let callers = Array.make n [] in
        for i = 0 to n - 1 do
          List.iter
            (fun j -> callers.(j) <- i :: callers.(j))
            (Callgraph.defined_callees g i)
        done;
        let callee_cost = function
          | Callgraph.Defined j -> cost.(j)
          | Callgraph.External _ -> opaque_frame_bytes
        in
        let compute i =
          frame_bytes (Callgraph.func g i)
          + Array.fold_left (fun acc c -> max acc (callee_cost c)) 0 (Callgraph.calls g i)
        in
        let queue = Queue.create () in
        let queued = Array.make n false in
        for i = 0 to n - 1 do
          Queue.push i queue;
          queued.(i) <- true
        done;
        (* the reachable subgraph is acyclic here, so this converges; the
           step cap is a belt-and-braces guard *)
        let steps = ref (((n + 1) * (n + 2)) + 1) in
        while (not (Queue.is_empty queue)) && !steps > 0 do
          decr steps;
          let i = Queue.pop queue in
          queued.(i) <- false;
          let c = compute i in
          if c <> cost.(i) then begin
            cost.(i) <- c;
            List.iter
              (fun p ->
                if not queued.(p) then begin
                  queued.(p) <- true;
                  Queue.push p queue
                end)
              callers.(i)
          end
        done;
        (* recover the chain realizing the bound by greedy descent *)
        let rec chain i =
          let name = Callgraph.name g i in
          let best =
            Array.fold_left
              (fun acc c ->
                let v = callee_cost c in
                match acc with Some (bv, _) when bv >= v -> acc | _ -> Some (v, c))
              None (Callgraph.calls g i)
          in
          match best with
          | None -> [ name ]
          | Some (_, Callgraph.Defined j) -> name :: chain j
          | Some (_, Callgraph.External e) -> [ name; e ]
        in
        (Bounded cost.(root), chain root)

(* ------------------------------------------------------------------ *)
(* Interval pass: buffer-index ranges and OOB accesses                 *)
(* ------------------------------------------------------------------ *)

type bounds_violation = {
  in_function : string;
  buffer : string;
  size_elems : int;
  index : I.t;
  is_write : bool;
}

let interval_pass fname (f : Extract.func) ~record_violation ~record_hull =
  let bufs = locals_of f in
  let default = I.top in
  let record buf idx ~write =
    match List.assoc_opt buf bufs with
    | None -> ()
    | Some (elems, _) ->
        record_hull fname buf idx;
        if elems = 0 || not (I.subset idx (I.range 0 (elems - 1))) then
          record_violation
            { in_function = fname; buffer = buf; size_elems = elems; index = idx; is_write = write }
  in
  let rec eval env = function
    | Extract.Num n -> I.of_int n
    | Extract.Var v -> Env.get ~default env v
    | Extract.Bin (op, a, b) -> I.binop op (eval env a) (eval env b)
    | Extract.Load { buf; index } ->
        record buf (eval env index) ~write:false;
        I.top
  in
  let rec exec env stmt =
    match stmt with
    | Extract.Local _ -> env
    | Extract.Assign { dst; src } -> Env.set env dst (eval env src)
    | Extract.Store { buf; index; src } ->
        let idx = eval env index in
        ignore (eval env src);
        record buf idx ~write:true;
        env
    | Extract.Call { dst; args; _ } ->
        List.iter (fun a -> ignore (eval env a)) args;
        (match dst with Some d -> Env.set env d I.top | None -> env)
    | Extract.Return e ->
        (match e with Some e -> ignore (eval env e) | None -> ());
        env
    | Extract.If { cond; then_; else_ } ->
        ignore (eval env cond);
        let e1 = exec_list env then_ and e2 = exec_list env else_ in
        Env.merge ~f:I.join ~default e1 e2
    | Extract.For { var; lo; hi; body } ->
        let lo_i = eval env lo and hi_i = eval env hi in
        let last = I.binop Extract.Sub hi_i (I.of_int 1) in
        let env =
          if last.I.hi < lo_i.I.lo then env (* definitely empty: body never runs *)
          else
            let var_range = I.range lo_i.I.lo last.I.hi in
            let rec fix env_in k =
              let env_out = exec_list (Env.set env_in var var_range) body in
              let joined = Env.merge ~f:I.join ~default env_in env_out in
              let next =
                if k >= 2 then Env.merge ~f:I.widen ~default env_in joined else joined
              in
              if Env.equal ~eq:I.equal ~default env_in next then env_in
              else fix next (k + 1)
            in
            fix env 0
        in
        (* on exit the counter is hi (loop ran) or lo (it did not) *)
        Env.set env var (I.join lo_i hi_i)
  and exec_list env stmts = List.fold_left exec env stmts in
  ignore (exec_list Env.empty f.Extract.stmts)

(* ------------------------------------------------------------------ *)
(* Constant-time lint: taint x control dependence x memory dependence  *)
(* ------------------------------------------------------------------ *)

type ct_kind = Branch | Loop_bound | Index

let ct_kind_name = function
  | Branch -> "branch"
  | Loop_bound -> "loop bound"
  | Index -> "memory index"

type ct_violation = {
  ct_function : string;
  kind : ct_kind;
  source : string;
  detail : string;
}

let binop_name = function
  | Extract.Add -> "+"
  | Extract.Sub -> "-"
  | Extract.Mul -> "*"
  | Extract.Div -> "/"
  | Extract.Mod -> "%"
  | Extract.Band -> "&"
  | Extract.Eq -> "=="
  | Extract.Ne -> "!="
  | Extract.Lt -> "<"
  | Extract.Le -> "<="

let rec expr_str = function
  | Extract.Num n -> string_of_int n
  | Extract.Var v -> v
  | Extract.Bin (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_str a) (binop_name op) (expr_str b)
  | Extract.Load { buf; index } -> Printf.sprintf "%s[%s]" buf (expr_str index)

let ct_pass ~table g ~entry =
  let reach = Callgraph.reachable g ~root:entry in
  let func_of name =
    match Callgraph.id g name with
    | Some i -> Some (Callgraph.func g i)
    | None -> None
  in
  (* interprocedural state: per-parameter secrecy contexts (join over
     call sites, entry starts public) and return summaries *)
  let ctxs : (string, S.t array) Hashtbl.t = Hashtbl.create 16 in
  let rets : (string, S.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun name ->
      (match func_of name with
      | Some f -> Hashtbl.replace ctxs name (Array.make (List.length f.Extract.params) S.public)
      | None -> ());
      Hashtbl.replace rets name S.public)
    reach;
  let changed = ref false in
  let analyze_fn ~record fname =
    match func_of fname with
    | None -> ()
    | Some f when f.Extract.stmts = [] -> ()
    | Some f ->
        let ctx = Hashtbl.find ctxs fname in
        let env0 =
          List.fold_left
            (fun (env, k) p -> (Env.set env p ctx.(k), k + 1))
            (Env.empty, 0) f.Extract.params
          |> fst
        in
        let ret = ref S.public in
        let rec eval env bufs = function
          | Extract.Num _ -> S.public
          | Extract.Var v -> Env.get ~default:S.public env v
          | Extract.Bin (_, a, b) -> S.join (eval env bufs a) (eval env bufs b)
          | Extract.Load { buf; index } as e ->
              let is = eval env bufs index in
              (match is with
              | Some src -> record { ct_function = fname; kind = Index; source = src; detail = expr_str e }
              | None -> ());
              S.join (Env.get ~default:S.public bufs buf) is
        in
        let rec exec pc (env, bufs) stmt =
          match stmt with
          | Extract.Local { name; _ } -> (env, Env.set bufs name S.public)
          | Extract.Assign { dst; src } ->
              (Env.set env dst (S.join pc (eval env bufs src)), bufs)
          | Extract.Store { buf; index; src } ->
              let is = eval env bufs index in
              (match is with
              | Some s ->
                  record
                    {
                      ct_function = fname;
                      kind = Index;
                      source = s;
                      detail = Printf.sprintf "%s[%s]" buf (expr_str index);
                    }
              | None -> ());
              let v = S.join is (S.join pc (eval env bufs src)) in
              (env, Env.set bufs buf (S.join (Env.get ~default:S.public bufs buf) v))
          | Extract.Call { dst; callee; args } ->
              let argsec = List.map (eval env bufs) args in
              let result =
                match Effects.classify table callee with
                | Some Effects.Source -> Some callee
                | Some Effects.Sanitizer | Some Effects.Zeroizer | Some Effects.Sink ->
                    S.public
                | None -> (
                    match func_of callee with
                    | Some cf when cf.Extract.stmts <> [] ->
                        (match Hashtbl.find_opt ctxs callee with
                        | Some cctx ->
                            List.iteri
                              (fun k s ->
                                if k < Array.length cctx then begin
                                  let s' = S.join cctx.(k) s in
                                  if not (S.equal cctx.(k) s') then begin
                                    cctx.(k) <- s';
                                    changed := true
                                  end
                                end)
                              argsec
                        | None -> ());
                        Option.value (Hashtbl.find_opt rets callee) ~default:S.public
                    | _ ->
                        (* unclassified external or shape-only callee:
                           assume the result reflects its arguments *)
                        List.fold_left S.join S.public argsec)
              in
              ( (match dst with
                | Some d -> Env.set env d (S.join pc result)
                | None -> env),
                bufs )
          | Extract.Return e ->
              (match e with
              | Some e -> ret := S.join !ret (S.join pc (eval env bufs e))
              | None -> ());
              (env, bufs)
          | Extract.If { cond; then_; else_ } ->
              let cs = eval env bufs cond in
              (match cs with
              | Some src ->
                  record { ct_function = fname; kind = Branch; source = src; detail = expr_str cond }
              | None -> ());
              let pc' = S.join pc cs in
              let e1, b1 = exec_list pc' (env, bufs) then_ in
              let e2, b2 = exec_list pc' (env, bufs) else_ in
              ( Env.merge ~f:S.join ~default:S.public e1 e2,
                Env.merge ~f:S.join ~default:S.public b1 b2 )
          | Extract.For { var; lo; hi; body } ->
              let ls = S.join (eval env bufs lo) (eval env bufs hi) in
              (match ls with
              | Some src ->
                  record
                    {
                      ct_function = fname;
                      kind = Loop_bound;
                      source = src;
                      detail = Printf.sprintf "%s..%s" (expr_str lo) (expr_str hi);
                    }
              | None -> ());
              let pc' = S.join pc ls in
              let env = Env.set env var ls in
              let eq = Env.equal ~eq:S.equal ~default:S.public in
              let rec fix (env, bufs) k =
                let e', b' = exec_list pc' (env, bufs) body in
                let e'' = Env.merge ~f:S.join ~default:S.public env e' in
                let b'' = Env.merge ~f:S.join ~default:S.public bufs b' in
                if k > 20 || (eq env e'' && eq bufs b'') then (e'', b'')
                else fix (e'', b'') (k + 1)
              in
              fix (env, bufs) 0
        and exec_list pc st stmts = List.fold_left (exec pc) st stmts in
        ignore (exec_list S.public (env0, Env.empty) f.Extract.stmts);
        let old = Option.value (Hashtbl.find_opt rets fname) ~default:S.public in
        let joined = S.join old !ret in
        if not (S.equal old joined) then begin
          Hashtbl.replace rets fname joined;
          changed := true
        end
  in
  let quiet = ignore in
  let rounds = ref (List.length reach + 2) in
  let continue_ = ref true in
  while !continue_ && !rounds > 0 do
    decr rounds;
    changed := false;
    List.iter (analyze_fn ~record:quiet) reach;
    if not !changed then continue_ := false
  done;
  (* reporting pass against the stabilized summaries *)
  let out = ref [] in
  List.iter (analyze_fn ~record:(fun v -> out := v :: !out)) reach;
  List.sort_uniq compare !out

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type result = {
  frames : (string * int) list;
  stack : stack_bound;
  worst_chain : string list;
  bounds : bounds_violation list;
  ct : ct_violation list;
  index_hulls : ((string * string) * I.t) list;
}

let analyze ~table g ~entry =
  let reach = Callgraph.reachable g ~root:entry in
  let frames =
    List.map
      (fun name ->
        match Callgraph.id g name with
        | Some i -> (name, frame_bytes (Callgraph.func g i))
        | None -> (name, opaque_frame_bytes))
      reach
  in
  let stack, worst_chain = stack_pass g ~entry in
  let violations = ref [] in
  let hulls : (string * string, I.t) Hashtbl.t = Hashtbl.create 16 in
  let record_hull fname buf idx =
    let key = (fname, buf) in
    match Hashtbl.find_opt hulls key with
    | Some old -> Hashtbl.replace hulls key (I.join old idx)
    | None -> Hashtbl.add hulls key idx
  in
  List.iter
    (fun name ->
      match Callgraph.id g name with
      | None -> ()
      | Some i ->
          let f = Callgraph.func g i in
          if f.Extract.stmts <> [] then
            interval_pass name f
              ~record_violation:(fun v -> violations := v :: !violations)
              ~record_hull)
    reach;
  let bounds = List.sort_uniq compare !violations in
  let ct = ct_pass ~table g ~entry in
  let index_hulls =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) hulls []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { frames; stack; worst_chain; bounds; ct; index_hulls }

(* ------------------------------------------------------------------ *)
(* Concrete reference interpreter (QCheck soundness oracle)            *)
(* ------------------------------------------------------------------ *)

module Concrete = struct
  type access = { in_function : string; buffer : string; index : int; within : bool }
  type obs = { max_stack_bytes : int; accesses : access list; out_of_fuel : bool }

  exception Out_of_fuel
  exception Ret of int

  (* saturating arithmetic mirroring Domains.Interval's endpoint math *)
  let sat_add a b =
    let s = a + b in
    if a > 0 && b > 0 && s < 0 then max_int
    else if a < 0 && b < 0 && s >= 0 then min_int
    else s

  let sat_neg n = if n = min_int then max_int else -n
  let sat_sub a b = sat_add a (sat_neg b)

  let sat_mul a b =
    if a = 0 || b = 0 then 0
    else
      let p = a * b in
      if p / b <> a || (a = -1 && b = min_int) || (b = -1 && a = min_int) then
        if a > 0 = (b > 0) then max_int else min_int
      else p

  let concrete_binop op a b =
    match op with
    | Extract.Add -> sat_add a b
    | Extract.Sub -> sat_sub a b
    | Extract.Mul -> sat_mul a b
    | Extract.Div -> if b = 0 then 0 else if a = min_int && b = -1 then max_int else a / b
    | Extract.Mod -> if b = 0 then 0 else a mod b
    | Extract.Band -> a land b
    | Extract.Eq -> if a = b then 1 else 0
    | Extract.Ne -> if a <> b then 1 else 0
    | Extract.Lt -> if a < b then 1 else 0
    | Extract.Le -> if a <= b then 1 else 0

  let run g ~entry =
    let accesses = ref [] in
    let max_stack = ref 0 in
    let fuel = ref 200_000 in
    let tick () =
      decr fuel;
      if !fuel <= 0 then raise Out_of_fuel
    in
    let note depth = if depth > !max_stack then max_stack := depth in
    let rec call depth fname args =
      match Callgraph.id g fname with
      | None ->
          note (sat_add depth opaque_frame_bytes);
          0
      | Some i ->
          let f = Callgraph.func g i in
          let depth = sat_add depth (frame_bytes f) in
          note depth;
          if f.Extract.stmts = [] then begin
            (* shape-only: visit callees in body order, no data flow *)
            Array.iter
              (fun c ->
                tick ();
                match c with
                | Callgraph.Defined j -> ignore (call depth (Callgraph.name g j) [])
                | Callgraph.External _ -> note (sat_add depth opaque_frame_bytes))
              (Callgraph.calls g i);
            0
          end
          else begin
            let env : (string, int) Hashtbl.t = Hashtbl.create 8 in
            let bufs : (string, int array) Hashtbl.t = Hashtbl.create 4 in
            List.iteri
              (fun k p ->
                Hashtbl.replace env p (match List.nth_opt args k with Some v -> v | None -> 0))
              f.Extract.params;
            let record buf i within =
              accesses := { in_function = fname; buffer = buf; index = i; within } :: !accesses
            in
            let rec eval = function
              | Extract.Num n -> n
              | Extract.Var v -> ( match Hashtbl.find_opt env v with Some v -> v | None -> 0)
              | Extract.Bin (op, a, b) ->
                  let a = eval a in
                  let b = eval b in
                  concrete_binop op a b
              | Extract.Load { buf; index } -> (
                  let i = eval index in
                  match Hashtbl.find_opt bufs buf with
                  | None -> 0 (* undeclared: the abstract side skips these too *)
                  | Some arr ->
                      if i >= 0 && i < Array.length arr then begin
                        record buf i true;
                        arr.(i)
                      end
                      else begin
                        record buf i false;
                        0
                      end)
            in
            let rec exec stmt =
              tick ();
              match stmt with
              | Extract.Local { name; elems; _ } ->
                  Hashtbl.replace bufs name (Array.make (max elems 0) 0)
              | Extract.Assign { dst; src } -> Hashtbl.replace env dst (eval src)
              | Extract.Store { buf; index; src } -> (
                  let i = eval index in
                  let v = eval src in
                  match Hashtbl.find_opt bufs buf with
                  | None -> ()
                  | Some arr ->
                      if i >= 0 && i < Array.length arr then begin
                        record buf i true;
                        arr.(i) <- v
                      end
                      else record buf i false)
              | Extract.Call { dst; callee; args } ->
                  let vs = List.map eval args in
                  let r = call depth callee vs in
                  (match dst with Some d -> Hashtbl.replace env d r | None -> ())
              | Extract.Return e -> raise (Ret (match e with Some e -> eval e | None -> 0))
              | Extract.If { cond; then_; else_ } ->
                  if eval cond <> 0 then List.iter exec then_ else List.iter exec else_
              | Extract.For { var; lo; hi; body } ->
                  let l = eval lo in
                  let h = eval hi in
                  if l >= h then Hashtbl.replace env var l
                  else begin
                    let k = ref l in
                    while !k < h do
                      tick ();
                      Hashtbl.replace env var !k;
                      List.iter exec body;
                      k := sat_add !k 1
                    done;
                    Hashtbl.replace env var h
                  end
            in
            try
              List.iter exec f.Extract.stmts;
              0
            with Ret v -> v
          end
    in
    let out_of_fuel =
      try
        ignore (call 0 entry []);
        false
      with Out_of_fuel -> true
    in
    { max_stack_bytes = !max_stack; accesses = List.rev !accesses; out_of_fuel }
end
