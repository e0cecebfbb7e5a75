module Extract = Flicker_extract.Extract

type callee = Defined of int | External of string

type t = {
  names : string array;
  funcs : Extract.func array;
  ids : (string, int) Hashtbl.t;
  calls : callee array array;
}

let build program =
  (* first definition wins, matching the extraction's lookup *)
  let seen = Hashtbl.create 16 in
  let defs =
    List.filter
      (fun f ->
        if Hashtbl.mem seen f.Extract.fname then false
        else (Hashtbl.add seen f.Extract.fname (); true))
      program.Extract.functions
  in
  let funcs = Array.of_list defs in
  let names = Array.map (fun f -> f.Extract.fname) funcs in
  let ids = Hashtbl.create (2 * Array.length funcs) in
  Array.iteri (fun i n -> Hashtbl.replace ids n i) names;
  let calls =
    Array.map
      (fun f ->
        Array.of_list
          (List.map
             (fun callee ->
               match Hashtbl.find_opt ids callee with
               | Some id -> Defined id
               | None -> External callee)
             f.Extract.calls))
      funcs
  in
  { names; funcs; ids; calls }

let node_count g = Array.length g.names
let name g i = g.names.(i)
let func g i = g.funcs.(i)
let id g n = Hashtbl.find_opt g.ids n
let calls g i = g.calls.(i)

let defined_callees g i =
  Array.to_list g.calls.(i)
  |> List.filter_map (function Defined j -> Some j | External _ -> None)

let external_callees g i =
  Array.to_list g.calls.(i)
  |> List.filter_map (function External n -> Some n | Defined _ -> None)

(* preorder reachability from a root, defined functions only *)
let reachable_ids g ~root =
  match id g root with
  | None -> []
  | Some r ->
      let seen = Array.make (node_count g) false in
      let order = ref [] in
      let rec visit i =
        if not seen.(i) then begin
          seen.(i) <- true;
          order := i :: !order;
          List.iter visit (defined_callees g i)
        end
      in
      visit r;
      List.rev !order

let reachable g ~root = List.map (name g) (reachable_ids g ~root)

let unreachable g ~root =
  let seen = Array.make (node_count g) false in
  List.iter (fun i -> seen.(i) <- true) (reachable_ids g ~root);
  let dead = ref [] in
  Array.iteri (fun i n -> if not seen.(i) then dead := n :: !dead) g.names;
  List.rev !dead

(* Tarjan's strongly connected components, iterative-enough for our
   graph sizes (recursion depth bounded by the call-graph size). *)
let sccs g =
  let n = node_count g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (defined_callees g v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      components := pop [] :: !components
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  List.rev !components

(* SCCs that can actually recurse: more than one member, or a self-call *)
let recursive_groups g =
  List.filter_map
    (fun comp ->
      match comp with
      | [ v ] ->
          if List.mem v (defined_callees g v) then Some [ name g v ] else None
      | _ :: _ :: _ -> Some (List.map (name g) comp)
      | [] -> None)
    (sccs g)

let has_recursion_from g ~root =
  let reach = reachable_ids g ~root in
  let in_reach = Array.make (node_count g) false in
  List.iter (fun i -> in_reach.(i) <- true) reach;
  List.exists
    (fun group -> List.exists (fun n -> match id g n with Some i -> in_reach.(i) | None -> false) group)
    (recursive_groups g)
