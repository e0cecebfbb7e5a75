module Pal = Flicker_slb.Pal

type binop = Add | Sub | Mul | Div | Mod | Band | Eq | Ne | Lt | Le

type expr =
  | Num of int
  | Var of string
  | Bin of binop * expr * expr
  | Load of { buf : string; index : expr }

type stmt =
  | Local of { name : string; elems : int; elem_size : int }
  | Assign of { dst : string; src : expr }
  | Store of { buf : string; index : expr; src : expr }
  | Call of { dst : string option; callee : string; args : expr list }
  | If of { cond : expr; then_ : stmt list; else_ : stmt list }
  | For of { var : string; lo : expr; hi : expr; body : stmt list }
  | Return of expr option

type func = {
  fname : string;
  params : string list;
  calls : string list;
  uses_types : string list;
  stmts : stmt list;
  body : string;
  loc : int;
}

(* pre-order callee linearization: condition first (expressions contain
   no calls, so a branch's callees are its arms'), then-arm before
   else-arm, loop bodies once *)
let calls_of_stmts stmts =
  let acc = ref [] in
  let rec walk = function
    | Local _ | Assign _ | Store _ | Return _ -> ()
    | Call { callee; _ } -> acc := callee :: !acc
    | If { then_; else_; _ } ->
        List.iter walk then_;
        List.iter walk else_
    | For { body; _ } -> List.iter walk body
  in
  List.iter walk stmts;
  List.rev !acc

let fn ?(params = []) ?calls ?(uses_types = []) ?(stmts = []) ?body ?(loc = 1) fname =
  let calls =
    match calls with
    | Some cs -> cs
    | None -> ( match stmts with [] -> [] | _ -> calls_of_stmts stmts)
  in
  let body =
    match body with
    | Some b -> b
    | None -> Printf.sprintf "/* %s: %d LOC */" fname loc
  in
  { fname; params; calls; uses_types; stmts; body; loc }

type typedef = { tname : string; type_depends : string list; definition : string }
type program = { functions : func list; types : typedef list }

type advice =
  | Eliminate
  | Link_module of Pal.module_kind
  | Inline_replacement of string
  | Forbidden of string

let stdlib_advice name =
  let crypto_prefixes = [ "rsa_"; "sha1"; "sha512"; "md5"; "aes_"; "rc4_"; "hmac" ] in
  let tpm_prefixes = [ "TPM_"; "Tspi_" ] in
  let driver_prefixes = [ "tpm_transmit"; "tis_" ] in
  let channel_prefixes = [ "sc_"; "secure_channel_" ] in
  let has_prefix p = String.length name >= String.length p
                     && String.sub name 0 (String.length p) = p in
  match name with
  | "printf" | "fprintf" | "sprintf" | "snprintf" | "puts" | "putchar" | "perror" ->
      Some Eliminate
  | "malloc" | "free" | "realloc" | "calloc" -> Some (Link_module Pal.Memory_management)
  | "sbrk" | "mmap" -> Some (Link_module Pal.Memory_management)
  | "memcpy" | "memset" | "memcmp" | "strlen" | "strcmp" | "strncpy"
  | "strcpy" | "strcat" | "strncat" ->
      Some (Inline_replacement ("freestanding " ^ name ^ " from the SLB Core support code"))
  | "pal_output_write" ->
      Some (Inline_replacement "SLB Core write to the well-known output page (PAL_OUT)")
  | "pal_read_sealed_input" ->
      Some (Inline_replacement "SLB Core read of sealed state from the input page")
  | "zeroize_secrets" ->
      Some (Inline_replacement "SLB Core teardown memset-to-zero (Section 5.1)")
  | "socket" | "connect" | "send" | "recv" | "read" | "write" | "open" | "close" ->
      Some
        (Forbidden
           (name
          ^ " needs the OS; restructure into multiple Flicker sessions with sealed state \
             (Section 4.3)"))
  | "time" | "gettimeofday" ->
      Some
        (Forbidden
           (name
          ^ " needs the OS clock; use TPM tick counters (TPM_GetTicks) for trusted time"))
  | "fork" | "exec" | "pthread_create" ->
      Some (Forbidden (name ^ ": no processes or threads inside a PAL"))
  | "rand" | "srand" | "random" ->
      Some (Inline_replacement "TPM GetRandom via the TPM Utilities module")
  | _ ->
      if List.exists has_prefix crypto_prefixes then Some (Link_module Pal.Crypto)
      else if List.exists has_prefix tpm_prefixes then Some (Link_module Pal.Tpm_utilities)
      else if List.exists has_prefix driver_prefixes then Some (Link_module Pal.Tpm_driver)
      else if List.exists has_prefix channel_prefixes then Some (Link_module Pal.Secure_channel)
      else None

type extraction = {
  target : string;
  required_functions : func list;
  required_types : typedef list;
  stdlib_calls : (string * advice) list;
  unresolved : string list;
  extracted_loc : int;
}

(* Name->definition table, first definition wins; the slicer looks up
   each visited callee in it instead of scanning the program's list. *)
let table items key =
  let tbl = Hashtbl.create (max 16 (2 * List.length items)) in
  List.iter
    (fun x ->
      let k = key x in
      if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k x)
    items;
  Hashtbl.find_opt tbl

let extract program ~target =
  let lookup = table program.functions (fun f -> f.fname) in
  match lookup target with
  | None -> Error (Printf.sprintf "target function %s is not defined in the program" target)
  | Some _ ->
      (* DFS producing callees-first ordering, classifying externals *)
      let visited = Hashtbl.create 16 in
      let ordered = ref [] in
      let stdlib = ref [] in
      let unresolved = ref [] in
      let rec visit name =
        if not (Hashtbl.mem visited name) then begin
          Hashtbl.replace visited name ();
          match lookup name with
          | Some f ->
              List.iter visit f.calls;
              ordered := f :: !ordered
          | None -> (
              match stdlib_advice name with
              | Some advice -> stdlib := (name, advice) :: !stdlib
              | None -> unresolved := name :: !unresolved)
        end
      in
      visit target;
      let required_functions = List.rev !ordered in
      (* type closure over everything the slice touches *)
      let type_lookup = table program.types (fun t -> t.tname) in
      let tvisited = Hashtbl.create 16 in
      let ttypes = ref [] in
      let rec tvisit name =
        if not (Hashtbl.mem tvisited name) then begin
          Hashtbl.replace tvisited name ();
          match type_lookup name with
          | Some t ->
              List.iter tvisit t.type_depends;
              ttypes := t :: !ttypes
          | None -> ()
        end
      in
      List.iter (fun f -> List.iter tvisit f.uses_types) required_functions;
      Ok
        {
          target;
          required_functions;
          required_types = List.rev !ttypes;
          stdlib_calls = List.sort compare !stdlib;
          unresolved = List.sort compare !unresolved;
          extracted_loc = List.fold_left (fun acc f -> acc + f.loc) 0 required_functions;
        }

let suggested_modules extraction =
  List.sort_uniq compare
    (List.filter_map
       (fun (_, advice) ->
         match advice with Link_module m -> Some m | _ -> None)
       extraction.stdlib_calls)

let has_blockers extraction =
  List.exists
    (fun (_, advice) -> match advice with Forbidden _ -> true | _ -> false)
    extraction.stdlib_calls

let advice_to_string = function
  | Eliminate -> "eliminate the call"
  | Link_module m -> "link the " ^ (Pal.info m).Pal.module_name ^ " module"
  | Inline_replacement r -> "replace with " ^ r
  | Forbidden why -> "BLOCKER: " ^ why

let render_standalone extraction =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "/* standalone PAL program extracted for %s (%d LOC) */\n"
       extraction.target extraction.extracted_loc);
  List.iter
    (fun (name, advice) ->
      Buffer.add_string buf (Printf.sprintf "/* stdlib: %s -> %s */\n" name (advice_to_string advice)))
    extraction.stdlib_calls;
  List.iter
    (fun name -> Buffer.add_string buf (Printf.sprintf "/* UNRESOLVED: %s */\n" name))
    extraction.unresolved;
  Buffer.add_char buf '\n';
  List.iter
    (fun t -> Buffer.add_string buf (t.definition ^ "\n"))
    extraction.required_types;
  Buffer.add_char buf '\n';
  List.iter (fun f -> Buffer.add_string buf (f.body ^ "\n")) extraction.required_functions;
  Buffer.contents buf

let report fmt extraction =
  Format.fprintf fmt "extraction for %s:@." extraction.target;
  Format.fprintf fmt "  functions: %d (%d LOC)@."
    (List.length extraction.required_functions)
    extraction.extracted_loc;
  Format.fprintf fmt "  types: %d@." (List.length extraction.required_types);
  List.iter
    (fun (name, advice) ->
      Format.fprintf fmt "  stdlib %-12s %s@." name (advice_to_string advice))
    extraction.stdlib_calls;
  List.iter
    (fun name -> Format.fprintf fmt "  unresolved: %s (supply an implementation)@." name)
    extraction.unresolved;
  match suggested_modules extraction with
  | [] -> ()
  | mods ->
      Format.fprintf fmt "  suggested PAL modules: %s@."
        (String.concat ", " (List.map (fun m -> (Pal.info m).Pal.module_name) mods))
