(* Global state under lib/, kept to a reviewed list.

   Parses every lib/**/*.ml and lists each structure-level binding, at
   top level or inside a [module ... = struct] or a functor's body (a
   binding there is one value per application), whose right-hand side
   creates mutable or lazy state: [ref], [lazy], [Hashtbl.create],
   [Array.make], [Queue.create], [Atomic.make], [Mutex.create] or
   [Domain.DLS.new_key]. Such a binding is one value shared by every
   domain that links the library, so each one must appear in the
   allowlist below with the reason it is safe. *)

open Parsetree

let allowlist =
  [
    ("lib/core/measurement.ml", "Measurement.hits", "atomic");
    ("lib/core/measurement.ml", "Measurement.misses", "atomic");
    ("lib/crypto/block_hash.ml", "Block_hash.Make.scratch_key", "domain-local storage");
    ("lib/crypto/sha1.ml", "Sha1.bytes_hashed_total", "atomic");
    ( "lib/crypto/elgamal.ml",
      "Elgamal.shared_params_512",
      "forced only by bench/paper.ml and test_elgamal.ml, on the main domain" );
    ( "lib/crypto/elgamal.ml",
      "Elgamal.shared_params_1024",
      "forced only by bench/paper.ml and test_elgamal.ml, on the main domain" );
  ]

let creators =
  [
    "ref"; "Hashtbl.create"; "Array.make"; "Queue.create"; "Atomic.make"; "Mutex.create";
    "Domain.DLS.new_key";
  ]

let rec creates e =
  match e.pexp_desc with
  | Pexp_lazy _ -> true
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> creates e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match Longident.flatten txt with
      | "Stdlib" :: path | path -> List.mem (String.concat "." path) creators)
  | _ -> false

let rec bound_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> bound_name p
  | _ -> None

(* qualified names of the flagged bindings in [items], inside module
   path [path] *)
let rec scan path items =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
          List.filter_map
            (fun vb ->
              match bound_name vb.pvb_pat with
              | Some name when creates vb.pvb_expr -> Some (path ^ "." ^ name)
              | _ -> None)
            bindings
      | Pstr_module mb -> scan_binding path mb
      | Pstr_recmodule mbs -> List.concat_map (scan_binding path) mbs
      | _ -> [])
    items

and scan_binding path mb =
  match mb.pmb_name.txt with
  | Some name -> scan_module (path ^ "." ^ name) mb.pmb_expr
  | None -> []

and scan_module path me =
  match me.pmod_desc with
  | Pmod_structure items -> scan path items
  | Pmod_constraint (me, _) | Pmod_functor (_, me) -> scan_module path me
  | _ -> []

(* the nearest directory above holding lib/: the build copy the dune
   deps fill under [dune runtest], the source tree under [dune exec] *)
let root =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "lib/core/session.ml") then dir
    else if Filename.dirname dir = dir then failwith "no lib/ above the working directory"
    else up (Filename.dirname dir)
  in
  up (Sys.getcwd ())

(* the .ml files under [dir], as paths relative to [root] *)
let rec ml_files dir =
  Sys.readdir (Filename.concat root dir)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if entry.[0] = '.' then []
         else if Sys.is_directory (Filename.concat root path) then ml_files path
         else if Filename.check_suffix entry ".ml" then [ path ]
         else [])

let bindings () =
  List.concat_map
    (fun file ->
      let source = In_channel.with_open_bin (Filename.concat root file) In_channel.input_all in
      let lexbuf = Lexing.from_string source in
      Lexing.set_filename lexbuf file;
      let unit = String.capitalize_ascii (Filename.chop_extension (Filename.basename file)) in
      List.map (fun name -> (file, name)) (scan unit (Parse.implementation lexbuf)))
    (ml_files "lib")

let listed = List.map (fun (file, name, _) -> (file, name)) allowlist
let show = List.map (fun (file, name) -> Printf.sprintf "%s: %s" file name)

let test_nothing_unlisted () =
  let found = bindings () in
  Alcotest.(check bool) "lib/ was scanned" true (List.length (ml_files "lib") > 90);
  Alcotest.(check (list string)) "global state missing from the allowlist" []
    (show (List.filter (fun b -> not (List.mem b listed)) found))

let test_no_stale_entries () =
  let found = bindings () in
  Alcotest.(check (list string)) "allowlisted bindings that no longer exist" []
    (show (List.filter (fun b -> not (List.mem b found)) listed))

let () =
  Alcotest.run "globals"
    [
      ( "lib",
        [
          Alcotest.test_case "no unlisted global state" `Quick test_nothing_unlisted;
          Alcotest.test_case "no stale allowlist entries" `Quick test_no_stale_entries;
        ] );
    ]
