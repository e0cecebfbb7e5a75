(* The Section 5.2 PAL extraction tool: call-graph slicing, stdlib
   advice, type closure, and standalone-program rendering. *)

open Flicker_extract
module Pal = Flicker_slb.Pal

(* A miniature OpenSSH-like program: the target is the password check,
   buried in a server with networking and logging around it. *)
let sshd =
  {
    Extract.functions =
      [
        Extract.fn "main" ~calls:[ "socket"; "accept_loop" ]
          ~uses_types:[ "server_config" ] ~body:"int main(void) { ... }" ~loc:30;
        Extract.fn "accept_loop" ~calls:[ "recv"; "handle_auth"; "printf" ]
          ~uses_types:[ "connection" ]
          ~body:"static void accept_loop(void) { ... }" ~loc:60;
        Extract.fn "handle_auth" ~calls:[ "check_password"; "log_attempt" ]
          ~uses_types:[ "connection"; "auth_ctxt" ]
          ~body:"static int handle_auth(connection *c) { ... }" ~loc:40;
        Extract.fn "check_password" ~calls:[ "md5crypt"; "constant_time_eq"; "malloc" ]
          ~uses_types:[ "auth_ctxt"; "passwd_entry" ]
          ~body:"int check_password(auth_ctxt *a, const char *pw) { ... }" ~loc:25;
        Extract.fn "md5crypt" ~calls:[ "md5_init"; "md5_update"; "memcpy" ]
          ~uses_types:[ "md5_ctx" ]
          ~body:"char *md5crypt(const char *salt, const char *pw) { ... }" ~loc:120;
        Extract.fn "md5_init" ~uses_types:[ "md5_ctx" ]
          ~body:"void md5_init(md5_ctx *c) { ... }" ~loc:10;
        Extract.fn "md5_update" ~calls:[ "memcpy" ] ~uses_types:[ "md5_ctx" ]
          ~body:"void md5_update(md5_ctx *c, ...) { ... }" ~loc:35;
        Extract.fn "constant_time_eq"
          ~body:"int constant_time_eq(const char *a, const char *b) { ... }" ~loc:8;
        Extract.fn "log_attempt" ~calls:[ "fprintf" ]
          ~body:"static void log_attempt(...) { ... }" ~loc:12;
        (* mutual recursion, to exercise cycle handling *)
        Extract.fn "even" ~calls:[ "odd" ] ~body:"int even(int n) { ... }" ~loc:3;
        Extract.fn "odd" ~calls:[ "even" ] ~body:"int odd(int n) { ... }" ~loc:3;
      ];
    types =
      [
        { Extract.tname = "server_config"; type_depends = []; definition = "struct server_config {...};" };
        { Extract.tname = "connection"; type_depends = [ "server_config" ]; definition = "struct connection {...};" };
        { Extract.tname = "auth_ctxt"; type_depends = [ "passwd_entry" ]; definition = "struct auth_ctxt {...};" };
        { Extract.tname = "passwd_entry"; type_depends = []; definition = "struct passwd_entry {...};" };
        { Extract.tname = "md5_ctx"; type_depends = []; definition = "struct md5_ctx {...};" };
      ];
  }

let slice () =
  match Extract.extract sshd ~target:"check_password" with
  | Ok e -> e
  | Error msg -> Alcotest.fail msg

let names e = List.map (fun f -> f.Extract.fname) e.Extract.required_functions

let test_slice_functions () =
  let e = slice () in
  Alcotest.(check bool) "includes target" true (List.mem "check_password" (names e));
  Alcotest.(check bool) "includes md5crypt chain" true
    (List.for_all (fun n -> List.mem n (names e)) [ "md5crypt"; "md5_init"; "md5_update" ]);
  Alcotest.(check bool) "excludes the server" true
    (List.for_all (fun n -> not (List.mem n (names e))) [ "main"; "accept_loop"; "log_attempt" ]);
  Alcotest.(check int) "loc" (25 + 120 + 10 + 35 + 8) e.Extract.extracted_loc

let test_callees_before_callers () =
  let e = slice () in
  let index name =
    let rec go i = function
      | [] -> -1
      | n :: rest -> if n = name then i else go (i + 1) rest
    in
    go 0 (names e)
  in
  Alcotest.(check bool) "md5_init before md5crypt" true (index "md5_init" < index "md5crypt");
  Alcotest.(check bool) "md5crypt before check_password" true
    (index "md5crypt" < index "check_password")

let test_type_closure () =
  let e = slice () in
  let tnames = List.map (fun t -> t.Extract.tname) e.Extract.required_types in
  Alcotest.(check bool) "direct types" true
    (List.mem "auth_ctxt" tnames && List.mem "md5_ctx" tnames);
  Alcotest.(check bool) "transitive type dep" true (List.mem "passwd_entry" tnames);
  Alcotest.(check bool) "unrelated type excluded" true (not (List.mem "server_config" tnames))

let test_stdlib_advice () =
  let e = slice () in
  (match List.assoc_opt "malloc" e.Extract.stdlib_calls with
  | Some (Extract.Link_module Pal.Memory_management) -> ()
  | _ -> Alcotest.fail "malloc advice wrong");
  (match List.assoc_opt "memcpy" e.Extract.stdlib_calls with
  | Some (Extract.Inline_replacement _) -> ()
  | _ -> Alcotest.fail "memcpy advice wrong");
  Alcotest.(check bool) "no printf in this slice" true
    (List.assoc_opt "printf" e.Extract.stdlib_calls = None);
  Alcotest.(check (list string)) "no unresolved" [] e.Extract.unresolved;
  Alcotest.(check bool) "no blockers" false (Extract.has_blockers e)

let test_suggested_modules () =
  let e = slice () in
  Alcotest.(check bool) "memory module suggested" true
    (List.mem Pal.Memory_management (Extract.suggested_modules e))

let test_blockers () =
  (* slicing accept_loop drags in recv -> forbidden *)
  match Extract.extract sshd ~target:"accept_loop" with
  | Error msg -> Alcotest.fail msg
  | Ok e ->
      Alcotest.(check bool) "recv is a blocker" true (Extract.has_blockers e);
      (match List.assoc_opt "printf" e.Extract.stdlib_calls with
      | Some Extract.Eliminate -> ()
      | _ -> Alcotest.fail "printf advice wrong")

let test_cycles () =
  match Extract.extract sshd ~target:"even" with
  | Error msg -> Alcotest.fail msg
  | Ok e ->
      Alcotest.(check bool) "both cycle members once" true
        (List.sort compare (names e) = [ "even"; "odd" ])

let test_advice_table_gaps () =
  let check_advice name expected_kind =
    match (Extract.stdlib_advice name, expected_kind) with
    | Some Extract.Eliminate, `Eliminate -> ()
    | Some (Extract.Inline_replacement _), `Inline -> ()
    | Some (Extract.Link_module m), `Link m' when m = m' -> ()
    | Some (Extract.Forbidden _), `Forbidden -> ()
    | _ -> Alcotest.fail (name ^ ": wrong advice")
  in
  List.iter (fun n -> check_advice n `Eliminate) [ "sprintf"; "snprintf" ];
  List.iter (fun n -> check_advice n `Inline) [ "strcpy"; "strcat"; "strncat" ];
  List.iter (fun n -> check_advice n (`Link Pal.Memory_management)) [ "sbrk"; "mmap" ];
  List.iter (fun n -> check_advice n `Forbidden) [ "time"; "gettimeofday" ];
  check_advice "tpm_transmit" (`Link Pal.Tpm_driver);
  check_advice "sc_keygen" (`Link Pal.Secure_channel)

let test_unknown_target () =
  Alcotest.(check bool) "missing target" true
    (Result.is_error (Extract.extract sshd ~target:"nonexistent"))

let test_unresolved_reported () =
  let prog =
    {
      Extract.functions =
        [ Extract.fn "f" ~calls:[ "mystery_helper" ] ~body:"void f(void) {}" ~loc:2 ];
      types = [];
    }
  in
  match Extract.extract prog ~target:"f" with
  | Error e -> Alcotest.fail e
  | Ok e -> Alcotest.(check (list string)) "unresolved" [ "mystery_helper" ] e.Extract.unresolved

let test_render () =
  let e = slice () in
  let text = Extract.render_standalone e in
  let contains needle =
    let rec scan i =
      i + String.length needle <= String.length text
      && (String.sub text i (String.length needle) = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "mentions target" true (contains "check_password");
  Alcotest.(check bool) "carries bodies" true (contains "char *md5crypt");
  Alcotest.(check bool) "carries type defs" true (contains "struct md5_ctx");
  Alcotest.(check bool) "advises on malloc" true (contains "malloc");
  (* the report printer runs without error *)
  Alcotest.(check bool) "report" true
    (String.length (Format.asprintf "%a" Extract.report e) > 0)

let () =
  Alcotest.run "extract"
    [
      ( "slicing",
        [
          Alcotest.test_case "functions" `Quick test_slice_functions;
          Alcotest.test_case "ordering" `Quick test_callees_before_callers;
          Alcotest.test_case "type closure" `Quick test_type_closure;
          Alcotest.test_case "cycles" `Quick test_cycles;
          Alcotest.test_case "unknown target" `Quick test_unknown_target;
          Alcotest.test_case "unresolved reported" `Quick test_unresolved_reported;
        ] );
      ( "advice",
        [
          Alcotest.test_case "stdlib advice" `Quick test_stdlib_advice;
          Alcotest.test_case "advice table gaps" `Quick test_advice_table_gaps;
          Alcotest.test_case "suggested modules" `Quick test_suggested_modules;
          Alcotest.test_case "blockers" `Quick test_blockers;
        ] );
      ("rendering", [ Alcotest.test_case "standalone program" `Quick test_render ]);
    ]
