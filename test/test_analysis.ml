(* The PAL verifier: call-graph layer, effects/taint pass, TCB-budget
   rules, the abstract-interpretation engine (stack bounds, buffer
   bounds, constant-time lint) with its planted-defect PALs and a
   concrete-vs-abstract soundness property, golden reports for the
   shipped and planted PALs, and property tests tying the analysis back
   to the extraction slicer. *)

open Flicker_analysis
module Extract = Flicker_extract.Extract
module Pal = Flicker_slb.Pal
module Layout = Flicker_slb.Layout
module Interval = Domains.Interval

let f fname calls loc = Extract.fn fname ~calls ~loc

let program functions = { Extract.functions; types = [] }

(* a Pal.t built directly (not via Pal.define) so tests can express
   configurations define would reject, e.g. oversized code *)
let raw_pal ?(app_code = String.make 256 'a') ?(modules = []) name =
  let code = String.concat "" (List.map Pal.module_code modules) ^ app_code in
  {
    Pal.name;
    code;
    modules;
    behavior = (fun _ -> ());
    standard = Flicker_slb.Slb_image.link Flicker_slb.Slb_image.Standard code;
    optimized = Flicker_slb.Slb_image.link Flicker_slb.Slb_image.Optimized code;
  }

let target ?(budget = 10_000) ?(effects = []) ?pal ~entry functions =
  {
    Rules.pal = (match pal with Some p -> p | None -> raw_pal ("test-" ^ entry));
    program = program functions;
    entry;
    budget_loc = budget;
    effects;
  }

let analyze_ok t = match Rules.run t with Ok a -> a | Error e -> Alcotest.fail e
let run_ok t = (analyze_ok t).Rules.findings

let rules_fired findings = List.sort_uniq compare (List.map (fun fi -> fi.Rules.rule) findings)
let fired rule findings = List.exists (fun fi -> fi.Rules.rule = rule) findings

(* --- call-graph layer --- *)

let diamond =
  [ f "a" [ "b"; "c" ] 1; f "b" [ "d" ] 1; f "c" [ "d" ] 1; f "d" [] 1; f "dead" [ "b" ] 1 ]

let test_reachable () =
  let g = Callgraph.build (program diamond) in
  Alcotest.(check (list string)) "preorder" [ "a"; "b"; "d"; "c" ] (Callgraph.reachable g ~root:"a");
  Alcotest.(check (list string)) "dead" [ "dead" ] (Callgraph.unreachable g ~root:"a");
  Alcotest.(check (list string)) "unknown root" [] (Callgraph.reachable g ~root:"nope")

let test_recursion_detection () =
  let g =
    Callgraph.build
      (program [ f "top" [ "even"; "lone" ] 1; f "even" [ "odd" ] 1; f "odd" [ "even" ] 1;
                 f "lone" [ "lone" ] 1 ])
  in
  let groups = List.map (List.sort compare) (Callgraph.recursive_groups g) in
  Alcotest.(check bool) "mutual cycle" true (List.mem [ "even"; "odd" ] groups);
  Alcotest.(check bool) "self loop" true (List.mem [ "lone" ] groups);
  Alcotest.(check bool) "recursion from top" true (Callgraph.has_recursion_from g ~root:"top")

(* --- taint pass --- *)

let table = Effects.default ()

let leaks functions ~entry =
  Taint.analyze ~table (Callgraph.build (program functions)) ~entry

let test_direct_leak () =
  let ls = leaks [ f "main" [ "TPM_Unseal"; "pal_output_write" ] 1 ] ~entry:"main" in
  Alcotest.(check int) "one leak" 1 (List.length ls);
  let l = List.hd ls in
  Alcotest.(check string) "source" "TPM_Unseal" l.Taint.source;
  Alcotest.(check string) "sink" "pal_output_write" l.Taint.sink

let test_sanitized_flow () =
  let ls =
    leaks [ f "main" [ "TPM_Unseal"; "TPM_Seal"; "pal_output_write" ] 1 ] ~entry:"main"
  in
  Alcotest.(check int) "sealed before output" 0 (List.length ls)

let test_order_matters () =
  (* output first, THEN seal: still a leak *)
  let ls =
    leaks [ f "main" [ "TPM_Unseal"; "pal_output_write"; "TPM_Seal" ] 1 ] ~entry:"main"
  in
  Alcotest.(check int) "sink before sanitizer leaks" 1 (List.length ls)

let test_interprocedural_leak () =
  (* main gets the secret, helper writes the output page *)
  let ls =
    leaks
      [ f "main" [ "TPM_Unseal"; "helper" ] 1; f "helper" [ "pal_output_write" ] 1 ]
      ~entry:"main"
  in
  Alcotest.(check bool) "leak through callee" true (ls <> [])

let test_callee_sanitizes () =
  let ls =
    leaks
      [ f "main" [ "TPM_Unseal"; "protect"; "pal_output_write" ] 1;
        f "protect" [ "TPM_Seal" ] 1 ]
      ~entry:"main"
  in
  Alcotest.(check int) "callee's seal clears the caller" 0 (List.length ls)

let test_zeroize_shapes () =
  let ends functions entry =
    Taint.ends_with_zeroize ~table (Callgraph.build (program functions)) ~entry
  in
  Alcotest.(check bool) "direct" true (ends [ f "m" [ "TPM_Unseal"; "zeroize_secrets" ] 1 ] "m");
  Alcotest.(check bool) "via wrapper" true
    (ends [ f "m" [ "TPM_Unseal"; "cleanup" ] 1; f "cleanup" [ "zeroize_secrets" ] 1 ] "m");
  Alcotest.(check bool) "not last" false
    (ends [ f "m" [ "zeroize_secrets"; "pal_output_write" ] 1 ] "m");
  Alcotest.(check bool) "absent" false (ends [ f "m" [ "TPM_Unseal" ] 1 ] "m")

(* --- each rule class fires on a deliberately bad PAL/program --- *)

let test_rule_recursion () =
  let fs = run_ok (target ~entry:"m" [ f "m" [ "r" ] 1; f "r" [ "r" ] 1 ]) in
  Alcotest.(check bool) "recursion error" true (fired "recursion" fs);
  Alcotest.(check bool) "is error severity" true
    (List.exists (fun fi -> fi.Rules.rule = "recursion" && fi.Rules.severity = Rules.Error) fs)

let test_rule_secret_leak () =
  let fs = run_ok (target ~entry:"m" [ f "m" [ "TPM_Unseal"; "pal_output_write"; "zeroize_secrets" ] 1 ]) in
  Alcotest.(check bool) "secret-leak error" true (fired "secret-leak" fs)

let test_rule_tcb_budget () =
  let pal = raw_pal ~modules:[ Pal.Crypto; Pal.Tpm_driver; Pal.Tpm_utilities ] "fat" in
  let fs =
    run_ok
      (target ~budget:100 ~pal ~entry:"m"
         [ f "m" [ "rsa_sign"; "TPM_Seal"; "tpm_transmit" ] 1 ])
  in
  Alcotest.(check bool) "over budget" true (fired "tcb-budget" fs)

let test_rule_slb_region () =
  let region_findings size =
    let pal = raw_pal ~app_code:(String.make size 'x') (Printf.sprintf "pal-%d" size) in
    List.filter_map
      (fun fi ->
        if fi.Rules.rule = "slb-region" then
          Some (Rules.severity_name fi.Rules.severity, fi.Rules.location)
        else None)
      (run_ok (target ~pal ~entry:"m" [ f "m" [] 1 ]))
  in
  let check what expected size =
    Alcotest.(check (list (pair string string))) what expected (region_findings size)
  in
  (* 58,000 bytes fit the standard region (61,116) but not the optimized
     one (56,702), so the default launch would fail *)
  check "optimized-only overflow is an error" [ ("error", "optimized") ] 58_000;
  check "oversized for both flavors" [ ("error", "optimized"); ("error", "standard") ] 61_117;
  check "90% warning" [ ("warning", "") ] 56_000;
  check "small code is silent" [] 50_000

let test_rule_unnecessary_module () =
  let pal = raw_pal ~modules:[ Pal.Memory_management ] "padded" in
  let fs = run_ok (target ~pal ~entry:"m" [ f "m" [ "memcpy" ] 1 ]) in
  Alcotest.(check bool) "unnecessary module warning" true (fired "unnecessary-module" fs)

let test_rule_missing_module () =
  let fs = run_ok (target ~entry:"m" [ f "m" [ "malloc" ] 1 ]) in
  Alcotest.(check bool) "missing module error" true (fired "missing-module" fs);
  (* linking it clears the finding *)
  let pal = raw_pal ~modules:[ Pal.Memory_management ] "heap" in
  let fs = run_ok (target ~pal ~entry:"m" [ f "m" [ "malloc" ] 1 ]) in
  Alcotest.(check bool) "linked clears it" false (fired "missing-module" fs)

let test_rule_forbidden_call () =
  let fs = run_ok (target ~entry:"m" [ f "m" [ "socket" ] 1 ]) in
  Alcotest.(check bool) "socket forbidden" true (fired "forbidden-call" fs);
  let fs = run_ok (target ~entry:"m" [ f "m" [ "gettimeofday" ] 1 ]) in
  Alcotest.(check bool) "time-of-day forbidden" true (fired "forbidden-call" fs)

let test_rule_missing_zeroize () =
  let fs =
    run_ok (target ~entry:"m" [ f "m" [ "TPM_Unseal"; "TPM_Seal"; "pal_output_write" ] 1 ])
  in
  Alcotest.(check bool) "missing zeroize" true (fired "missing-zeroize" fs);
  let fs =
    run_ok
      (target ~entry:"m"
         [ f "m" [ "TPM_Unseal"; "TPM_Seal"; "pal_output_write"; "zeroize_secrets" ] 1 ])
  in
  Alcotest.(check bool) "zeroize satisfies" false (fired "missing-zeroize" fs)

let test_rule_stack_depth () =
  (* 37 shape-only frames at the opaque 128 bytes each: 4,736 > 4,096 *)
  let n = (Layout.stack_size / Absint.opaque_frame_bytes) + 5 in
  let chain =
    List.init n (fun i ->
        f (Printf.sprintf "f%d" i)
          (if i = n - 1 then [] else [ Printf.sprintf "f%d" (i + 1) ])
          1)
  in
  let a = analyze_ok (target ~entry:"f0" chain) in
  Alcotest.(check bool) "deep chain is a stack-bound error" true
    (List.exists
       (fun fi -> fi.Rules.rule = "stack-bound" && fi.Rules.severity = Rules.Error)
       a.Rules.findings);
  match a.Rules.absint.Absint.stack with
  | Absint.Bounded b -> Alcotest.(check int) "proved bound" (n * Absint.opaque_frame_bytes) b
  | Absint.Unbounded -> Alcotest.fail "an acyclic chain has a bounded stack"

let test_rule_dead_function () =
  let fs = run_ok (target ~entry:"m" [ f "m" [] 1; f "orphan" [] 1 ]) in
  Alcotest.(check bool) "dead function info" true (fired "dead-function" fs)

let test_rule_unresolved () =
  let fs = run_ok (target ~entry:"m" [ f "m" [ "mystery_helper" ] 1 ]) in
  Alcotest.(check bool) "unresolved warning" true (fired "unresolved-callee" fs)

let test_unknown_entry () =
  Alcotest.(check bool) "driver refuses" true
    (Result.is_error (Rules.run (target ~entry:"nope" [ f "m" [] 1 ])))

let test_rule_duplicate_definition () =
  let fs =
    run_ok (target ~entry:"m" [ f "m" [ "helper" ] 2; f "helper" [] 3; f "helper" [] 7 ])
  in
  let dups = List.filter (fun fi -> fi.Rules.rule = "duplicate-definition") fs in
  Alcotest.(check int) "one warning" 1 (List.length dups);
  let fi = List.hd dups in
  Alcotest.(check bool) "warning severity" true (fi.Rules.severity = Rules.Warning);
  Alcotest.(check string) "subject" "helper" fi.Rules.subject;
  Alcotest.(check string) "names both sites" "definitions #2 and #3" fi.Rules.location;
  Alcotest.(check string) "message names kept and shadowed"
    "helper is defined more than once: the slicer keeps definition #2 (3 LOC) and \
     definition #3 (7 LOC) is silently shadowed"
    fi.Rules.message;
  (* unique definitions stay silent *)
  let fs = run_ok (target ~entry:"m" [ f "m" [ "helper" ] 2; f "helper" [] 3 ]) in
  Alcotest.(check bool) "no false positive" false (fired "duplicate-definition" fs)

let test_strict_should_fail () =
  (* a duplicate definition is warning-only: passes by default, blocks
     under --strict *)
  let fs =
    run_ok (target ~entry:"m" [ f "m" [ "helper" ] 2; f "helper" [] 3; f "helper" [] 7 ])
  in
  Alcotest.(check int) "no errors" 0 (Rules.errors fs);
  Alcotest.(check int) "one warning" 1 (Rules.warnings fs);
  Alcotest.(check bool) "default passes" false (Rules.should_fail fs);
  Alcotest.(check bool) "strict fails on warnings" true (Rules.should_fail ~strict:true fs);
  Alcotest.(check bool) "strict on clean passes" false (Rules.should_fail ~strict:true []);
  let err =
    [ { Rules.rule = "x"; severity = Rules.Error; subject = "s"; location = ""; message = "" } ]
  in
  Alcotest.(check bool) "errors always fail" true (Rules.should_fail err)

let test_finding_order () =
  let mk rule subject location =
    { Rules.rule; severity = Rules.Info; subject; location; message = "" }
  in
  Alcotest.(check bool) "rule id dominates" true
    (Rules.compare_findings (mk "a-rule" "z" "z") (mk "b-rule" "a" "a") < 0);
  Alcotest.(check bool) "subject next" true
    (Rules.compare_findings (mk "r" "a" "z") (mk "r" "b" "a") < 0);
  Alcotest.(check bool) "location next" true
    (Rules.compare_findings (mk "r" "s" "a") (mk "r" "s" "b") < 0);
  (* Rules.run emits in the canonical order *)
  let fs = run_ok (Models.secret_branch ()) in
  Alcotest.(check bool) "run output sorted" true (List.sort Rules.compare_findings fs = fs)

(* --- abstract interpretation: frames, stack bounds, buffer bounds --- *)

let absint_of ?(effects = []) functions ~entry =
  Absint.analyze ~table:(Effects.make effects)
    (Callgraph.build (program functions))
    ~entry

let absint_target (t : Rules.target) =
  Absint.analyze
    ~table:(Effects.make t.Rules.effects)
    (Callgraph.build t.Rules.program)
    ~entry:t.Rules.entry

let test_frame_bytes () =
  Alcotest.(check int) "shape-only is opaque" Absint.opaque_frame_bytes
    (Absint.frame_bytes (f "s" [ "x" ] 1));
  let with_body =
    Extract.fn ~params:[ "a"; "b" ]
      ~stmts:
        [
          Extract.Local { name = "buf"; elems = 16; elem_size = 4 };
          Extract.Assign { dst = "x"; src = Extract.Num 1 };
          Extract.For
            {
              var = "i";
              lo = Extract.Num 0;
              hi = Extract.Num 4;
              body = [ Extract.Store { buf = "buf"; index = Extract.Var "i"; src = Extract.Var "x" } ];
            };
          Extract.Return (Some (Extract.Var "x"));
        ]
      "m"
  in
  (* 32 base + 64 for buf + 8 words x {a, b, x, i} *)
  Alcotest.(check int) "declared frame" (32 + 64 + 32) (Absint.frame_bytes with_body)

let test_stack_composition () =
  let leaf name elems =
    Extract.fn
      ~stmts:[ Extract.Local { name = "b"; elems; elem_size = 1 }; Extract.Return None ]
      name
  in
  let fns =
    [
      Extract.fn
        ~stmts:
          [
            Extract.Call { dst = None; callee = "big"; args = [] };
            Extract.Call { dst = None; callee = "small"; args = [] };
            Extract.Call { dst = None; callee = "memcpy"; args = [] };
          ]
        "m";
      leaf "big" 512;
      leaf "small" 8;
    ]
  in
  let r = absint_of fns ~entry:"m" in
  (* m is 32, big 544, small 40, the external memcpy a conservative 128;
     worst chain is through big *)
  (match r.Absint.stack with
  | Absint.Bounded b -> Alcotest.(check int) "bound" (32 + 544) b
  | Absint.Unbounded -> Alcotest.fail "expected a bounded stack");
  Alcotest.(check (list string)) "worst chain" [ "m"; "big" ] r.Absint.worst_chain;
  (match (absint_of [ f "m" [ "r" ] 1; f "r" [ "r" ] 1 ] ~entry:"m").Absint.stack with
  | Absint.Unbounded -> ()
  | Absint.Bounded _ -> Alcotest.fail "recursion must be unbounded");
  (* an external leaf can carry the worst chain *)
  let ext = absint_of [ Extract.fn ~stmts:[ Extract.Call { dst = None; callee = "memcpy"; args = [] } ] "m" ] ~entry:"m" in
  Alcotest.(check (list string)) "external worst leaf" [ "m"; "memcpy" ] ext.Absint.worst_chain

let test_interval_bounds () =
  let oob =
    [
      Extract.fn
        ~stmts:
          [
            Extract.Local { name = "b"; elems = 4; elem_size = 1 };
            Extract.For
              {
                var = "i";
                lo = Extract.Num 0;
                hi = Extract.Num 6;
                body = [ Extract.Store { buf = "b"; index = Extract.Var "i"; src = Extract.Num 1 } ];
              };
          ]
        "m";
    ]
  in
  let r = absint_of oob ~entry:"m" in
  Alcotest.(check int) "one violation" 1 (List.length r.Absint.bounds);
  let v = List.hd r.Absint.bounds in
  Alcotest.(check string) "function" "m" v.Absint.in_function;
  Alcotest.(check string) "buffer" "b" v.Absint.buffer;
  Alcotest.(check int) "declared elems" 4 v.Absint.size_elems;
  Alcotest.(check bool) "is a write" true v.Absint.is_write;
  Alcotest.(check bool) "rules layer surfaces it" true
    (fired "buffer-bounds" (run_ok (target ~entry:"m" oob)));
  (* masking the index proves it in bounds even when the value is Top *)
  let masked =
    [
      Extract.fn
        ~stmts:
          [
            Extract.Local { name = "b"; elems = 4; elem_size = 1 };
            Extract.Store
              {
                buf = "b";
                index = Extract.Bin (Extract.Band, Extract.Var "x", Extract.Num 3);
                src = Extract.Num 1;
              };
          ]
        "m";
    ]
  in
  Alcotest.(check int) "mask proves in-bounds" 0
    (List.length (absint_of masked ~entry:"m").Absint.bounds)

(* --- constant-time lint --- *)

let unseal dst = Extract.Call { dst = Some dst; callee = "TPM_Unseal"; args = [] }
let seal v = Extract.Call { dst = None; callee = "TPM_Seal"; args = [ Extract.Var v ] }

let test_ct_branch_and_override () =
  let body guard =
    [
      unseal "s";
      Extract.Call { dst = Some "ok"; callee = guard; args = [ Extract.Var "s" ] };
      Extract.If
        {
          cond = Extract.Bin (Extract.Eq, Extract.Var "ok", Extract.Num 0);
          then_ = [ Extract.Assign { dst = "y"; src = Extract.Num 1 } ];
          else_ = [];
        };
      seal "s";
      Extract.Return None;
    ]
  in
  (* an opaque guard propagates the secret into the branch condition *)
  let r = absint_of [ Extract.fn ~stmts:(body "opaque_check") "m" ] ~entry:"m" in
  (match r.Absint.ct with
  | [ v ] ->
      Alcotest.(check string) "in m" "m" v.Absint.ct_function;
      Alcotest.(check bool) "branch kind" true (v.Absint.kind = Absint.Branch);
      Alcotest.(check string) "source" "TPM_Unseal" v.Absint.source
  | vs -> Alcotest.fail (Printf.sprintf "expected one ct violation, got %d" (List.length vs)));
  (* the per-PAL Sanitizer override declassifies the comparison result *)
  let clean =
    absint_of
      ~effects:[ ("opaque_check", Effects.Sanitizer) ]
      [ Extract.fn ~stmts:(body "opaque_check") "m" ]
      ~entry:"m"
  in
  Alcotest.(check int) "override declassifies" 0 (List.length clean.Absint.ct)

let test_ct_loop_bound () =
  let fns =
    [
      Extract.fn
        ~stmts:
          [
            unseal "s";
            Extract.For
              {
                var = "i";
                lo = Extract.Num 0;
                hi = Extract.Var "s";
                body = [ Extract.Assign { dst = "x"; src = Extract.Var "i" } ];
              };
            seal "s";
          ]
        "m";
    ]
  in
  let r = absint_of fns ~entry:"m" in
  Alcotest.(check bool) "secret loop bound flagged" true
    (List.exists (fun v -> v.Absint.kind = Absint.Loop_bound) r.Absint.ct)

let test_ct_interprocedural () =
  (* the secret crosses a call boundary as an argument; the branch is in
     the callee *)
  let fns =
    [
      Extract.fn
        ~stmts:
          [
            unseal "s";
            Extract.Call { dst = Some "r"; callee = "helper"; args = [ Extract.Var "s" ] };
            seal "s";
          ]
        "m";
      Extract.fn ~params:[ "p" ]
        ~stmts:
          [
            Extract.If
              {
                cond = Extract.Bin (Extract.Eq, Extract.Var "p", Extract.Num 0);
                then_ = [ Extract.Return (Some (Extract.Num 1)) ];
                else_ = [];
              };
            Extract.Return (Some (Extract.Num 0));
          ]
        "helper";
    ]
  in
  let r = absint_of fns ~entry:"m" in
  (match r.Absint.ct with
  | [ v ] ->
      Alcotest.(check string) "flagged in the callee" "helper" v.Absint.ct_function;
      Alcotest.(check bool) "branch kind" true (v.Absint.kind = Absint.Branch);
      Alcotest.(check string) "source survives the call" "TPM_Unseal" v.Absint.source
  | vs -> Alcotest.fail (Printf.sprintf "expected one ct violation, got %d" (List.length vs)))

(* --- planted-defect PALs --- *)

let test_planted_stack_hog () =
  let t = Models.stack_hog () in
  let fs = run_ok t in
  Alcotest.(check (list string)) "only stack-bound fires" [ "stack-bound" ] (rules_fired fs);
  Alcotest.(check int) "one error" 1 (Rules.errors fs);
  let fi = List.hd fs in
  Alcotest.(check string) "names the entry" "pal_main" fi.Rules.subject;
  Alcotest.(check string) "names the overflowing chain"
    "pal_main -> compress_block -> huffman_emit" fi.Rules.location;
  match (absint_target t).Absint.stack with
  | Absint.Bounded b ->
      Alcotest.(check int) "proved bound" 4424 b;
      Alcotest.(check bool) "over the 4 KB stack" true (b > Layout.stack_size)
  | Absint.Unbounded -> Alcotest.fail "stack-hog is loop-free, bound must be finite"

let test_planted_secret_branch () =
  let t = Models.secret_branch () in
  let fs = run_ok t in
  Alcotest.(check (list string)) "both ct rules fire"
    [ "secret-branch"; "secret-index" ] (rules_fired fs);
  Alcotest.(check int) "two errors" 2 (Rules.errors fs);
  let subjects rule =
    List.map (fun fi -> fi.Rules.subject) (List.filter (fun fi -> fi.Rules.rule = rule) fs)
  in
  Alcotest.(check (list string)) "branch in auth_main" [ "auth_main" ] (subjects "secret-branch");
  Alcotest.(check (list string)) "index in pin_compare" [ "pin_compare" ]
    (subjects "secret-index");
  let r = absint_target t in
  Alcotest.(check bool) "every violation traces to TPM_Unseal" true
    (r.Absint.ct <> [] && List.for_all (fun v -> v.Absint.source = "TPM_Unseal") r.Absint.ct);
  (* its stack is fine — only the constant-time lint complains *)
  match r.Absint.stack with
  | Absint.Bounded b -> Alcotest.(check bool) "stack fits" true (b <= Layout.stack_size)
  | Absint.Unbounded -> Alcotest.fail "secret-branch must have a bounded stack"

(* --- the five shipped PALs are clean --- *)

let test_shipped_pals_clean () =
  List.iter
    (fun (key, t) ->
      let fs = run_ok t in
      Alcotest.(check int) (key ^ " error findings") 0 (Rules.errors fs);
      Alcotest.(check (list string)) (key ^ " all findings") [] (rules_fired fs))
    (Models.all ())

(* --- golden reports --- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden key () =
  match Models.find key with
  | None -> Alcotest.fail ("unknown model " ^ key)
  | Some t ->
      let expected = read_file (Filename.concat "golden" (key ^ ".txt")) in
      Alcotest.(check string) (key ^ " report") expected
        (Report.to_text ~key t (analyze_ok t))

(* --- SARIF export --- *)

let test_sarif_roundtrip () =
  let results =
    List.map (fun (key, t) -> (key, t, analyze_ok t)) (Models.all ())
  in
  let doc = Flicker_obs.Json.to_string (Report.sarif results) in
  match Flicker_obs.Json.of_string doc with
  | Error e -> Alcotest.fail e
  | Ok (Flicker_obs.Json.Obj fields) ->
      Alcotest.(check bool) "has runs" true (List.mem_assoc "runs" fields);
      (match List.assoc "runs" fields with
      | Flicker_obs.Json.List runs -> Alcotest.(check int) "five runs" 5 (List.length runs)
      | _ -> Alcotest.fail "runs not a list")
  | Ok _ -> Alcotest.fail "not an object"

(* --- properties --- *)

(* random programs: n functions f0..f(n-1), each calling a random mix of
   defined names (cycles allowed) and stdlib/external names *)
let gen_program externals =
  QCheck.Gen.(
    int_range 1 10 >>= fun n ->
    let fname i = Printf.sprintf "f%d" i in
    let callee =
      frequency
        [ (3, map fname (int_range 0 (n - 1))); (1, oneofl externals) ]
    in
    let body = list_size (int_range 0 4) callee in
    map
      (fun bodies ->
        { Extract.functions = List.mapi (fun i calls -> f (fname i) calls 1) bodies;
          types = [] })
      (list_repeat n body))

let print_program p =
  String.concat "; "
    (List.map
       (fun fn -> fn.Extract.fname ^ "->[" ^ String.concat "," fn.Extract.calls ^ "]")
       p.Extract.functions)

let arb_program externals = QCheck.make ~print:print_program (gen_program externals)

let prop_slice_equals_reachable =
  QCheck.Test.make ~name:"extraction slice = call-graph reachable set" ~count:200
    (arb_program [ "printf"; "malloc"; "mystery_helper" ])
    (fun p ->
      match Extract.extract p ~target:"f0" with
      | Error e -> QCheck.Test.fail_report e
      | Ok e ->
          let slice =
            List.sort compare (List.map (fun fn -> fn.Extract.fname) e.Extract.required_functions)
          in
          let reach = List.sort compare (Callgraph.reachable (Callgraph.build p) ~root:"f0") in
          slice = reach)

let add_sanitizers p =
  {
    p with
    Extract.functions =
      List.map
        (fun fn ->
          {
            fn with
            Extract.calls =
              List.concat_map
                (fun c -> if c = "pal_output_write" then [ "TPM_Seal"; c ] else [ c ])
                fn.Extract.calls;
          })
        p.Extract.functions;
  }

let prop_taint_monotone =
  QCheck.Test.make ~name:"taint verdicts are monotone under adding sanitizers" ~count:200
    (arb_program [ "TPM_Unseal"; "TPM_Seal"; "pal_output_write"; "memcpy" ])
    (fun p ->
      let count prog =
        List.length (Taint.analyze ~table (Callgraph.build prog) ~entry:"f0")
      in
      count (add_sanitizers p) <= count p)

(* random statement-ful programs for the abstract-interpretation
   soundness property: n functions g0..g(n-1) where gi only calls gj
   with j > i (never recursive), each declaring one buffer and mixing
   counted loops, branches, masked indices, and deliberately wild
   indices — so both the in-bounds and out-of-bounds paths of the
   interval pass get exercised against the concrete interpreter *)
let gen_stmt_program =
  QCheck.Gen.(
    let gname i = Printf.sprintf "g%d" i in
    (* arithmetic over the parameter, the running scalar, and small
       constants; depth-bounded so terms stay readable *)
    let gen_expr =
      let leaf =
        oneof
          [
            map (fun k -> Extract.Num k) (int_range (-3) 9);
            oneofl [ Extract.Var "a"; Extract.Var "x" ];
          ]
      in
      let op =
        oneofl
          Extract.[ Add; Sub; Mul; Div; Mod; Band; Eq; Ne; Lt; Le ]
      in
      let node l r o = Extract.Bin (o, l, r) in
      oneof [ leaf; map3 node leaf leaf op; map3 node (map3 node leaf leaf op) leaf op ]
    in
    let gen_index =
      oneof
        [
          return (Extract.Var "i");
          map (fun m -> Extract.Bin (Extract.Band, Extract.Var "x", Extract.Num m)) (int_range 0 7);
          map (fun c -> Extract.Num c) (int_range (-2) 9);
          gen_expr;
        ]
    in
    let gen_body i n =
      int_range 1 8 >>= fun elems ->
      gen_expr >>= fun e0 ->
      gen_index >>= fun widx ->
      gen_index >>= fun ridx ->
      gen_expr >>= fun src ->
      int_range 0 5 >>= fun iters ->
      bool >>= fun branchy ->
      (if i + 1 >= n then return []
       else
         bool >>= fun does_call ->
         if not does_call then return []
         else
           map
             (fun j ->
               [ Extract.Call { dst = Some "r"; callee = gname j; args = [ Extract.Var "x" ] } ])
             (int_range (i + 1) (n - 1)))
      >>= fun call_tail ->
      return
        ([
           Extract.Local { name = "buf"; elems; elem_size = 1 };
           Extract.Assign { dst = "x"; src = e0 };
           Extract.For
             {
               var = "i";
               lo = Extract.Num 0;
               hi = Extract.Num iters;
               body =
                 [
                   Extract.Store { buf = "buf"; index = widx; src };
                   Extract.Assign { dst = "x"; src = Extract.Load { buf = "buf"; index = ridx } };
                 ];
             };
         ]
        @ (if branchy then
             [
               Extract.If
                 {
                   cond = Extract.Bin (Extract.Lt, Extract.Var "x", Extract.Num 3);
                   then_ =
                     [
                       Extract.Store
                         {
                           buf = "buf";
                           index = Extract.Bin (Extract.Band, Extract.Var "x", Extract.Num 3);
                           src = Extract.Num 1;
                         };
                     ];
                   else_ = [];
                 };
             ]
           else [])
        @ call_tail
        @ [ Extract.Return (Some (Extract.Var "x")) ])
    in
    int_range 1 4 >>= fun n ->
    let rec bodies i =
      if i >= n then return []
      else
        gen_body i n >>= fun b ->
        bodies (i + 1) >>= fun rest -> return (b :: rest)
    in
    map
      (fun bs ->
        {
          Extract.functions =
            List.mapi (fun i stmts -> Extract.fn ~params:[ "a" ] ~stmts ~loc:10 (gname i)) bs;
          types = [];
        })
      (bodies 0))

let print_stmt_program p =
  String.concat "; "
    (List.map
       (fun fn ->
         Printf.sprintf "%s(%s)->[%s] %d stmts" fn.Extract.fname
           (String.concat "," fn.Extract.params)
           (String.concat "," fn.Extract.calls)
           (List.length fn.Extract.stmts))
       p.Extract.functions)

let prop_absint_soundness =
  QCheck.Test.make ~name:"concrete runs stay inside the abstract envelope" ~count:200
    (QCheck.make ~print:print_stmt_program gen_stmt_program)
    (fun p ->
      let g = Callgraph.build p in
      let r = Absint.analyze ~table:(Effects.make []) g ~entry:"g0" in
      let obs = Absint.Concrete.run g ~entry:"g0" in
      let stack_ok =
        match r.Absint.stack with
        | Absint.Bounded b -> obs.Absint.Concrete.max_stack_bytes <= b
        | Absint.Unbounded -> true
      in
      let access_ok (a : Absint.Concrete.access) =
        let { Absint.Concrete.in_function; buffer; index; within } = a in
        if within then
          (* every in-bounds concrete index lies in the reported hull *)
          match List.assoc_opt (in_function, buffer) r.Absint.index_hulls with
          | Some hull -> Interval.contains hull index
          | None -> false
        else
          (* every out-of-bounds concrete access was reported abstractly *)
          List.exists
            (fun (v : Absint.bounds_violation) ->
              v.Absint.in_function = in_function && v.Absint.buffer = buffer)
            r.Absint.bounds
      in
      stack_ok && (not obs.Absint.Concrete.out_of_fuel)
      && List.for_all access_ok obs.Absint.Concrete.accesses)

let () =
  Alcotest.run "analysis"
    [
      ( "callgraph",
        [
          Alcotest.test_case "reachable + dead" `Quick test_reachable;
          Alcotest.test_case "recursion detection" `Quick test_recursion_detection;
        ] );
      ( "taint",
        [
          Alcotest.test_case "direct leak" `Quick test_direct_leak;
          Alcotest.test_case "sanitized flow" `Quick test_sanitized_flow;
          Alcotest.test_case "order matters" `Quick test_order_matters;
          Alcotest.test_case "interprocedural leak" `Quick test_interprocedural_leak;
          Alcotest.test_case "callee sanitizes" `Quick test_callee_sanitizes;
          Alcotest.test_case "zeroize shapes" `Quick test_zeroize_shapes;
        ] );
      ( "rules",
        [
          Alcotest.test_case "recursion" `Quick test_rule_recursion;
          Alcotest.test_case "secret leak" `Quick test_rule_secret_leak;
          Alcotest.test_case "tcb budget" `Quick test_rule_tcb_budget;
          Alcotest.test_case "slb region" `Quick test_rule_slb_region;
          Alcotest.test_case "unnecessary module" `Quick test_rule_unnecessary_module;
          Alcotest.test_case "missing module" `Quick test_rule_missing_module;
          Alcotest.test_case "forbidden call" `Quick test_rule_forbidden_call;
          Alcotest.test_case "missing zeroize" `Quick test_rule_missing_zeroize;
          Alcotest.test_case "stack depth" `Quick test_rule_stack_depth;
          Alcotest.test_case "dead function" `Quick test_rule_dead_function;
          Alcotest.test_case "unresolved callee" `Quick test_rule_unresolved;
          Alcotest.test_case "unknown entry" `Quick test_unknown_entry;
          Alcotest.test_case "duplicate definition" `Quick test_rule_duplicate_definition;
          Alcotest.test_case "strict should_fail" `Quick test_strict_should_fail;
          Alcotest.test_case "finding order" `Quick test_finding_order;
        ] );
      ( "absint",
        [
          Alcotest.test_case "frame bytes" `Quick test_frame_bytes;
          Alcotest.test_case "stack composition" `Quick test_stack_composition;
          Alcotest.test_case "interval bounds" `Quick test_interval_bounds;
          Alcotest.test_case "ct branch + override" `Quick test_ct_branch_and_override;
          Alcotest.test_case "ct loop bound" `Quick test_ct_loop_bound;
          Alcotest.test_case "ct interprocedural" `Quick test_ct_interprocedural;
        ] );
      ( "planted PALs",
        [
          Alcotest.test_case "stack-hog caught" `Quick test_planted_stack_hog;
          Alcotest.test_case "secret-branch caught" `Quick test_planted_secret_branch;
        ] );
      ( "shipped PALs",
        Alcotest.test_case "all five clean" `Quick test_shipped_pals_clean
        :: List.map
             (fun key -> Alcotest.test_case ("golden " ^ key) `Quick (test_golden key))
             (Models.keys () @ Models.planted_keys ()) );
      ("export", [ Alcotest.test_case "sarif" `Quick test_sarif_roundtrip ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_slice_equals_reachable; prop_taint_monotone; prop_absint_soundness ] );
    ]
