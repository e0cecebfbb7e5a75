module Pal = Flicker_slb.Pal
module Layout = Flicker_slb.Layout
module Slb_image = Flicker_slb.Slb_image
module Extract = Flicker_extract.Extract

type severity = Info | Warning | Error

let severity_name = function Info -> "info" | Warning -> "warning" | Error -> "error"

type finding = {
  rule : string;
  severity : severity;
  subject : string;
  location : string;  (* offending site within the subject; "" when n/a *)
  message : string;
}

type target = {
  pal : Pal.t;
  program : Extract.program;
  entry : string;
  budget_loc : int;
  effects : (string * Effects.effect_class) list;
}

type ctx = {
  target : target;
  graph : Callgraph.t;
  extraction : Extract.extraction;
  table : Effects.table;
  absint : Absint.result;
}

type rule = { id : string; title : string; severity : severity; check : ctx -> finding list }

(* Which optional modules a module itself depends on: the utilities sit
   on the driver; the secure channel generates, seals, and uses keys. *)
let module_requires = function
  | Pal.Tpm_utilities -> [ Pal.Tpm_driver ]
  | Pal.Secure_channel -> [ Pal.Tpm_utilities; Pal.Crypto ]
  | Pal.Os_protection | Pal.Tpm_driver | Pal.Crypto | Pal.Memory_management -> []

let implied_modules extraction =
  let rec close acc = function
    | [] -> acc
    | m :: rest ->
        if List.mem m acc then close acc rest
        else close (m :: acc) (module_requires m @ rest)
  in
  List.sort_uniq compare (close [] (Extract.suggested_modules extraction))

let module_name m = (Pal.info m).Pal.module_name

let recursion_rule =
  {
    id = "recursion";
    title = "recursive call cycle on the fixed PAL stack";
    severity = Error;
    check =
      (fun ctx ->
        let reach = Callgraph.reachable ctx.graph ~root:ctx.target.entry in
        List.filter_map
          (fun group ->
            if List.exists (fun n -> List.mem n reach) group then
              Some
                {
                  rule = "recursion";
                  severity = Error;
                  subject = String.concat " -> " group;
                  location = "";
                  message =
                    Printf.sprintf
                      "call cycle {%s} can recurse; the PAL stack is a fixed %d bytes \
                       and cannot grow"
                      (String.concat ", " group) Layout.stack_size;
                }
            else None)
          (Callgraph.recursive_groups ctx.graph));
  }

let secret_leak_rule =
  {
    id = "secret-leak";
    title = "secret reaches a sink without sealing/encryption";
    severity = Error;
    check =
      (fun ctx ->
        List.map
          (fun l ->
            {
              rule = "secret-leak";
              severity = Error;
              subject = l.Taint.in_function;
              location = "";
              message =
                Printf.sprintf
                  "secret from %s can reach sink %s in %s with no sanitizer on the \
                   path; seal or encrypt before it leaves the SLB (Section 4.3)"
                  l.Taint.source l.Taint.sink l.Taint.in_function;
            })
          (Taint.analyze ~table:ctx.table ctx.graph ~entry:ctx.target.entry));
  }

let missing_zeroize_rule =
  {
    id = "missing-zeroize";
    title = "secrets produced but not zeroized before exit";
    severity = Error;
    check =
      (fun ctx ->
        let table = ctx.table in
        if
          Taint.has_secret_source ~table ctx.graph ~entry:ctx.target.entry
          && not (Taint.ends_with_zeroize ~table ctx.graph ~entry:ctx.target.entry)
        then
          [
            {
              rule = "missing-zeroize";
              severity = Error;
              subject = ctx.target.entry;
              location = "";
              message =
                "the slice handles secrets but the entry does not end by zeroizing \
                 them; Flicker requires erasing all secrets before session teardown \
                 (Section 5.1)";
            };
          ]
        else []);
  }

let tcb_budget_rule =
  {
    id = "tcb-budget";
    title = "TCB lines of code over the declared budget";
    severity = Error;
    check =
      (fun ctx ->
        let loc = Pal.total_loc ctx.target.pal in
        if loc > ctx.target.budget_loc then
          [
            {
              rule = "tcb-budget";
              severity = Error;
              subject = ctx.target.pal.Pal.name;
              location = "";
              message =
                Printf.sprintf
                  "TCB is %d LOC against a declared budget of %d; drop a module or \
                   raise the budget deliberately"
                  loc ctx.target.budget_loc;
            };
          ]
        else []);
  }

let slb_region_rule =
  {
    id = "slb-region";
    title = "linked code against the 64 KB SLB region";
    severity = Error;
    check =
      (fun ctx ->
        let pal = ctx.target.pal in
        let size = String.length pal.Pal.code in
        let finding severity location message =
          { rule = "slb-region"; severity; subject = pal.Pal.name; location; message }
        in
        let unlinked =
          List.filter_map
            (fun (flavor, name, image) ->
              match image with
              | Ok _ -> None
              | Error _ ->
                  Some
                    (finding Error name
                       (Printf.sprintf
                          "linked code is %d bytes but only %d fit in the %s SLB's PAL \
                           region (SKINIT measures at most 64 KB)"
                          size (Slb_image.capacity flavor) name)))
            [
              (Slb_image.Standard, "standard", pal.Pal.standard);
              (Slb_image.Optimized, "optimized", pal.Pal.optimized);
            ]
        in
        (* the optimized region is the smaller one, and the default launch *)
        let limit = Slb_image.capacity Slb_image.Optimized in
        if unlinked <> [] then unlinked
        else if size * 10 > limit * 9 then
          [
            finding Warning ""
              (Printf.sprintf
                 "linked code is %d of %d bytes (over 90%% of the optimized SLB's PAL \
                  region)"
                 size limit);
          ]
        else []);
  }

let unnecessary_module_rule =
  {
    id = "unnecessary-module";
    title = "linked module not implied by the slice";
    severity = Warning;
    check =
      (fun ctx ->
        let implied = implied_modules ctx.extraction in
        List.filter_map
          (fun m ->
            (* ring-3 confinement is a policy choice, never call-implied *)
            if m = Pal.Os_protection || List.mem m implied then None
            else
              Some
                {
                  rule = "unnecessary-module";
                  severity = Warning;
                  subject = module_name m;
                  location = "";
                  message =
                    Printf.sprintf
                      "module %s (%d LOC) is linked but nothing in the slice needs it: \
                       unnecessary TCB"
                      (module_name m) (Pal.info m).Pal.loc;
                })
          ctx.target.pal.Pal.modules);
  }

let missing_module_rule =
  {
    id = "missing-module";
    title = "slice needs a module that is not linked";
    severity = Error;
    check =
      (fun ctx ->
        let linked = ctx.target.pal.Pal.modules in
        List.filter_map
          (fun m ->
            if List.mem m linked then None
            else
              Some
                {
                  rule = "missing-module";
                  severity = Error;
                  subject = module_name m;
                  location = "";
                  message =
                    Printf.sprintf
                      "the slice calls into %s but the PAL does not link it; the call \
                       would land in unmeasured memory"
                      (module_name m);
                })
          (implied_modules ctx.extraction));
  }

let forbidden_call_rule =
  {
    id = "forbidden-call";
    title = "call that cannot exist inside a PAL";
    severity = Error;
    check =
      (fun ctx ->
        List.filter_map
          (fun (name, advice) ->
            match advice with
            | Extract.Forbidden why ->
                Some
                  { rule = "forbidden-call"; severity = Error; subject = name; location = ""; message = why }
            | _ -> None)
          ctx.extraction.Extract.stdlib_calls);
  }

let eliminate_call_rule =
  {
    id = "eliminate-call";
    title = "call that should be eliminated";
    severity = Warning;
    check =
      (fun ctx ->
        List.filter_map
          (fun (name, advice) ->
            match advice with
            | Extract.Eliminate ->
                Some
                  {
                    rule = "eliminate-call";
                    severity = Warning;
                    subject = name;
                    location = "";
                    message =
                      name ^ " makes no sense inside a PAL; eliminate the call \
                              (Section 5.2)";
                  }
            | _ -> None)
          ctx.extraction.Extract.stdlib_calls);
  }

let unresolved_callee_rule =
  {
    id = "unresolved-callee";
    title = "callee neither defined nor known stdlib";
    severity = Warning;
    check =
      (fun ctx ->
        List.map
          (fun name ->
            {
              rule = "unresolved-callee";
              severity = Warning;
              subject = name;
              location = "";
              message =
                name
                ^ " is called but neither defined nor a recognized library function; \
                   supply an implementation or the PAL will not link";
            })
          ctx.extraction.Extract.unresolved);
  }

let dead_function_rule =
  {
    id = "dead-function";
    title = "defined function unreachable from the entry";
    severity = Info;
    check =
      (fun ctx ->
        List.map
          (fun name ->
            {
              rule = "dead-function";
              severity = Info;
              subject = name;
              location = "";
              message =
                name
                ^ " is defined in the program but unreachable from the entry; it \
                   would ride along as dead TCB if carried into the PAL";
            })
          (Callgraph.unreachable ctx.graph ~root:ctx.target.entry));
  }

(* ---- abstract-interpretation-backed rules (Absint clients) ---- *)

let stack_bound_rule =
  {
    id = "stack-bound";
    title = "proved worst-case stack exceeds the 4 KB PAL stack";
    severity = Error;
    check =
      (fun ctx ->
        let r = ctx.absint in
        match r.Absint.stack with
        | Absint.Unbounded -> [] (* the recursion rule already fired *)
        | Absint.Bounded bytes when bytes > Layout.stack_size ->
            let chain = String.concat " -> " r.Absint.worst_chain in
            [
              {
                rule = "stack-bound";
                severity = Error;
                subject = ctx.target.entry;
                location = chain;
                message =
                  Printf.sprintf
                    "proved worst-case stack is %d bytes but the PAL stack is a fixed \
                     %d; deepest chain: %s"
                    bytes Layout.stack_size chain;
              };
            ]
        | Absint.Bounded _ -> []);
  }

let buffer_bounds_rule =
  {
    id = "buffer-bounds";
    title = "buffer access can go out of bounds";
    severity = Error;
    check =
      (fun ctx ->
        List.map
          (fun (v : Absint.bounds_violation) ->
            {
              rule = "buffer-bounds";
              severity = Error;
              subject = v.Absint.in_function;
              location =
                Printf.sprintf "%s%s" v.Absint.buffer
                  (Domains.Interval.to_string v.Absint.index);
              message =
                Printf.sprintf
                  "%s of %s (%d elements) in %s with abstract index %s escapes the \
                   declared bounds"
                  (if v.Absint.is_write then "write" else "read")
                  v.Absint.buffer v.Absint.size_elems v.Absint.in_function
                  (Domains.Interval.to_string v.Absint.index);
            })
          ctx.absint.Absint.bounds);
  }

let ct_finding (v : Absint.ct_violation) =
  let rule =
    match v.Absint.kind with
    | Absint.Branch | Absint.Loop_bound -> "secret-branch"
    | Absint.Index -> "secret-index"
  in
  {
    rule;
    severity = Error;
    subject = v.Absint.ct_function;
    location = v.Absint.detail;
    message =
      Printf.sprintf
        "%s depends on a secret from %s: %s in %s executes in secret-dependent time; \
         make it constant-time or declassify deliberately via an effects override"
        (Absint.ct_kind_name v.Absint.kind)
        v.Absint.source v.Absint.detail v.Absint.ct_function;
  }

let secret_branch_rule =
  {
    id = "secret-branch";
    title = "branch or loop bound influenced by a secret";
    severity = Error;
    check =
      (fun ctx ->
        List.filter_map
          (fun (v : Absint.ct_violation) ->
            match v.Absint.kind with
            | Absint.Branch | Absint.Loop_bound -> Some (ct_finding v)
            | Absint.Index -> None)
          ctx.absint.Absint.ct);
  }

let secret_index_rule =
  {
    id = "secret-index";
    title = "memory access indexed by a secret";
    severity = Error;
    check =
      (fun ctx ->
        List.filter_map
          (fun (v : Absint.ct_violation) ->
            match v.Absint.kind with
            | Absint.Index -> Some (ct_finding v)
            | Absint.Branch | Absint.Loop_bound -> None)
          ctx.absint.Absint.ct);
  }

let duplicate_definition_rule =
  {
    id = "duplicate-definition";
    title = "function defined more than once";
    severity = Warning;
    check =
      (fun ctx ->
        let seen : (string, int * Extract.func) Hashtbl.t = Hashtbl.create 8 in
        List.concat
          (List.mapi
             (fun i (f : Extract.func) ->
               match Hashtbl.find_opt seen f.Extract.fname with
               | None ->
                   Hashtbl.add seen f.Extract.fname (i, f);
                   []
               | Some (j, first) ->
                   [
                     {
                       rule = "duplicate-definition";
                       severity = Warning;
                       subject = f.Extract.fname;
                       location = Printf.sprintf "definitions #%d and #%d" (j + 1) (i + 1);
                       message =
                         Printf.sprintf
                           "%s is defined more than once: the slicer keeps definition \
                            #%d (%d LOC) and definition #%d (%d LOC) is silently \
                            shadowed"
                           f.Extract.fname (j + 1) first.Extract.loc (i + 1)
                           f.Extract.loc;
                     };
                   ])
             ctx.target.program.Extract.functions));
  }

let rules =
  [
    recursion_rule;
    stack_bound_rule;
    buffer_bounds_rule;
    secret_branch_rule;
    secret_index_rule;
    duplicate_definition_rule;
    secret_leak_rule;
    missing_zeroize_rule;
    tcb_budget_rule;
    slb_region_rule;
    unnecessary_module_rule;
    missing_module_rule;
    forbidden_call_rule;
    eliminate_call_rule;
    unresolved_callee_rule;
    dead_function_rule;
  ]

(* canonical export order: rule id, then function (subject), then
   location, then message — the CLI additionally orders PALs by key, so
   merged text/SARIF output is sorted by (pal, rule, function, location) *)
let compare_findings (a : finding) (b : finding) =
  match compare a.rule b.rule with
  | 0 -> (
      match compare a.subject b.subject with
      | 0 -> (
          match compare a.location b.location with
          | 0 -> compare a.message b.message
          | c -> c)
      | c -> c)
  | c -> c

type analysis = {
  findings : finding list;
  extraction : Extract.extraction;
  absint : Absint.result;
}

let run target =
  match Extract.extract target.program ~target:target.entry with
  | Result.Error msg -> Result.Error msg
  | Result.Ok extraction ->
      let graph = Callgraph.build target.program in
      let table = Effects.make target.effects in
      let absint = Absint.analyze ~table graph ~entry:target.entry in
      let ctx = { target; graph; extraction; table; absint } in
      let findings = List.concat_map (fun r -> r.check ctx) rules in
      Result.Ok
        { findings = List.stable_sort compare_findings findings; extraction; absint }

let count sev findings =
  List.length (List.filter (fun (f : finding) -> f.severity = sev) findings)
let errors findings = count Error findings
let warnings findings = count Warning findings

let should_fail ?(strict = false) findings =
  errors findings > 0 || (strict && warnings findings > 0)
