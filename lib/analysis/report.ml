module J = Flicker_obs.Json
module Sarif = Flicker_obs.Sarif
module Pal = Flicker_slb.Pal
module Layout = Flicker_slb.Layout
module Slb_image = Flicker_slb.Slb_image
module Extract = Flicker_extract.Extract

let slb_limit = Slb_image.capacity Slb_image.Standard

let ct_findings findings =
  List.length
    (List.filter
       (fun (fi : Rules.finding) ->
         fi.Rules.rule = "secret-branch" || fi.Rules.rule = "secret-index")
       findings)

let module_names pal =
  match pal.Pal.modules with
  | [] -> "(none)"
  | ms -> String.concat ", " (List.map (fun m -> (Pal.info m).Pal.module_name) ms)

(* Deterministic per-PAL text report; the golden regression fixtures
   under test/golden/ are exactly this output. *)
let to_text ~key (target : Rules.target) (analysis : Rules.analysis) =
  let buf = Buffer.create 512 in
  let pal = target.Rules.pal in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "== %s (%s) ==\n" key pal.Pal.name;
  add "entry:    %s\n" target.Rules.entry;
  add "modules:  %s\n" (module_names pal);
  add "tcb:      %d LOC of %d budget; linked code %d of %d bytes\n" (Pal.total_loc pal)
    target.Rules.budget_loc
    (String.length pal.Pal.code)
    slb_limit;
  let e = analysis.Rules.extraction in
  add "slice:    %d functions, %d LOC, %d types\n"
    (List.length e.Extract.required_functions)
    e.Extract.extracted_loc
    (List.length e.Extract.required_types);
  let r = analysis.Rules.absint in
  (match r.Absint.stack with
  | Absint.Unbounded ->
      add "stack:    unbounded (recursive call cycle) of %d bytes\n" Layout.stack_size
  | Absint.Bounded bytes ->
      add "stack:    worst-case %d bytes of %d (%s)\n" bytes Layout.stack_size
        (String.concat " -> " r.Absint.worst_chain));
  let findings = analysis.Rules.findings in
  add "findings: %d error(s), %d warning(s), %d info\n" (Rules.count Rules.Error findings)
    (Rules.count Rules.Warning findings)
    (Rules.count Rules.Info findings);
  if findings = [] then add "  clean\n"
  else
    List.iter
      (fun (fi : Rules.finding) ->
        if fi.Rules.location = "" then
          add "  [%s] %s %s: %s\n"
            (Rules.severity_name fi.Rules.severity)
            fi.Rules.rule fi.Rules.subject fi.Rules.message
        else
          add "  [%s] %s %s @ %s: %s\n"
            (Rules.severity_name fi.Rules.severity)
            fi.Rules.rule fi.Rules.subject fi.Rules.location fi.Rules.message)
      findings;
  Buffer.contents buf

let level = function
  | Rules.Error -> "error"
  | Rules.Warning -> "warning"
  | Rules.Info -> "note"

let rule_descriptors =
  List.map
    (fun (r : Rules.rule) ->
      Sarif.rule ~id:r.Rules.id ~text:r.Rules.title ~level:(level r.Rules.severity) ())
    Rules.rules

let result_json ~key (fi : Rules.finding) =
  Sarif.result ~rule_id:fi.Rules.rule ~level:(level fi.Rules.severity)
    ~message:fi.Rules.message
    ~location:
      (key ^ "/" ^ fi.Rules.subject
      ^ if fi.Rules.location = "" then "" else "/" ^ fi.Rules.location)

(* SARIF-style document: one run per analyzed PAL. The per-run property
   bag carries the Figure 6-style TCB accounting (LOC and SLB bytes) so
   `flicker analyze --json` doubles as the paper's TCB table. *)
let sarif results =
  Sarif.document
    (List.map
       (fun (key, (target : Rules.target), (analysis : Rules.analysis)) ->
         let pal = target.Rules.pal in
         let findings = analysis.Rules.findings in
         Sarif.run ~tool:"flicker-analyze" ~rules:rule_descriptors
           ~results:(List.map (result_json ~key) findings)
           [
             ("pal", J.String pal.Pal.name);
             ("key", J.String key);
             ("entry", J.String target.Rules.entry);
             ("tcb_loc", J.Int (Pal.total_loc pal));
             ("budget_loc", J.Int target.Rules.budget_loc);
             ("slb_bytes", J.Int (String.length pal.Pal.code));
             ("slb_limit_bytes", J.Int slb_limit);
             ("errors", J.Int (Rules.errors findings));
             ("warnings", J.Int (Rules.count Rules.Warning findings));
             ( "worst_stack_bytes",
               J.Int
                 (match analysis.Rules.absint.Absint.stack with
                 | Absint.Bounded b -> b
                 | Absint.Unbounded -> -1) );
             ("stack_limit_bytes", J.Int Layout.stack_size);
             ("ct_findings", J.Int (ct_findings findings));
           ])
       results)
