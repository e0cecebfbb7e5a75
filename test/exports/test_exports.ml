(* Exports under lib/, each reached from outside its own module.

   Reads every [val] in lib/**/*.mli, nested signatures included: a
   [sig ... end], a functor's result signature, and a module type named
   by [module X : S] or [S with ...], declared in the same interface,
   another lib/ interface or the standard library. Resolves every value
   reference in lib/, bin/, bench/, examples/, perf/ and test/ to the
   export it names. Module paths are resolved through the dune library
   wrappers, sibling modules, module aliases, [open]s and [let module],
   so a constructor or a local module that shares a module's name is not
   a use of it. A module bound to [F (...)] stands for [F]: [M.v] is a
   use of [F.v], and so is [U.v] when unit [U] does [include F (...)]. A
   module passed whole to a functor uses every value it exports. A
   reference from the export's own compilation unit does not count.

   Every export must be referenced from outside its unit. One that only
   tests reference (anything under test/, and perf/test_perf.ml) must
   appear in the allowlist below with the reason it stays; an entry
   naming a module covers every test-only export inside it.

   Every optional parameter of an export ([?x] in its [val] type) must be
   passed, as [~x] or [?x], by some application of the export outside
   its unit and outside the tests: an option no caller sets is a
   constant. Partial applications count, and so do calls under [|>] and
   [@@]. One that stays must appear in [unpassed_options] with the reason
   it stays. *)

open Parsetree

(* (reason, export or module paths) *)
let allowlist =
  [
    ( "Section 4.3.2 replay protection (Figure 4 and the NV-space counter): no shipped PAL \
       keeps versioned sealed state yet",
      [
        "Flicker_slb.Mod_tpm_utils.nv_define_space"; "Flicker_slb.Mod_tpm_utils.create_counter";
        "Flicker_slb.Mod_tpm_utils.create_nv_version"; "Flicker_slb.Mod_tpm_utils.seal_versioned";
        "Flicker_slb.Mod_tpm_utils.unseal_versioned";
      ] );
    ( "Section 6.2 BOINC server that accepts distcomp results by their quotes: no workload \
       runs a server yet",
      [ "Flicker_apps.Boinc" ] );
    ( "Section 4.4.2 setup PAL that does nothing but the setup: the SSH PAL sets up its \
       channel in its own setup mode, so only the attestation suite runs this one",
      [ "Flicker_core.Secure_channel.setup_pal" ] );
    ( "crypto primitives the crypto suites check against known answers, round trips and \
       reference implementations; PALs use only what they link",
      [
        "Flicker_crypto.Aes.encrypt_block"; "Flicker_crypto.Aes.decrypt_block";
        "Flicker_crypto.Aes.ctr"; "Flicker_crypto.Bignum.to_int"; "Flicker_crypto.Bignum.is_zero";
        "Flicker_crypto.Bignum.divmod"; "Flicker_crypto.Bignum.add_int";
        "Flicker_crypto.Bignum.test_bit"; "Flicker_crypto.Bignum.gcd";
        "Flicker_crypto.Bignum.of_hex"; "Flicker_crypto.Bignum.to_hex";
        "Flicker_crypto.Bignum.of_decimal_string"; "Flicker_crypto.Bignum.to_decimal_string";
        "Flicker_crypto.Elgamal.shared_params_512"; "Flicker_crypto.Elgamal.encrypt";
        "Flicker_crypto.Elgamal.decrypt"; "Flicker_crypto.Elgamal.public_to_string";
        "Flicker_crypto.Elgamal.public_of_string"; "Flicker_crypto.Elgamal.private_to_string";
        "Flicker_crypto.Elgamal.private_of_string"; "Flicker_crypto.Hash.digest_size";
        "Flicker_crypto.Hash.hex"; "Flicker_crypto.Hash.name"; "Flicker_crypto.Md5crypt.verify";
        "Flicker_crypto.Md5crypt.parse"; "Flicker_crypto.Primality.is_probably_prime";
        "Flicker_crypto.Primality.small_primes"; "Flicker_crypto.Sha256.init";
        "Flicker_crypto.Sha256.update"; "Flicker_crypto.Sha256.finalize";
        "Flicker_crypto.Sha256.hex";
        "Flicker_crypto.Util.pad_left"; "Flicker_crypto.Util.zeroize";
      ] );
    ( "PAL module API no shipped PAL calls directly: the allocator, the driver's claim \
       discipline and raw transport, sealing to another PAL's PCR 17",
      [
        "Flicker_slb.Mod_memory.malloc"; "Flicker_slb.Mod_memory.free";
        "Flicker_slb.Mod_memory.realloc"; "Flicker_slb.Mod_memory.read";
        "Flicker_slb.Mod_memory.write"; "Flicker_slb.Mod_memory.block_size";
        "Flicker_slb.Mod_memory.allocated_bytes"; "Flicker_slb.Mod_tpm_driver.claim";
        "Flicker_slb.Mod_tpm_driver.release"; "Flicker_slb.Mod_tpm_driver.is_claimed";
        "Flicker_slb.Mod_tpm_driver.submit"; "Flicker_slb.Mod_tpm_driver.submit_raw";
        "Flicker_slb.Mod_tpm_utils.seal_to_pcr17"; "Flicker_slb.Pal_env.write_phys";
      ] );
    ( "Section 5.1 attacks the adversary suite mounts against honest sessions",
      [
        "Flicker_os.Adversary.dma_read_probe"; "Flicker_os.Adversary.dma_corrupt";
        "Flicker_os.Adversary.forge_pcr17"; "Flicker_os.Adversary.replay_ciphertext";
      ] );
    ( "launch paths, measurement steps and fault knobs the session, attestation and TXT \
       suites compare against the normal session",
      [
        "Flicker_core.Measurement.extend"; "Flicker_core.Measurement.of_image";
        "Flicker_core.Session.os_busy_transient";
        "Flicker_core.Session.os_busy_permanent"; "Flicker_core.Session.busy_is_transient";
        "Flicker_core.Session.execute_from_sysfs"; "Flicker_core.Session.corrupt_slb_in_memory";
      ] );
    ( "IMA log verification the trusted-boot tests check; the paper bench reports only \
       the burden comparison",
      [
        "Flicker_core.Trusted_boot.failure_to_string"; "Flicker_core.Trusted_boot.replay_log";
        "Flicker_core.Trusted_boot.verify"; "Flicker_os.Measured_boot.pcrs_in_use";
      ] );
    ( "state inspectors and constructors the hardware, TPM, OS and SLB suites use to check \
       the simulator from outside",
      [
        "Flicker_hw.Cpu.segment_contains"; "Flicker_hw.Dev.is_page_protected";
        "Flicker_hw.Dev.protected_pages"; "Flicker_hw.Dma.create"; "Flicker_hw.Dma.attempts";
        "Flicker_hw.Memory.page_of_addr";
        "Flicker_os.Os_state.saved_cr3"; "Flicker_os.Kernel.measured_bytes";
        "Flicker_os.Kernel.is_compromised"; "Flicker_os.Scheduler.active_processes";
        "Flicker_os.Scheduler.resident_processes"; "Flicker_os.Scheduler.completed_total";
        "Flicker_os.Scheduler.last_completion"; "Flicker_os.Scheduler.online_cores";
        "Flicker_os.Sysfs.standard_entries"; "Flicker_tpm.Nvram.undefine_space";
        "Flicker_tpm.Nvram.defined_indices"; "Flicker_tpm.Tpm.owner_auth";
        "Flicker_tpm.Tpm.get_capability_pcr_count"; "Flicker_tpm.Tpm_wire.ordinal_of_command";
        "Flicker_tpm.Tpm_wire.encode_command"; "Flicker_tpm.Tpm_wire.decode_command";
        "Flicker_tpm.Tpm_wire.encode_response"; "Flicker_tpm.Tpm_wire.decode_response";
        "Flicker_slb.Slb_core.gdt_patch_offset";
        "Flicker_slb.Slb_core.tss_patch_offset"; "Flicker_slb.Builder.slb_sizes";
        "Flicker_slb.Pal.module_code";
      ] );
    ( "app codecs, counters and the Flicker-protected SSH client the app suites check",
      [
        "Flicker_apps.Cert_authority.encode_policy"; "Flicker_apps.Cert_authority.decode_policy";
        "Flicker_apps.Cert_authority.policy_allows"; "Flicker_apps.Cert_authority.issued_count";
        "Flicker_apps.Distcomp.decode_state"; "Flicker_apps.Distcomp.resume_attested";
        "Flicker_apps.Distcomp.candidates_per_ms"; "Flicker_apps.Ssh_auth.Flicker_client.create";
        "Flicker_apps.Ssh_auth.Flicker_client.accept_server_key";
        "Flicker_apps.Ssh_auth.Flicker_client.encrypt_password";
      ] );
    ( "introspection and hooks the service, serve, obs and fault suites use to check \
       behaviour from outside",
      [
        "Flicker_obs.Metrics.reset"; "Flicker_obs.Tracer.capacity"; "Flicker_obs.Tracer.clear";
        "Flicker_serve.Cache.length"; "Flicker_serve.Serve.advance_nv"; "Flicker_serve.Serve.cached";
        "Flicker_serve.Serve.cache_stats"; "Flicker_service.Event_queue.length";
        "Flicker_service.Event_queue.is_empty"; "Flicker_service.Fleet.past_deadline";
        "Flicker_service.Fleet.crash_platform"; "Flicker_service.Fleet.platform_up";
        "Flicker_service.Request.pp_disposition"; "Flicker_fault.Injector.enabled";
      ] );
    ( "analysis internals the analysis and extract suites check directly: frame sizes, the \
       concrete interpreter behind the soundness property, the planted-defect PALs, finding \
       order and lookups",
      [
        "Flicker_analysis.Absint.opaque_frame_bytes"; "Flicker_analysis.Absint.frame_bytes";
        "Flicker_analysis.Absint.Concrete.run"; "Flicker_analysis.Domains.Interval.contains";
        "Flicker_analysis.Effects.default"; "Flicker_analysis.Models.stack_hog";
        "Flicker_analysis.Models.secret_branch"; "Flicker_analysis.Models.planted_keys";
        "Flicker_analysis.Rules.compare_findings"; "Flicker_extract.Extract.stdlib_advice";
      ] );
    ( "each protocol automaton by name, and the checker and broken variants, for the verify \
       suite's per-property cases; runtime checking uses Automata.all",
      [
        "Flicker_verify.Automata.cap_before_resume"; "Flicker_verify.Automata.dev_covers_slb";
        "Flicker_verify.Automata.zeroize_before_exit"; "Flicker_verify.Automata.extend_order";
        "Flicker_verify.Automata.nv_monotonic"; "Flicker_verify.Automata.fresh_nv_on_launch";
        "Flicker_verify.Automata.no_unchecked_dma";
        "Flicker_verify.Automata.suspend_before_launch"; "Flicker_verify.Checker.check";
        "Flicker_verify.Model.broken_variants";
      ] );
    ( "the model's good session as events, and an event's trace name and args, which the \
       verify suite compares each real session's records against; the model checker runs \
       its blocks directly, and the trace renders its records through Event.record",
      [
        "Flicker_verify.Model.session_events"; "Flicker_verify.Event.name";
        "Flicker_verify.Event.args";
      ] );
  ]

(* (reason, ["export ?option"] entries) *)
let unpassed_options =
  [
    ( "a raw session's flavor and nonce: Session.call forwards the nonce and \
       execute_from_sysfs the flavor its image links to, and the session suites run raw \
       sessions of either flavor under a nonce",
      [ "Flicker_core.Session.execute ?flavor"; "Flicker_core.Session.execute ?nonce" ] );
    ( "Intel TXT launches (Section 2.4): only the TXT suite launches with an SINIT ACM and \
       appraises one",
      [ "Flicker_core.Verifier.expect ?acm"; "Flicker_core.Measurement.after_launch ?acm" ] );
    ( "bounds the suites shrink to reach a truncation or eviction path: the trace ring, the \
       model checker's search, a fleet run stopped early",
      [
        "Flicker_hw.Machine.create ?trace_capacity"; "Flicker_verify.Mc.run ?max_states";
        "Flicker_verify.Mc.run ?max_depth"; "Flicker_service.Fleet.run ?until_ms";
      ] );
    ( "Section 7.5's Flicker-aware block driver, which only the extensions suite compares \
       against the legacy one",
      [ "Flicker_os.Blockdev.transfer ?driver" ] );
    ( "C text of a sample function, which only the extract suite's samples carry",
      [ "Flicker_extract.Extract.fn ?body" ] );
    ( "a request's tier and deadline: submit_open_loop forwards both, and the service suite \
       submits requests with a deadline one by one",
      [ "Flicker_service.Fleet.submit ?tier"; "Flicker_service.Fleet.submit ?deadline_ms" ] );
    ( "the Flicker-protected SSH client only the SSH suite runs, against its 512-bit servers",
      [ "Flicker_apps.Ssh_auth.Flicker_client.create ?key_bits" ] );
  ]

(* the nearest directory above holding lib/: the build copy the dune
   deps fill under [dune runtest], the source tree under [dune exec] *)
let root =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "lib/core/session.ml") then dir
    else if Filename.dirname dir = dir then failwith "no lib/ above the working directory"
    else up (Filename.dirname dir)
  in
  up (Sys.getcwd ())

let read file = In_channel.with_open_bin (Filename.concat root file) In_channel.input_all

let lexbuf file =
  let lexbuf = Lexing.from_string (read file) in
  Lexing.set_filename lexbuf file;
  lexbuf

(* the files under [dir] with one of [suffixes], as paths relative to
   [root]. dune may relink a test executable beside the sources while
   this runs, so an entry that is gone by the time it is looked at is
   skipped, not an error. *)
let rec files suffixes dir =
  Sys.readdir (Filename.concat root dir)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         let is_dir () =
           try Sys.is_directory (Filename.concat root path) with Sys_error _ -> false
         in
         if entry.[0] = '.' || entry = "_build" then []
         else if is_dir () then files suffixes path
         else if List.exists (Filename.check_suffix entry) suffixes then [ path ]
         else [])

let unit_name file = String.capitalize_ascii (Filename.remove_extension (Filename.basename file))
let is_test file = String.starts_with ~prefix:"test/" file || file = "perf/test_perf.ml"

(* lib/NAME holds the wrapped dune library flicker_NAME *)
let lib_dirs =
  Sys.readdir (Filename.concat root "lib")
  |> Array.to_list |> List.sort compare
  |> List.map (fun d -> ("lib/" ^ d, "Flicker_" ^ d))

(* the module path of [file]'s compilation unit: under its library's
   wrapper in lib/, under its directory elsewhere *)
let unit_path file =
  let dir = Filename.dirname file in
  match List.assoc_opt dir lib_dirs with
  | Some w -> [ w; unit_name file ]
  | None -> [ dir; unit_name file ]

let show = String.concat "."

(* --- exports --- *)

type export = {
  path : string list;
  unit_ : string list;
  where : string;
  optionals : string list;  (** the [?x] labels of its type *)
}

let rec optionals ty =
  match ty.ptyp_desc with
  | Ptyp_arrow (Optional l, _, rest) -> l :: optionals rest
  | Ptyp_arrow (_, _, rest) -> optionals rest
  | _ -> []

(* the [module type NAME] among [items], if it declares one *)
let declared_module_type name items =
  List.find_map
    (fun item ->
      match item.psig_desc with
      | Psig_modtype { pmtd_name = { txt; _ }; pmtd_type = Some mty; _ } when txt = name ->
          Some mty
      | _ -> None)
    items

(* the interface of unit [u], as its path and its items: a sibling of
   [file] in lib/, else the standard library's *)
let interface_of ~file u =
  let name = String.uncapitalize_ascii u ^ ".mli" in
  let sibling = Filename.concat (Filename.dirname file) name in
  let stdlib = Filename.concat Config.standard_library name in
  if Sys.file_exists (Filename.concat root sibling) then
    Some (sibling, Parse.interface (lexbuf sibling))
  else if Sys.file_exists stdlib then
    let text = In_channel.with_open_bin stdlib In_channel.input_all in
    Some (stdlib, Parse.interface (Lexing.from_string text))
  else None

(* the signature a module type stands for, with the interface ([(path,
   items)]) it is written in: written out, a functor's result, the type
   [S] of [S with ...], or a module type named in [intf] or in another
   interface *)
let rec module_type ~file intf mty =
  match mty.pmty_desc with
  | Pmty_signature sg -> Some (sg, intf)
  | Pmty_functor (_, result) | Pmty_with (result, _) -> module_type ~file intf result
  | Pmty_ident { txt = Lident name; _ } ->
      Option.bind (declared_module_type name (snd intf)) (module_type ~file intf)
  | Pmty_ident { txt = Ldot ((Lident u | Ldot (Lident "Stdlib", u)), name); _ } ->
      Option.bind (interface_of ~file u) (fun other ->
          Option.bind (declared_module_type name (snd other)) (module_type ~file other))
  | _ -> None

(* every [val] of [items], written in [intf], under [path]; [at] is the
   declaration in [file] that brought in a signature written elsewhere *)
let rec signature ~file ~intf ?at path items =
  List.concat_map
    (fun item ->
      match item.psig_desc with
      | Psig_value vd ->
          let loc = Option.value at ~default:vd.pval_loc in
          let where = Printf.sprintf "%s:%d" file loc.loc_start.pos_lnum in
          [
            {
              path = path @ [ vd.pval_name.txt ];
              unit_ = unit_path file;
              where;
              optionals = optionals vd.pval_type;
            };
          ]
      | Psig_module { pmd_name = { txt = Some name; _ }; pmd_type; pmd_loc; _ } -> (
          match module_type ~file intf pmd_type with
          | Some (sg, intf') ->
              let at =
                if fst intf' = fst intf then at else Some (Option.value at ~default:pmd_loc)
              in
              signature ~file ~intf:intf' ?at (path @ [ name ]) sg
          | None -> [])
      | _ -> [])
    items

let interface_exports file sg = signature ~file ~intf:(file, sg) (unit_path file) sg

let exports =
  List.concat_map
    (fun file -> interface_exports file (Parse.interface (lexbuf file)))
    (files [ ".mli" ] "lib")

let export_table =
  let t = Hashtbl.create 1024 in
  List.iter (fun e -> Hashtbl.replace t e.path e) exports;
  t

(* the module paths holding exports: library wrappers, units and nested
   modules, each a proper prefix of some export's path *)
let modules =
  let t = Hashtbl.create 256 in
  let rec prefixes = function
    | [] | [ _ ] -> []
    | m :: rest -> [ m ] :: List.map (List.cons m) (prefixes rest)
  in
  List.iter (fun e -> List.iter (fun p -> Hashtbl.replace t p ()) (prefixes e.path)) exports;
  t

(* --- references --- *)

(* [path] is [m] or lies inside module [m] *)
let rec covers_path m path =
  match (m, path) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && covers_path xs ys
  | _ :: _, [] -> false

type binding = Alias of string * string list | Open of string list

(* the export paths [file] references from outside their own unit, the
   functors its top level includes an application of, and each
   application of an export from outside its unit with the labels it
   passes; [ast] is [file]'s parsed text *)
let references file ast =
  let here = unit_path file in
  let siblings = List.map unit_name (files [ ".ml"; ".mli" ] (Filename.dirname file)) in
  (* a bare module name before the file's own bindings: a sibling in the
     same library or directory, then a library wrapper *)
  let initial m =
    if List.mem m siblings then Some [ List.hd here; m ]
    else if Hashtbl.mem modules [ m ] then Some [ m ]
    else None
  in
  let scope = ref [] in
  let rec module_path = function
    | Longident.Lident m -> (
        let bound = function
          | Alias (n, p) when n = m -> Some p
          | Open p when Hashtbl.mem modules (p @ [ m ]) -> Some (p @ [ m ])
          | _ -> None
        in
        match List.find_map bound !scope with Some p -> Some p | None -> initial m)
    | Ldot (l, m) -> Option.map (fun p -> p @ [ m ]) (module_path l)
    | Lapply _ -> None
  in
  let value_path = function
    | Longident.Lident v ->
        let opened = function
          | Open p when Hashtbl.mem export_table (p @ [ v ]) -> Some (p @ [ v ])
          | _ -> None
        in
        List.find_map opened !scope
    | Ldot (l, v) -> Option.map (fun p -> p @ [ v ]) (module_path l)
    | Lapply _ -> None
  in
  (* a functor's application stands for the functor *)
  let rec path_of me =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> module_path txt
    | Pmod_constraint (me, _) | Pmod_apply (me, _) | Pmod_apply_unit me -> path_of me
    | _ -> None
  in
  (* a module bound to anything but a path or an application is this
     unit's own *)
  let bind name me = Alias (name, Option.value (path_of me) ~default:(here @ [ name ])) in
  let push_open me = Option.iter (fun p -> scope := Open p :: !scope) (path_of me) in
  let scoped f =
    let saved = !scope in
    f ();
    scope := saved
  in
  let found = ref [] and included = ref [] and applied = ref [] in
  let outside e = e.unit_ <> here in
  let resolve txt =
    match value_path txt with
    | Some p when Hashtbl.mem export_table p && outside (Hashtbl.find export_table p) -> Some p
    | _ -> None
  in
  let super = Ast_iterator.default_iterator in
  let expr it e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> Option.iter (fun p -> found := p :: !found) (resolve txt)
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
        Option.iter
          (fun p ->
            let label = function Asttypes.Labelled l | Optional l -> Some l | Nolabel -> None in
            applied := (p, List.filter_map (fun (l, _) -> label l) args) :: !applied)
          (resolve txt);
        super.expr it e
    | Pexp_open (od, body) ->
        it.Ast_iterator.module_expr it od.popen_expr;
        scoped (fun () ->
            push_open od.popen_expr;
            it.expr it body)
    | Pexp_letmodule ({ txt = Some name; _ }, me, body) ->
        it.module_expr it me;
        scoped (fun () ->
            scope := bind name me :: !scope;
            it.expr it body)
    | _ -> super.expr it e
  in
  (* a module passed whole to a functor: every value it exports *)
  let module_expr it me =
    (match me.pmod_desc with
    | Pmod_apply (_, arg) ->
        Option.iter
          (fun m ->
            List.iter
              (fun e -> if outside e && covers_path m e.path then found := e.path :: !found)
              exports)
          (path_of arg)
    | _ -> ());
    super.module_expr it me
  in
  let structure it items =
    scoped (fun () ->
        List.iter
          (fun item ->
            it.Ast_iterator.structure_item it item;
            match item.pstr_desc with
            | Pstr_open od -> push_open od.popen_expr
            | Pstr_include incl ->
                (match incl.pincl_mod.pmod_desc with
                | Pmod_apply _ when items == ast ->
                    Option.iter (fun f -> included := f :: !included) (path_of incl.pincl_mod)
                | _ -> ());
                push_open incl.pincl_mod
            | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } ->
                scope := bind name pmb_expr :: !scope
            | _ -> ())
          items)
  in
  let it = { super with expr; module_expr; structure } in
  it.structure it ast;
  (!found, !included, !applied)

let refs =
  List.map
    (fun file -> (file, references file (Parse.implementation (lexbuf file))))
    (List.concat_map (files [ ".ml" ]) [ "lib"; "bin"; "bench"; "examples"; "perf"; "test" ])

(* unit path -> the functors it includes an application of *)
let includes =
  let t = Hashtbl.create 16 in
  List.iter (fun (file, (_, fs, _)) -> Hashtbl.replace t (unit_path file) fs) refs;
  t

(* [p], and [F.v] too when [p] is [U.v] and [U] includes [F (...)] *)
let with_functors p =
  match List.rev p with
  | v :: rev_unit ->
      p
      :: List.filter_map
           (fun f -> if Hashtbl.mem export_table (f @ [ v ]) then Some (f @ [ v ]) else None)
           (Option.value (Hashtbl.find_opt includes (List.rev rev_unit)) ~default:[])
  | [] -> [ p ]

(* export path -> (referenced outside tests, referenced by tests) *)
let uses =
  let t = Hashtbl.create 1024 in
  let mark file p =
    let code, tests = Option.value (Hashtbl.find_opt t p) ~default:(false, false) in
    Hashtbl.replace t p (code || not (is_test file), tests || is_test file)
  in
  List.iter
    (fun (file, (found, _, _)) ->
      List.iter (fun p -> List.iter (mark file) (with_functors p)) found)
    refs;
  t

(* (export path, label): some application outside the tests passes it *)
let passed =
  let t = Hashtbl.create 256 in
  List.iter
    (fun (file, (_, _, applied)) ->
      if not (is_test file) then
        List.iter
          (fun (p, labels) ->
            List.iter
              (fun p -> List.iter (fun l -> Hashtbl.replace t (p, l) ()) labels)
              (with_functors p))
          applied)
    refs;
  t

let use e = Option.value (Hashtbl.find_opt uses e.path) ~default:(false, false)
let test_only = List.filter (fun e -> use e = (false, true)) exports

(* an entry covers the export it names and everything inside a module it names *)
let covers entry e = covers_path (String.split_on_char '.' entry) e.path

let describe e = Printf.sprintf "%s: %s" e.where (show e.path)
let entries =
  List.concat_map (fun (reason, paths) -> List.map (fun p -> (p, reason)) paths) allowlist

let test_all_referenced () =
  Alcotest.(check bool) "lib/ was scanned" true (List.length exports > 500);
  Alcotest.(check (list string)) "exports nothing outside their module references" []
    (List.map describe (List.filter (fun e -> use e = (false, false)) exports))

let test_test_only_listed () =
  Alcotest.(check (list string)) "exports only tests reference, missing from the allowlist" []
    (List.map describe
       (List.filter (fun e -> not (List.exists (fun (p, _) -> covers p e) entries)) test_only))

let test_no_stale_entries () =
  Alcotest.(check (list string)) "allowlist entries covering no test-only export" []
    (List.filter_map
       (fun (p, _) -> if List.exists (covers p) test_only then None else Some p)
       entries);
  Alcotest.(check (list string)) "allowlist entries without a reason" []
    (List.filter_map (fun (p, reason) -> if String.trim reason = "" then Some p else None) entries)

(* ["export ?x"] for each optional parameter no application outside the
   tests passes, with the export *)
let unpassed =
  List.concat_map
    (fun e ->
      List.filter_map
        (fun l ->
          if Hashtbl.mem passed (e.path, l) then None
          else Some (e, Printf.sprintf "%s ?%s" (show e.path) l))
        e.optionals)
    exports

let option_entries =
  List.concat_map (fun (reason, names) -> List.map (fun n -> (n, reason)) names) unpassed_options

let test_options_passed () =
  Alcotest.(check (list string)) "optional parameters no caller passes, missing from the allowlist"
    []
    (List.filter_map
       (fun (e, name) ->
         if List.mem_assoc name option_entries then None else Some (e.where ^ ": " ^ name))
       unpassed)

let test_no_stale_option_entries () =
  Alcotest.(check (list string)) "option entries naming no unpassed optional parameter" []
    (List.filter_map
       (fun (n, _) -> if List.exists (fun (_, name) -> name = n) unpassed then None else Some n)
       option_entries);
  Alcotest.(check (list string)) "option entries without a reason" []
    (List.filter_map
       (fun (n, reason) -> if String.trim reason = "" then Some n else None)
       option_entries)

(* The scan itself, on inline text: a functor's result, a module type
   declared beside its use and [S with ...] over a standard-library
   module type are read; [M.v] for [M] bound to [F (...)] is [F.v], and
   a module passed to a functor uses every value it exports. *)
let test_functors () =
  let parse s = Parse.interface (Lexing.from_string s) in
  Alcotest.(check (list string)) "exports read"
    [
      "Flicker_core.Example.Make.find"; "Flicker_core.Example.Key.equal";
      "Flicker_core.Example.Key.hash"; "Flicker_core.Example.Named.s";
    ]
    (List.map
       (fun e -> show e.path)
       (interface_exports "lib/core/example.mli"
          (parse
             "module type S = sig val s : int end\n\
              module Make (K : S) : sig val find : int end\n\
              module Key : Hashtbl.HashedType with type t = int\n\
              module Named : S\n")));
  let found, _, _ =
    references "bench/example.ml"
      (Parse.implementation
         (Lexing.from_string
            "module M = Flicker_core.Memo.Make (Flicker_apps.Cert_authority.Certificate_key)\n\
             let _ = M.find\n"))
  in
  Alcotest.(check (list string)) "uses resolved"
    [
      "Flicker_apps.Cert_authority.Certificate_key.equal";
      "Flicker_apps.Cert_authority.Certificate_key.hash"; "Flicker_core.Memo.Make.find";
    ]
    (List.sort compare (List.map show found))

(* Labels passed, read from inline text: a full application, a partial
   one, one under [|>] and one under [@@]; an application inside the
   export's own unit is not read. *)
let test_labels () =
  let applied file text =
    let _, _, applied = references file (Parse.implementation (Lexing.from_string text)) in
    List.sort compare (List.map (fun (p, labels) -> show p ^ " " ^ String.concat "," labels) applied)
  in
  Alcotest.(check (list string)) "labels read"
    [
      "Flicker_core.Session.call pal,nonce"; "Flicker_core.Session.execute flavor";
      "Flicker_service.Fleet.run until_ms"; "Flicker_service.Workload.echo work_ms";
    ]
    (applied "bench/example.ml"
       "let f p pal ?nonce () = Flicker_core.Session.call p ~pal ?nonce ()\n\
        let g = Flicker_service.Workload.echo ~work_ms:1.0\n\
        let h p pal = pal |> Flicker_core.Session.execute p ~flavor:Optimized\n\
        let i t = Flicker_service.Fleet.run ~until_ms:1.0 @@ t\n");
  Alcotest.(check (list string)) "own unit not read" []
    (applied "lib/service/fleet.ml" "let i t = run ~until_ms:1.0 t\nlet j t = Fleet.run ~until_ms:1.0 t\n")

let () =
  Alcotest.run "exports"
    [
      ( "lib",
        [
          Alcotest.test_case "functor results and arguments" `Quick test_functors;
          Alcotest.test_case "labels at applications" `Quick test_labels;
          Alcotest.test_case "every export referenced" `Quick test_all_referenced;
          Alcotest.test_case "test-only exports listed" `Quick test_test_only_listed;
          Alcotest.test_case "no stale allowlist entries" `Quick test_no_stale_entries;
          Alcotest.test_case "optional parameters passed" `Quick test_options_passed;
          Alcotest.test_case "no stale option entries" `Quick test_no_stale_option_entries;
        ] );
    ]
