module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Extract = Flicker_extract.Extract

(* Extraction-IR models of the code each shipped PAL runs, paired with
   the Pal.t it builds. The paper's extraction tool works on C via CIL;
   the simulator has no C parser, so these are the structured programs
   CIL would have produced — entry function, statement bodies, types,
   LOC. The analyzer verifies the invariants over them: module lists
   match what the calls imply, secrets are sealed before the output
   page, every secret-handling entry ends by zeroizing, the worst-case
   stack stays inside the 4 KB PAL stack, buffer indices stay in
   bounds, and no branch or memory index depends on a secret. *)

(* body-construction shorthand; [fb] derives the call list from the
   statements (pre-order), keeping it consistent with the slicer *)
let fb fname ?(params = []) stmts uses_types loc =
  Extract.fn fname ~params ~stmts ~uses_types ~loc

let v x = Extract.Var x
let n x = Extract.Num x
let bin op a b = Extract.Bin (op, a, b)
let add = bin Extract.Add
let sub = bin Extract.Sub
let band = bin Extract.Band
let eq = bin Extract.Eq
let load buf index = Extract.Load { buf; index }
let local name elems elem_size = Extract.Local { name; elems; elem_size }
let assign dst src = Extract.Assign { dst; src }
let store buf index src = Extract.Store { buf; index; src }
let call dst callee args = Extract.Call { dst; callee; args }
let if_ cond then_ else_ = Extract.If { cond; then_; else_ }
let for_ var lo hi body = Extract.For { var; lo; hi; body }
let ret e = Extract.Return (Some e)

let ty tname type_depends =
  { Extract.tname; type_depends; definition = Printf.sprintf "struct %s {...};" tname }

let hello_pal =
  Pal.define ~name:"hello-world" (fun env -> Pal_env.set_output env "Hello, world")

let hello () =
  {
    Rules.pal = hello_pal;
    program =
      {
        Extract.functions =
          [
            fb "pal_main"
              [
                local "msg" 64 1;
                call (Some "len") "format_greeting" [ n 64 ];
                call None "pal_output_write" [ v "len" ];
              ]
              [ "greeting" ] 10;
            fb "format_greeting" ~params:[ "cap" ]
              [
                local "buf" 32 1;
                for_ "i" (n 0) (n 31) [ store "buf" (v "i") (bin Extract.Mod (v "i") (n 26)) ];
                store "buf" (n 31) (n 0);
                call (Some "r") "strncpy" [ v "cap" ];
                ret (v "r");
              ]
              [ "greeting" ] 6;
          ];
        types = [ ty "greeting" [] ];
      };
    entry = "pal_main";
    budget_loc = 250;
    effects = [];
  }

let rootkit_detector () =
  {
    Rules.pal = Flicker_apps.Rootkit_detector.detector_pal ();
    program =
      {
        Extract.functions =
          [
            fb "detector_main"
              [
                call (Some "len") "read_kernel_text" [ n 0 ];
                call (Some "h") "sha1_region" [ v "len" ];
                call None "pcr_extend_hash" [ v "h" ];
                call None "pal_output_write" [ v "h" ];
              ]
              [ "scan_state" ] 35;
            fb "read_kernel_text" ~params:[ "dst" ]
              [ call (Some "copied") "memcpy" [ v "dst" ]; ret (v "copied") ]
              [ "scan_state" ] 14;
            fb "sha1_region" ~params:[ "len" ]
              [
                local "w" 80 4;
                local "digest" 5 4;
                for_ "i" (n 0) (n 16) [ store "w" (v "i") (v "i") ];
                for_ "i" (n 16) (n 80)
                  [
                    store "w" (v "i")
                      (add (load "w" (sub (v "i") (n 3))) (load "w" (sub (v "i") (n 8))));
                  ];
                call (Some "d") "sha1_compress" [ load "w" (n 0) ];
                for_ "j" (n 0) (n 5) [ store "digest" (v "j") (v "d") ];
                ret (load "digest" (n 0));
              ]
              [ "hash_ctx" ] 48;
            fb "sha1_compress" ~params:[ "block" ]
              [
                local "sched" 16 4;
                assign "a" (n 0x67452301);
                for_ "i" (n 0) (n 16)
                  [
                    store "sched" (v "i") (add (v "a") (v "i"));
                    assign "a" (add (v "a") (load "sched" (v "i")));
                  ];
                ret (v "a");
              ]
              [ "hash_ctx" ] 90;
            fb "pcr_extend_hash" ~params:[ "h" ]
              [ call (Some "rc") "tpm_transmit" [ v "h" ]; ret (v "rc") ]
              [ "hash_ctx" ] 22;
          ];
        types = [ ty "scan_state" []; ty "hash_ctx" [] ];
      };
    entry = "detector_main";
    budget_loc = 350;
    effects = [];
  }

let distcomp () =
  {
    Rules.pal = Flicker_apps.Distcomp.pal ();
    program =
      {
        Extract.functions =
          [
            fb "boinc_main"
              [
                call (Some "wu") "rsa_verify_workunit" [ n 0 ];
                if_ (eq (v "wu") (n 0)) [ ret (n 0) ] [];
                call (Some "state") "TPM_Unseal" [];
                call (Some "fac") "trial_division" [ v "wu" ];
                call (Some "blob") "TPM_Seal" [ add (v "state") (v "fac") ];
                call None "pal_output_write" [ v "fac" ];
                call None "zeroize_secrets" [];
                ret (v "fac");
              ]
              [ "work_unit"; "factor_state" ] 42;
            fb "trial_division" ~params:[ "wu" ]
              [
                assign "fac" (n 0);
                for_ "d" (n 2) (n 1000)
                  [
                    call (Some "r") "mod_reduce" [ v "wu"; v "d" ];
                    if_ (eq (v "r") (n 0)) [ assign "fac" (v "d") ] [];
                  ];
                ret (v "fac");
              ]
              [ "factor_state" ] 30;
            fb "mod_reduce" ~params:[ "x"; "m" ]
              [ ret (bin Extract.Mod (v "x") (v "m")) ]
              [] 12;
          ];
        types = [ ty "work_unit" []; ty "factor_state" [ "work_unit" ] ];
      };
    entry = "boinc_main";
    budget_loc = 3500;
    effects = [];
  }

let ssh_auth () =
  {
    Rules.pal = Flicker_apps.Ssh_auth.ssh_pal ~key_bits:1024;
    program =
      {
        Extract.functions =
          [
            fb "ssh_main"
              [
                call (Some "pw") "sc_decrypt_password" [];
                call (Some "stored") "TPM_Unseal" [];
                call (Some "hash") "md5crypt" [ v "stored"; v "pw" ];
                call (Some "ok") "constant_time_eq" [ v "hash"; v "stored" ];
                if_ (eq (v "ok") (n 1)) [ call None "pal_output_write" [ v "ok" ] ] [];
                call None "zeroize_secrets" [];
                ret (v "ok");
              ]
              [ "auth_ctxt" ] 38;
            fb "md5crypt" ~params:[ "salt"; "pw" ]
              [
                call None "md5_init" [];
                assign "acc" (n 0);
                for_ "round" (n 0) (n 1000)
                  [
                    call (Some "b") "md5_update" [ v "pw" ];
                    assign "acc" (add (v "acc") (v "b"));
                  ];
                call (Some "dig") "md5_final" [ v "acc" ];
                ret (v "dig");
              ]
              [ "md5_ctx" ] 120;
            fb "md5_init" [ ret (n 0) ] [ "md5_ctx" ] 10;
            fb "md5_update" ~params:[ "data" ]
              [
                local "blk" 64 1;
                for_ "i" (n 0) (n 64) [ store "blk" (v "i") (band (v "data") (n 255)) ];
                call (Some "copied") "memcpy" [ load "blk" (n 0) ];
                ret (v "copied");
              ]
              [ "md5_ctx" ] 35;
            fb "md5_final" ~params:[ "acc" ]
              [ assign "state" (n 0x67452301); ret (add (v "state") (v "acc")) ]
              [ "md5_ctx" ] 18;
            fb "constant_time_eq" ~params:[ "a"; "b" ]
              [
                assign "diff" (n 0);
                for_ "i" (n 0) (n 16)
                  [ assign "diff" (add (v "diff") (band (sub (v "a") (v "b")) (n 255))) ];
                ret (eq (v "diff") (n 0));
              ]
              [] 8;
          ];
        types = [ ty "auth_ctxt" [ "passwd_entry" ]; ty "passwd_entry" []; ty "md5_ctx" [] ];
      };
    entry = "ssh_main";
    budget_loc = 3800;
    (* the comparison's boolean verdict is the protocol's public result:
       a deliberate declassification point *)
    effects = [ ("constant_time_eq", Effects.Sanitizer) ];
  }

let cert_authority () =
  {
    Rules.pal = Flicker_apps.Cert_authority.ca_pal ~key_bits:1024;
    program =
      {
        Extract.functions =
          [
            fb "ca_main"
              [
                call (Some "priv") "TPM_Unseal" [];
                call (Some "req") "parse_csr" [ n 0 ];
                call (Some "ok") "check_policy" [ v "req" ];
                if_ (eq (v "ok") (n 0)) [ ret (n 0) ] [];
                call (Some "cert") "sign_certificate" [ v "req"; v "priv" ];
                call None "pal_output_write" [ v "cert" ];
                call None "zeroize_secrets" [];
                ret (v "cert");
              ]
              [ "csr"; "ca_policy" ] 44;
            fb "parse_csr" ~params:[ "raw" ]
              [
                local "fields" 8 8;
                call (Some "len") "memcpy" [ v "raw" ];
                for_ "i" (n 0) (n 8) [ store "fields" (v "i") (add (v "len") (v "i")) ];
                ret (load "fields" (n 0));
              ]
              [ "csr" ] 26;
            fb "check_policy" ~params:[ "req" ]
              [
                call (Some "cmp") "strcmp" [ v "req" ];
                if_ (eq (v "cmp") (n 0)) [ ret (n 1) ] [];
                ret (n 0);
              ]
              [ "ca_policy" ] 18;
            fb "sign_certificate" ~params:[ "req"; "key" ]
              [
                call (Some "d") "sha1_digest" [ v "req" ];
                call (Some "s") "rsa_sign" [ v "d"; v "key" ];
                ret (v "s");
              ]
              [ "csr" ] 33;
          ];
        types = [ ty "csr" [ "subject_key" ]; ty "subject_key" []; ty "ca_policy" [] ];
      };
    entry = "ca_main";
    budget_loc = 3500;
    effects = [];
  }

(* ------------------------------------------------------------------ *)
(* Planted defects: regression targets the analyzer must catch. They   *)
(* are deliberately NOT in [all] — the shipped set stays clean — but   *)
(* are addressable through [find] and exercised by tests, the bench    *)
(* harness, and the planted-PAL golden in test/cli.                    *)
(* ------------------------------------------------------------------ *)

let stack_hog_pal = Pal.define ~name:"planted-stack-hog" (fun _ -> ())

(* every frame fits, but the chain pal_main -> compress_block ->
   huffman_emit sums past the 4 KB PAL stack; the old 128-bytes/frame
   depth heuristic stays silent at depth 3 *)
let stack_hog () =
  {
    Rules.pal = stack_hog_pal;
    program =
      {
        Extract.functions =
          [
            fb "pal_main"
              [
                local "iobuf" 1024 1;
                for_ "i" (n 0) (n 1024) [ store "iobuf" (v "i") (band (v "i") (n 255)) ];
                call (Some "z") "compress_block" [ load "iobuf" (n 0) ];
                call None "pal_output_write" [ v "z" ];
              ]
              [] 20;
            fb "compress_block" ~params:[ "seed" ]
              [
                local "window" 2048 1;
                for_ "i" (n 0) (n 2048)
                  [ store "window" (v "i") (band (add (v "seed") (v "i")) (n 255)) ];
                call (Some "bits") "huffman_emit" [ load "window" (n 0) ];
                ret (v "bits");
              ]
              [] 30;
            fb "huffman_emit" ~params:[ "sym" ]
              [
                local "table" 1200 1;
                for_ "i" (n 0) (n 1200) [ store "table" (v "i") (v "i") ];
                ret (load "table" (band (v "sym") (n 1023)));
              ]
              [] 25;
          ];
        types = [];
      };
    entry = "pal_main";
    budget_loc = 400;
    effects = [];
  }

(* the unsealed PIN steers a branch in auth_main and indexes the sbox
   in pin_compare: two classic timing side channels. The seal/zeroize
   discipline is respected, so only the constant-time lint objects. *)
let secret_branch () =
  {
    Rules.pal =
      Pal.define ~name:"planted-secret-branch"
        ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities ]
        (fun _ -> ());
    program =
      {
        Extract.functions =
          [
            fb "auth_main"
              [
                call (Some "pin") "TPM_Unseal" [];
                call (Some "ok") "pin_compare" [ v "pin" ];
                if_ (eq (v "ok") (n 0)) [ assign "code" (n 0) ] [ assign "code" (n 1) ];
                call (Some "blob") "TPM_Seal" [ v "pin" ];
                call None "pal_output_write" [ v "code" ];
                call None "zeroize_secrets" [];
                ret (v "code");
              ]
              [] 28;
            fb "pin_compare" ~params:[ "pin" ]
              [
                local "sbox" 256 1;
                for_ "i" (n 0) (n 256) [ store "sbox" (v "i") (band (v "i") (n 255)) ];
                assign "t" (load "sbox" (band (v "pin") (n 255)));
                ret (bin Extract.Ne (v "t") (n 7));
              ]
              [] 22;
          ];
        types = [];
      };
    entry = "auth_main";
    budget_loc = 3500;
    effects = [];
  }

let all () =
  [
    ("hello", hello ());
    ("rootkit", rootkit_detector ());
    ("boinc", distcomp ());
    ("ssh", ssh_auth ());
    ("ca", cert_authority ());
  ]

let planted () = [ ("stack-hog", stack_hog ()); ("secret-branch", secret_branch ()) ]
let keys () = List.map fst (all ())
let planted_keys () = List.map fst (planted ())
let find key =
  match List.assoc_opt key (all ()) with
  | Some t -> Some t
  | None -> List.assoc_opt key (planted ())
