(* Reproduction of every table and figure in the paper's Section 7.
   Each function regenerates one artifact from the simulator and prints
   the paper's value next to the measured one. Timing comes from the
   simulated clock (calibrated in Flicker_hw.Timing); the crypto and
   protocol work underneath is real. *)

open Flicker_core
module Timing = Flicker_hw.Timing
module Machine = Flicker_hw.Machine
module Memory = Flicker_hw.Memory
module Clock = Flicker_hw.Clock
module Skinit = Flicker_hw.Skinit
module Apic = Flicker_hw.Apic
module Scheduler = Flicker_os.Scheduler
module Blockdev = Flicker_os.Blockdev
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Builder = Flicker_slb.Builder
module Slb_core = Flicker_slb.Slb_core
module Tcb = Flicker_slb.Tcb
module Privacy_ca = Flicker_tpm.Privacy_ca
module Tpm = Flicker_tpm.Tpm
module Prng = Flicker_crypto.Prng
module Rsa = Flicker_crypto.Rsa
module Distcomp = Flicker_apps.Distcomp
module Rootkit_detector = Flicker_apps.Rootkit_detector
module Ssh_auth = Flicker_apps.Ssh_auth
module CA = Flicker_apps.Cert_authority

let header title =
  Printf.printf "\n=== %s ===\n" title

let row3 a b c = Printf.printf "%-34s %14s %14s\n" a b c

let ms v = Printf.sprintf "%.1f" v

(* Machine-readable output.  Each printed table/figure row is also
   recorded here; the harness dumps the records as JSON when invoked
   with --json <path>. *)

module J = Flicker_obs.Json

type row = { artifact : string; label : string; fields : (string * J.t) list }

let sink : row list ref = ref []
let collected_rows () = List.rev !sink
let emit ~artifact ~label fields = sink := { artifact; label; fields } :: !sink

(* An invariant a bench target checks while it runs: a run that breaks
   one raises with the reason, which fails the target and every dune
   rule that runs it. *)
let require ok fmt = Printf.ksprintf (fun msg -> if not ok then failwith msg) fmt

let json_of_rows rows =
  J.List
    (List.map
       (fun r ->
         J.Obj
           (("artifact", J.String r.artifact)
           :: ("label", J.String r.label)
           :: r.fields))
       rows)

(* a paper-value/measured-value line: print it and record it.  [key]
   overrides the recorded label when the printed one is ambiguous. *)
let paper_row ~artifact ?key label ~paper ~measured =
  row3 label paper (ms measured);
  let paper_field =
    match float_of_string_opt paper with
    | Some v -> ("paper_ms", J.Float v)
    | None -> ("paper", J.String paper)
  in
  emit ~artifact ~label:(Option.value key ~default:label)
    [ paper_field; ("measured_ms", J.Float measured) ]

(* The evaluation platform: a 5.06 MB kernel so the detector's hash takes
   the paper's 22 ms, TPM keys at 1024 bits to keep real RSA fast while
   the *simulated* latencies follow the Broadcom profile. *)
let eval_platform ?(timing = Timing.default) ~seed () =
  let ca = Privacy_ca.create (Prng.create ~seed:(seed ^ "-ca")) ~name:"BenchCA" ~key_bits:1024 in
  let p =
    Platform.create ~seed ~timing ~key_bits:1024
      ~kernel_text_size:(5 * 1024 * 1024) ~ca ()
  in
  (p, Privacy_ca.public_key ca)

(* ------------------------------------------------------------------ *)
(* Table 1: rootkit detector overhead breakdown                        *)
(* ------------------------------------------------------------------ *)

let table1 ?(timing = Timing.default) () =
  header
    (Printf.sprintf "Table 1: Rootkit Detector Overhead  [TPM: %s]"
       timing.Timing.tpm.Timing.tpm_name);
  let p, _ = eval_platform ~timing ~seed:"table1" () in
  let d = Rootkit_detector.deploy_on p in
  let nonce = Platform.fresh_nonce p in
  let result =
    match Rootkit_detector.scan d ~nonce with
    | Ok r -> r
    | Error e -> failwith e
  in
  let o = result.Rootkit_detector.outcome in
  let t0 = Platform.now_ms p in
  let _quote_evidence =
    Attestation.generate p ~nonce:(Platform.fresh_nonce p) ~inputs:"" ~outputs:""
  in
  let quote_ms = Platform.now_ms p -. t0 in
  let skinit = Session.phase_ms o Session.Skinit in
  let extend = timing.Timing.tpm.Timing.pcr_extend_ms in
  let hash_ms =
    Timing.sha1_ms timing ~bytes:(Rootkit_detector.measured_region_bytes d)
  in
  row3 "Operation" "Paper (ms)" "Measured (ms)";
  let t1_row = paper_row ~artifact:"table1" in
  t1_row "SKINIT" ~paper:"15.4" ~measured:skinit;
  t1_row "PCR Extend" ~paper:"1.2" ~measured:extend;
  t1_row "Hash of Kernel" ~paper:"22.0" ~measured:hash_ms;
  t1_row "TPM Quote" ~paper:"972.7" ~measured:quote_ms;
  (* end-to-end over the 12-hop network, on a fresh platform clock *)
  let p2, ca_key = eval_platform ~timing ~seed:"table1-e2e" () in
  let d2 = Rootkit_detector.deploy_on p2 in
  let total =
    match Rootkit_detector.remote_query d2 ~ca_key with
    | Ok (Rootkit_detector.Clean, t) -> t
    | Ok (Rootkit_detector.Rootkit_detected _, _) -> failwith "table1: rootkit detected"
    | Ok (Rootkit_detector.Attestation_rejected f, _) ->
        failwith ("table1: attestation rejected: " ^ Verifier.failure_to_string f)
    | Error e -> failwith e
  in
  paper_row ~artifact:"table1" "Total Query Latency" ~paper:"1022.7" ~measured:total

(* ------------------------------------------------------------------ *)
(* Table 2: SKINIT latency vs SLB size                                 *)
(* ------------------------------------------------------------------ *)

let table2 () =
  header "Table 2: SKINIT duration by SLB size";
  Printf.printf "%-14s %14s %14s\n" "SLB size" "Paper (ms)" "Measured (ms)";
  let timing = Timing.default in
  let measure bytes =
    (* drive the real SKINIT path on a bare machine *)
    let m = Machine.create ~memory_size:(1024 * 1024) timing in
    let tpm = Tpm.create m (Prng.create ~seed:"t2") ~key_bits:512 in
    Machine.set_tpm_hooks m (Tpm.skinit_hooks tpm);
    let base = 0x10000 in
    (* the header length is a 16-bit field: a full 64 KB SLB encodes as
       65532 (the header itself rounds the last word) *)
    Memory.write_u16_le m.Machine.memory base (min 65532 (max 8 bytes));
    Memory.write_u16_le m.Machine.memory (base + 2) 4;
    Apic.deschedule_aps m;
    Apic.send_init_ipi m;
    let t0 = Clock.now m.Machine.clock in
    ignore (Skinit.execute m ~slb_base:base);
    Clock.now m.Machine.clock -. t0
  in
  let skinit_row label bytes paper measured =
    emit ~artifact:"table2" ~label
      [
        ("slb_bytes", J.Int bytes);
        ("paper_ms", J.Float (float_of_string paper));
        ("measured_ms", J.Float measured);
      ]
  in
  List.iter
    (fun (label, kb, paper) ->
      let measured = measure (kb * 1024) in
      Printf.printf "%-14s %14s %14s\n" label paper (ms measured);
      skinit_row label (kb * 1024) paper measured)
    [ ("0 KB", 0, "0.0"); ("4 KB", 4, "11.9"); ("16 KB", 16, "45.0");
      ("32 KB", 32, "89.2"); ("64 KB", 64, "177.5") ];
  let stub_ms = measure Slb_core.stub_size in
  Printf.printf "%-14s %14s %14s  (Section 7.2 optimization)\n" "4736 B stub" "14.0"
    (ms stub_ms);
  skinit_row "4736 B stub" Slb_core.stub_size "14.0" stub_ms

(* ------------------------------------------------------------------ *)
(* Table 3: kernel-build time under periodic detection                 *)
(* ------------------------------------------------------------------ *)

let mmss msv =
  let s = msv /. 1000.0 in
  Printf.sprintf "%d:%04.1f" (int_of_float s / 60) (Float.rem s 60.0)

let build_with_detection ~period_s =
  let p, _ = eval_platform ~seed:"table3" () in
  let d = Rootkit_detector.deploy_on p in
  let job = Scheduler.spawn p.Platform.scheduler ~name:"kernel-build" ~work_ms:442_600.0 in
  let started = Platform.now_ms p in
  (match period_s with
  | None -> Scheduler.run_until_complete p.Platform.scheduler job
  | Some s ->
      while job.Scheduler.completed_at = None do
        Scheduler.run_for p.Platform.scheduler (float_of_int s *. 1000.0);
        if job.Scheduler.completed_at = None then begin
          match Rootkit_detector.scan d ~nonce:(Platform.fresh_nonce p) with
          | Ok _ -> ()
          | Error e -> failwith e
        end
      done);
  Option.get job.Scheduler.completed_at -. started

let table3 () =
  header "Table 3: Kernel-build time with periodic rootkit detection";
  Printf.printf "%-18s %14s %14s\n" "Detection period" "Paper [m:s]" "Measured [m:s]";
  List.iter
    (fun (label, period, paper) ->
      let msv = build_with_detection ~period_s:period in
      Printf.printf "%-18s %14s %14s\n" label paper (mmss msv);
      emit ~artifact:"table3" ~label
        [
          ( "period_s",
            match period with None -> J.Null | Some s -> J.Int s );
          ("paper", J.String paper);
          ("measured_ms", J.Float msv);
        ])
    [
      ("No detection", None, "7:22.6");
      ("5:00", Some 300, "7:21.4");
      ("3:00", Some 180, "7:21.4");
      ("2:00", Some 120, "7:21.8");
      ("1:00", Some 60, "7:21.9");
      ("0:30", Some 30, "7:22.6");
    ]

(* ------------------------------------------------------------------ *)
(* Table 4: distributed-computing session overhead                     *)
(* ------------------------------------------------------------------ *)

let table4 ?(timing = Timing.default) () =
  header
    (Printf.sprintf "Table 4: Distributed Computing Overhead  [TPM: %s]"
       timing.Timing.tpm.Timing.tpm_name);
  Printf.printf "%-22s %10s %10s %10s %10s\n" "Application work (ms)" "1000" "2000"
    "4000" "8000";
  let p, _ = eval_platform ~timing ~seed:"table4" () in
  let unit_ = { Distcomp.unit_id = 1; number = 1_000_003; lo = 2; hi = max_int - 1 } in
  (* each column gets a fresh client: the MAC chains per client, and the
     measurement is about one resume session of the given length *)
  let resume_overhead work =
    let client = Distcomp.create_client p in
    match Distcomp.start client unit_ ~slice_ms:100.0 with
    | Error e -> failwith e
    | Ok first -> (
        match Distcomp.resume client first.Distcomp.state ~slice_ms:work with
        | Ok step ->
            let o = step.Distcomp.outcome in
            (Session.phase_ms o Session.Skinit, step.Distcomp.session_overhead_ms)
        | Error e -> failwith e)
  in
  let works = [ 1000.0; 2000.0; 4000.0; 8000.0 ] in
  let results = List.map resume_overhead works in
  let fmt_row label f = Printf.printf "%-22s %10s %10s %10s %10s\n" label
      (f (List.nth results 0) (List.nth works 0))
      (f (List.nth results 1) (List.nth works 1))
      (f (List.nth results 2) (List.nth works 2))
      (f (List.nth results 3) (List.nth works 3))
  in
  fmt_row "SKINIT (ms)" (fun (s, _) _ -> ms s);
  fmt_row "Unseal+setup (ms)" (fun (s, o) _ -> ms (o -. s -. 0.1));
  fmt_row "Flicker overhead (%)" (fun (_, o) w -> Printf.sprintf "%.0f%%" (o /. (o +. w) *. 100.0));
  Printf.printf "%-22s %10s %10s %10s %10s   (paper)\n" "" "47%" "30%" "18%" "10%";
  let emit_row label value =
    emit ~artifact:"table4" ~label
      (List.map2
         (fun w r -> (Printf.sprintf "work_%.0f_ms" w, J.Float (value r w)))
         works results)
  in
  emit_row "skinit_ms" (fun (s, _) _ -> s);
  emit_row "unseal_setup_ms" (fun (s, o) _ -> o -. s -. 0.1);
  emit_row "overhead_pct" (fun (_, o) w -> o /. (o +. w) *. 100.0)

(* ------------------------------------------------------------------ *)
(* Figure 8: Flicker vs replication efficiency                         *)
(* ------------------------------------------------------------------ *)

let figure8 ?(timing = Timing.default) () =
  header "Figure 8: Flicker vs Replication Efficiency (fraction of useful work)";
  Printf.printf "%-16s" "Latency (s)";
  for s = 1 to 10 do
    Printf.printf "%6d" s
  done;
  print_newline ();
  Printf.printf "%-16s" "Flicker";
  for s = 1 to 10 do
    Printf.printf "%6.2f" (Distcomp.efficiency timing ~work_ms:(float_of_int s *. 1000.0))
  done;
  print_newline ();
  emit ~artifact:"figure8" ~label:"Flicker"
    [
      ( "efficiency_by_latency_s",
        J.List
          (List.init 10 (fun i ->
               J.Float
                 (Distcomp.efficiency timing
                    ~work_ms:(float_of_int (i + 1) *. 1000.0)))) );
    ];
  List.iter
    (fun k ->
      Printf.printf "%-16s" (Printf.sprintf "%d-way repl." k);
      for _ = 1 to 10 do
        Printf.printf "%6.2f" (Distcomp.replication_efficiency k)
      done;
      print_newline ();
      emit ~artifact:"figure8"
        ~label:(Printf.sprintf "%d-way replication" k)
        [ ("efficiency", J.Float (Distcomp.replication_efficiency k)) ])
    [ 3; 5; 7 ];
  (* crossover commentary, as in the paper's text *)
  let eff2s = Distcomp.efficiency timing ~work_ms:2000.0 in
  Printf.printf
    "At 2 s user latency Flicker reaches %.0f%% efficiency vs 33%% for 3-way replication.\n"
    (eff2s *. 100.0)

(* ------------------------------------------------------------------ *)
(* Figure 9: SSH overhead                                              *)
(* ------------------------------------------------------------------ *)

let figure9 ?(timing = Timing.default) () =
  header
    (Printf.sprintf "Figure 9: SSH server-side overhead  [TPM: %s]"
       timing.Timing.tpm.Timing.tpm_name);
  let p, ca_key = eval_platform ~timing ~seed:"figure9" () in
  let server = Ssh_auth.create_server p ~key_bits:1024 ~users:[ ("user", "pass") ] () in
  let nonce = Platform.fresh_nonce p in
  let setup =
    match Ssh_auth.server_setup server ~nonce with Ok s -> s | Error e -> failwith e
  in
  let so = setup.Secure_channel.outcome in
  Printf.printf "(a) PAL 1 (setup)\n";
  row3 "Operation" "Paper (ms)" "Measured (ms)";
  let setup_row = paper_row ~artifact:"figure9" in
  setup_row ~key:"setup SKINIT" "SKINIT" ~paper:"14.3"
    ~measured:(Session.phase_ms so Session.Skinit);
  setup_row ~key:"setup Key Gen" "Key Gen" ~paper:"185.7"
    ~measured:(Timing.rsa_keygen_ms timing ~bits:1024);
  setup_row ~key:"setup Seal" "Seal" ~paper:"10.2"
    ~measured:timing.Timing.tpm.Timing.seal_ms;
  setup_row ~key:"setup Total Time" "Total Time" ~paper:"217.1"
    ~measured:so.Session.total_ms;
  let client =
    Ssh_auth.Client.create ~rng:(Prng.create ~seed:"fig9-client") ~ca_key
      ~server_slb_base:p.Platform.slb_base ~key_bits:1024 ()
  in
  (match Ssh_auth.Client.accept_server_key client ~nonce setup.Secure_channel.evidence with
  | Ok () -> ()
  | Error e -> failwith e);
  let login_nonce = Platform.fresh_nonce p in
  let ct =
    match Ssh_auth.Client.encrypt_password client ~password:"pass" ~nonce:login_nonce with
    | Ok c -> c
    | Error e -> failwith e
  in
  let login =
    match Ssh_auth.server_login server ~user:"user" ~ciphertext:ct ~nonce:login_nonce with
    | Ok l -> l
    | Error e -> failwith e
  in
  let lo = login.Ssh_auth.login_outcome in
  Printf.printf "(b) PAL 2 (login)   [password %s]\n"
    (if login.Ssh_auth.granted then "accepted" else "REJECTED");
  row3 "Operation" "Paper (ms)" "Measured (ms)";
  let login_row = paper_row ~artifact:"figure9" in
  login_row ~key:"login SKINIT" "SKINIT" ~paper:"14.3"
    ~measured:(Session.phase_ms lo Session.Skinit);
  login_row ~key:"login Unseal" "Unseal" ~paper:"905.4"
    ~measured:timing.Timing.tpm.Timing.unseal_ms;
  login_row ~key:"login Decrypt" "Decrypt" ~paper:"4.6"
    ~measured:(Timing.rsa_private_ms timing ~bits:1024);
  login_row ~key:"login Total Time" "Total Time" ~paper:"937.6"
    ~measured:lo.Session.total_ms

(* ------------------------------------------------------------------ *)
(* Section 7.4.2: certificate authority                                *)
(* ------------------------------------------------------------------ *)

let ca_bench ?(timing = Timing.default) () =
  header
    (Printf.sprintf "Section 7.4.2: CA certificate signing  [TPM: %s]"
       timing.Timing.tpm.Timing.tpm_name);
  let p, _ = eval_platform ~timing ~seed:"ca-bench" () in
  let policy =
    { CA.allowed_suffixes = [ ".example.com" ]; denied_subjects = []; max_certificates = 100 }
  in
  let ca = CA.create p ~key_bits:1024 policy in
  let t0 = Platform.now_ms p in
  let pub = match CA.init_ca ca with Ok pub -> pub | Error e -> failwith e in
  let init_ms = Platform.now_ms p -. t0 in
  let csr =
    {
      CA.subject = "www.example.com";
      subject_key = (Rsa.generate (Prng.create ~seed:"csr") ~bits:512).Rsa.pub;
    }
  in
  let t1 = Platform.now_ms p in
  let cert = match CA.sign_csr ca csr with Ok c -> c | Error e -> failwith e in
  let sign_ms = Platform.now_ms p -. t1 in
  row3 "Operation" "Paper (ms)" "Measured (ms)";
  let ca_row = paper_row ~artifact:"ca" in
  ca_row "Keypair generation session" ~paper:"~217" ~measured:init_ms;
  ca_row "Certificate signing session" ~paper:"906.2" ~measured:sign_ms;
  ca_row "RSA signature (inside PAL)" ~paper:"4.7"
    ~measured:(Timing.rsa_private_ms timing ~bits:1024);
  let verifies = CA.verify_certificate ~ca_key:pub cert in
  Printf.printf "certificate #%d for %s verifies: %b\n" cert.CA.serial
    cert.CA.cert_subject verifies;
  emit ~artifact:"ca" ~label:"certificate"
    [
      ("serial", J.Int cert.CA.serial);
      ("subject", J.String cert.CA.cert_subject);
      ("verifies", J.Bool verifies);
    ]

(* ------------------------------------------------------------------ *)
(* Section 7.5: impact on the suspended OS                             *)
(* ------------------------------------------------------------------ *)

let impact () =
  header "Section 7.5: Device transfers across repeated 8.3 s Flicker sessions";
  let p, _ = eval_platform ~seed:"impact" () in
  let long_pal =
    Pal.define ~name:"bench-long-unit" (fun env ->
        Pal_env.compute env ~ms:8300.0;
        Pal_env.set_output env "done")
  in
  let devices =
    [
      ("cdrom", Blockdev.create ~name:"cdrom" ~rate_kb_per_ms:8.0);
      ("hd", Blockdev.create ~name:"hd" ~rate_kb_per_ms:60.0);
      ("usb", Blockdev.create ~name:"usb" ~rate_kb_per_ms:15.0);
    ]
  in
  let dev n = List.assoc n devices in
  let data = Flicker_crypto.Prng.bytes (Prng.create ~seed:"payload") (2 * 1024 * 1024) in
  let reference = Flicker_crypto.Md5.hex data in
  Printf.printf "%-22s %12s %10s %8s\n" "Transfer" "Duration (s)" "Sessions" "md5 ok";
  List.iter
    (fun (src, dst) ->
      Blockdev.store (dev src) ~file:"file.bin" data;
      let sessions = ref 0 in
      let between_chunks () =
        if !sessions < 2 then begin
          incr sessions;
          match Session.call p ~pal:long_pal () with
          | Ok _ -> ()
          | Error e -> failwith e
        end
      in
      match
        Blockdev.transfer p.Platform.machine ~scheduler:p.Platform.scheduler
          ~src:(dev src) ~dst:(dev dst) ~file:"file.bin" ~chunk_kb:512 ~between_chunks ()
      with
      | Error e -> failwith e
      | Ok msv ->
          let ok = Result.get_ok (Blockdev.md5sum (dev dst) ~file:"file.bin") = reference in
          Printf.printf "%-22s %12.1f %10d %8b\n"
            (Printf.sprintf "%s -> %s" src dst)
            (msv /. 1000.0) !sessions ok;
          emit ~artifact:"impact"
            ~label:(Printf.sprintf "%s -> %s" src dst)
            [
              ("duration_ms", J.Float msv);
              ("sessions", J.Int !sessions);
              ("md5_ok", J.Bool ok);
            ])
    [ ("cdrom", "hd"); ("cdrom", "usb"); ("hd", "usb"); ("usb", "hd") ]

(* ------------------------------------------------------------------ *)
(* Figures 1 & 6: TCB accounting                                       *)
(* ------------------------------------------------------------------ *)

let figure6 () =
  header "Figure 6: PAL modules (LOC and binary size)";
  Format.printf "%a" Tcb.pp_rows (Tcb.figure6 ());
  List.iter
    (fun r ->
      emit ~artifact:"figure6" ~label:r.Tcb.component
        [ ("loc", J.Int r.Tcb.loc); ("size_bytes", J.Int r.Tcb.size_bytes) ])
    (Tcb.figure6 ());
  header "Figure 1 / Section 3: TCB size comparison";
  List.iter
    (fun (name, loc) ->
      Printf.printf "%-55s %10d LOC\n" name loc;
      emit ~artifact:"figure6" ~label:name [ ("loc", J.Int loc) ])
    Tcb.comparison

(* ------------------------------------------------------------------ *)
(* Ablation: RSA vs ElGamal channel-key generation (Section 7.4.1)     *)
(* ------------------------------------------------------------------ *)

let keygen_ablation () =
  header
    "Ablation: secure-channel setup cost, RSA vs ElGamal keygen (Section 7.4.1)";
  let timing = Timing.default in
  let machine = Machine.create ~memory_size:(1024 * 1024) timing in
  let rng = Prng.create ~seed:"keygen-ablation" in
  let params = Lazy.force Flicker_crypto.Elgamal.shared_params_1024 in
  let measure f =
    let t0 = Clock.now machine.Machine.clock in
    f ();
    Clock.now machine.Machine.clock -. t0
  in
  let rsa_ms = measure (fun () -> ignore (Flicker_slb.Mod_crypto.rsa_generate machine rng ~bits:1024)) in
  let elg_ms =
    measure (fun () -> ignore (Flicker_slb.Mod_crypto.elgamal_generate machine rng params))
  in
  let fixed =
    Timing.skinit_ms timing ~slb_bytes:Slb_core.stub_size
    +. timing.Timing.tpm.Timing.seal_ms
    +. Timing.get_random_ms timing ~bytes:128
  in
  Printf.printf "%-34s %14s %14s\n" "" "RSA-1024" "ElGamal-1024";
  Printf.printf "%-34s %14.1f %14.1f\n" "key generation (ms)" rsa_ms elg_ms;
  Printf.printf "%-34s %14.1f %14.1f\n" "setup PAL total (ms, modelled)" (fixed +. rsa_ms)
    (fixed +. elg_ms);
  emit ~artifact:"keygen" ~label:"key generation (ms)"
    [ ("rsa_1024", J.Float rsa_ms); ("elgamal_1024", J.Float elg_ms) ];
  emit ~artifact:"keygen" ~label:"setup PAL total (ms, modelled)"
    [
      ("rsa_1024", J.Float (fixed +. rsa_ms));
      ("elgamal_1024", J.Float (fixed +. elg_ms));
    ];
  Printf.printf
    "the paper: \"this cost could be mitigated by choosing a different public key\n\
     algorithm with faster key generation, such as ElGamal\" -- a %.0fx keygen saving.\n"
    (rsa_ms /. elg_ms)

(* ------------------------------------------------------------------ *)
(* Comparison: trusted boot (IMA) vs Flicker attestation burden        *)
(* ------------------------------------------------------------------ *)

let burden () =
  header "Comparison: verification burden, trusted boot (IMA) vs Flicker (Sections 2.1, 8)";
  let p, _ = eval_platform ~seed:"burden" () in
  Tpm.reboot p.Platform.tpm;
  let ima = Flicker_os.Measured_boot.create p.Platform.tpm in
  Flicker_os.Measured_boot.boot_sequence ima p.Platform.kernel;
  for i = 1 to 60 do
    Flicker_os.Measured_boot.run_application ima
      ~name:(Printf.sprintf "/usr/bin/app%02d" i)
      ~code:(Printf.sprintf "app-binary-%d" i)
  done;
  let log = Flicker_os.Measured_boot.log ima in
  let tb = Trusted_boot.trusted_boot_burden log in
  let pal =
    Pal.define ~name:"bench-burden-pal" ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities ]
      (fun env -> Pal_env.set_output env "")
  in
  let fl = Trusted_boot.flicker_burden pal in
  Printf.printf "%-44s %10s %16s\n" "Attestation model" "Components" "Includes full OS";
  let burden_row label b =
    Printf.printf "%-44s %10d %16b\n" label b.Trusted_boot.components_to_assess
      b.Trusted_boot.includes_full_os;
    emit ~artifact:"burden" ~label
      [
        ("components", J.Int b.Trusted_boot.components_to_assess);
        ("includes_full_os", J.Bool b.Trusted_boot.includes_full_os);
      ]
  in
  burden_row "Trusted boot (IMA event log, one workday)" tb;
  burden_row "Flicker (SLB Core + 2 modules + PAL)" fl

(* ------------------------------------------------------------------ *)
(* Comparison: AMD SKINIT vs Intel GETSEC[SENTER] launch               *)
(* ------------------------------------------------------------------ *)

let txt () =
  header "Comparison: AMD SKINIT vs Intel TXT GETSEC[SENTER] (Section 2.4)";
  let p, _ = eval_platform ~seed:"txt-bench" () in
  let pal = Pal.define ~name:"bench-txt-pal" (fun env -> Pal_env.set_output env "done") in
  let run tech =
    match Session.execute p ~pal ?tech () with
    | Ok o -> o
    | Error e -> Format.kasprintf failwith "%a" Session.pp_error e
  in
  let svm = run None in
  let acm = Skinit.default_acm () in
  let txt = run (Some (Session.Txt { acm })) in
  Printf.printf "%-30s %14s %14s\n" "" "SKINIT" "SENTER";
  let txt_row label skinit_v senter_v =
    Printf.printf "%-30s %14.1f %14.1f\n" label skinit_v senter_v;
    emit ~artifact:"txt" ~label
      [ ("skinit_ms", J.Float skinit_v); ("senter_ms", J.Float senter_v) ]
  in
  txt_row "launch instruction (ms)"
    (Session.phase_ms svm Session.Skinit)
    (Session.phase_ms txt Session.Skinit);
  txt_row "session total (ms)" svm.Session.total_ms txt.Session.total_ms;
  Printf.printf
    "SENTER additionally transfers and measures the %d-byte SINIT ACM; the\n\
     measurement chains differ, so attestations identify the launch technology.\n"
    (String.length acm)

(* ------------------------------------------------------------------ *)
(* Ablation: TPM profiles                                              *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablation: Broadcom vs Infineon vs projected next-gen TPM";
  Printf.printf "%-28s %12s %12s %12s\n" "Metric" "Broadcom" "Infineon" "Next-gen";
  let metric f =
    List.map
      (fun prof -> f (Timing.with_tpm prof Timing.default))
      [ Timing.broadcom; Timing.infineon; Timing.future_tpm ]
  in
  let quote = metric (fun t -> t.Timing.tpm.Timing.quote_ms) in
  let unseal = metric (fun t -> t.Timing.tpm.Timing.unseal_ms) in
  let eff = metric (fun t -> Distcomp.efficiency t ~work_ms:1000.0 *. 100.0) in
  let ssh_login =
    metric (fun t ->
        Timing.skinit_ms t ~slb_bytes:Slb_core.stub_size
        +. t.Timing.tpm.Timing.unseal_ms
        +. Timing.rsa_private_ms t ~bits:1024)
  in
  let print_row name values unit_str =
    Printf.printf "%-28s %12.1f %12.1f %12.1f %s\n" name (List.nth values 0)
      (List.nth values 1) (List.nth values 2) unit_str;
    emit ~artifact:"ablation" ~label:name
      [
        ("broadcom", J.Float (List.nth values 0));
        ("infineon", J.Float (List.nth values 1));
        ("next_gen", J.Float (List.nth values 2));
      ]
  in
  print_row "TPM Quote (ms)" quote "";
  print_row "TPM Unseal (ms)" unseal "";
  print_row "SSH login PAL (ms)" ssh_login "";
  print_row "1s-work efficiency (%)" eff ""
