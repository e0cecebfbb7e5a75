(* The temporal protocol verifier: automata unit tests over synthetic
   event sequences, trace conformance over real simulator sessions, the
   model checker against the good session and every planted bug, and
   the DMA-during-PAL regression tying the DEV, the event stream, and
   the automata together. *)

open Flicker_core
module V = Flicker_verify
module E = V.Event
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Mod_tpm_driver = Flicker_slb.Mod_tpm_driver
module Mod_tpm_utils = Flicker_slb.Mod_tpm_utils
module Machine = Flicker_hw.Machine
module Dma = Flicker_hw.Dma
module Tracer = Flicker_obs.Tracer
module Adversary = Flicker_os.Adversary
module Builder = Flicker_slb.Builder
module Layout = Flicker_slb.Layout

let make_platform ~seed = Platform.create ~seed ~key_bits:512 ()

(* --- shared synthetic event shorthand --- *)

let w_addr = 0x30000
let w_len = 0x10000
let skinit = E.Skinit_begin E.Svm
let protect = E.Dev_protect { addr = w_addr; len = w_len }
let unprotect = E.Dev_unprotect { addr = w_addr; len = w_len }
let zeroize = E.Zeroize { addr = w_addr; len = w_len }
let ext kind = E.Pcr_extend { index = 17; kind }

(* a fully disciplined session, as the automata expect to see it *)
let good_session =
  [
    E.Session_begin "t";
    E.Os_suspend;
    skinit;
    protect;
    E.Pcr_reset;
    ext E.Measure;
    E.Skinit_end;
    ext E.Stub;
    zeroize;
    ext E.Input;
    ext E.Output;
    ext E.Nonce;
    ext E.Cap;
    unprotect;
    E.Os_resume;
    E.Session_end;
  ]

let feed_to_end auto events =
  let rec go inst = function
    | [] -> Ok ()
    | e :: rest -> (
        match V.Automata.feed inst e with
        | Ok i -> go i rest
        | Error m -> Error m)
  in
  go (V.Automata.start auto) events

let check_accepts auto events =
  match feed_to_end auto events with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s rejected: %s" (V.Automata.name auto) m

let check_rejects auto events =
  match feed_to_end auto events with
  | Ok () -> Alcotest.failf "%s accepted a bad sequence" (V.Automata.name auto)
  | Error _ -> ()

(* --- automata unit tests --- *)

let test_good_sequence_accepted () =
  List.iter (fun a -> check_accepts a good_session) V.Automata.all;
  (* two sessions back to back: every automaton returns to rest *)
  List.iter (fun a -> check_accepts a (good_session @ good_session)) V.Automata.all

let test_cap_before_resume () =
  let a = V.Automata.cap_before_resume in
  check_rejects a [ E.Os_suspend; skinit; protect; zeroize; E.Os_resume ];
  (* resume without a launch is fine *)
  check_accepts a [ E.Os_suspend; E.Os_resume ]

let test_dev_covers_slb () =
  let a = V.Automata.dev_covers_slb in
  (* measurement with no DEV over the window *)
  check_rejects a [ E.Os_suspend; skinit; E.Pcr_reset; ext E.Measure ];
  (* DEV dropped before zeroize *)
  check_rejects a [ E.Os_suspend; skinit; protect; ext E.Measure; unprotect ];
  check_rejects a [ E.Os_suspend; skinit; protect; ext E.Measure; E.Dev_clear ];
  (* a partial wipe does not count as zeroizing the window *)
  check_rejects a
    [ skinit; protect; E.Zeroize { addr = w_addr; len = 16 }; unprotect ];
  (* after a full wipe the DEV may drop *)
  check_accepts a [ skinit; protect; zeroize; unprotect ]

let test_zeroize_before_exit () =
  let a = V.Automata.zeroize_before_exit in
  check_rejects a [ E.Os_suspend; skinit; protect; ext E.Cap; E.Os_resume ];
  check_accepts a [ E.Os_suspend; skinit; protect; zeroize; E.Os_resume ]

let test_extend_order () =
  let a = V.Automata.extend_order in
  let prefix = [ skinit; protect; E.Pcr_reset; ext E.Measure ] in
  (* outputs before inputs *)
  check_rejects a (prefix @ [ ext E.Output; ext E.Input ]);
  (* cap then more session extends *)
  check_rejects a (prefix @ [ ext E.Input; ext E.Output; ext E.Cap; ext E.Input ]);
  (* stub after I/O *)
  check_rejects a (prefix @ [ ext E.Input; ext E.Stub ]);
  (* session-labeled extend with no launch *)
  check_rejects a [ ext E.Cap ];
  (* SENTER's double measure (ACM then MLE) is legal *)
  check_accepts a
    (prefix @ [ ext E.Measure; ext E.Input; ext E.Output; ext E.Cap ]);
  (* PAL software extends are unconstrained *)
  check_accepts a
    (prefix @ [ ext E.Software; ext E.Input; ext E.Output; ext E.Cap; ext E.Software ]);
  (* other PCRs are not the session's business *)
  check_accepts a [ E.Pcr_extend { index = 10; kind = E.Cap } ]

let test_nv_monotonic () =
  let a = V.Automata.nv_monotonic in
  let incr v = E.Counter_increment { handle = 3; value = v } in
  let write v = E.Nv_write { index = 0x1200; counter = Some v } in
  check_accepts a [ incr 1; incr 2; incr 5; write 1; write 2; write 9 ];
  check_rejects a [ incr 4; incr 4 ];
  check_rejects a [ incr 4; incr 3 ];
  check_rejects a [ write 7; write 6 ];
  (* a same-value rewrite is a replayed blob being persisted *)
  check_rejects a [ write 7; write 7 ];
  (* once the index stops holding a 4-byte counter, it is untracked *)
  check_accepts a
    [ write 7; E.Nv_write { index = 0x1200; counter = None }; write 1 ]

let test_fresh_nv_on_launch () =
  let a = V.Automata.fresh_nv_on_launch in
  let read = E.Nv_read { index = 0x1200 } in
  let write v = E.Nv_write { index = 0x1200; counter = Some v } in
  (* provisioning: a first-time write needs no prior read *)
  check_accepts a [ E.Os_suspend; skinit; write 0 ];
  (* read-then-write inside each launch is the disciplined reseal *)
  check_accepts a
    [ skinit; read; write 1; E.Os_resume; skinit; read; write 2 ];
  (* a second launch re-writing the index without a fresh read cannot
     have performed the freshness comparison *)
  check_rejects a [ skinit; read; write 1; E.Os_resume; skinit; write 2 ];
  (* the read must come from the same launch, not a previous one *)
  check_rejects a [ skinit; read; write 1; E.Pcr_reboot; skinit; write 2 ];
  (* out-of-launch writes (the untrusted OS's own NV use) are exempt *)
  check_accepts a [ skinit; read; write 1; E.Os_resume; write 2 ];
  (* releasing the index resets its provenance *)
  check_accepts a
    [
      skinit; read; write 1; E.Os_resume;
      E.Nv_write { index = 0x1200; counter = None };
      skinit; write 5;
    ]

let test_no_unchecked_dma () =
  let a = V.Automata.no_unchecked_dma in
  let dma denied =
    E.Dma_attempt { addr = w_addr; len = 4096; write = false; denied }
  in
  check_rejects a [ skinit; protect; dma false ];
  check_accepts a [ skinit; protect; dma true ];
  (* outside a session the window is fair game *)
  check_accepts a [ dma false ];
  (* after the wipe, reads hit zeros: not a violation *)
  check_accepts a [ skinit; protect; zeroize; dma false ]

let test_suspend_before_launch () =
  let a = V.Automata.suspend_before_launch in
  check_rejects a [ skinit ];
  check_rejects a [ E.Os_suspend; E.Os_resume; skinit ];
  check_accepts a [ E.Os_suspend; skinit ]

(* --- checker over synthetic traces --- *)

let test_checker_broken_trace () =
  (* a session that resumes without capping: exactly the cap automaton
     fires, and the report pinpoints the resume event *)
  let broken =
    [
      E.Session_begin "broken";
      E.Os_suspend;
      skinit;
      protect;
      E.Pcr_reset;
      ext E.Measure;
      E.Skinit_end;
      zeroize;
      unprotect;
      E.Os_resume;
      E.Session_end;
    ]
  in
  let report = V.Checker.check broken in
  Alcotest.(check int) "events" (List.length broken) report.V.Checker.events_checked;
  match report.V.Checker.violations with
  | [ v ] ->
      Alcotest.(check string) "automaton" "cap-before-resume" v.V.Checker.automaton;
      Alcotest.(check bool) "at the resume" true (v.V.Checker.event = E.Os_resume);
      Alcotest.(check bool) "window nonempty" true (v.V.Checker.window <> [])
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_checker_restarts_after_violation () =
  (* one broken session then one good one: only one violation *)
  let broken = [ E.Os_suspend; skinit; protect; zeroize; unprotect; E.Os_resume ] in
  let report = V.Checker.check (broken @ good_session) in
  Alcotest.(check int) "one violation" 1
    (List.length report.V.Checker.violations)

(* --- conformance over real simulator sessions --- *)

(* the protocol events in a machine's trace, as (name, args) records
   without the trace-only annotations: an extend's value and a DMA
   attempt's device *)
let recorded_events p =
  List.filter_map
    (fun (e : Tracer.event) ->
      match (e.Tracer.cat, e.Tracer.name, e.Tracer.args) with
      | "protocol", "pcr.extend", args ->
          Some (e.Tracer.name, List.filter (fun (k, _) -> k <> "value") args)
      | "protocol", "dma.attempt", _device :: args -> Some (e.Tracer.name, args)
      | "protocol", name, args -> Some (name, args)
      | _ -> None)
    (Tracer.events p.Platform.machine.Machine.tracer)

(* the model's good session for a session of the PAL [name] on [p]'s
   window and input page, with [pal] in the PAL slot, as records *)
let model_session p ~name ~tech ~flavor ~nonce pal =
  let base = p.Platform.slb_base in
  V.Model.session_events ~name ~tech ~stub:(flavor = Builder.Optimized) ~nonce
    ~window:(base, Layout.slb_size)
    ~input_page:(base + Layout.inputs_page_offset, Layout.io_page_size)
    pal
  |> List.map (fun ev -> (E.name ev, E.args ev))

let show_records records =
  let arg = function
    | Tracer.Str s -> s
    | Tracer.Num f -> Printf.sprintf "%g" f
    | Tracer.Count n -> string_of_int n
    | Tracer.Flag b -> string_of_bool b
  in
  String.concat "; "
    (List.map
       (fun (name, args) ->
         Printf.sprintf "%s(%s)" name
           (String.concat "," (List.map (fun (k, a) -> k ^ "=" ^ arg a) args)))
       records)

let txt = Session.Txt { acm = Flicker_hw.Skinit.default_acm () }

let run_session ?tech ?flavor ?inputs ?nonce p name output =
  let pal = Pal.define ~name (fun env -> Pal_env.set_output env output) in
  match Session.execute p ~pal ?tech ?flavor ?inputs ?nonce () with
  | Ok o -> o
  | Error e -> Alcotest.failf "session %s: %a" name Session.pp_error e

(* a platform whose machine feeds every protocol event to [checker]:
   its sessions run under the conformance gate *)
let checked_platform ~seed =
  let p = make_platform ~seed in
  let checker = V.Checker.create () in
  Machine.attach_checker p.Platform.machine checker;
  (p, checker)

let test_real_sessions_conform () =
  let p, checker = checked_platform ~seed:"verify-conform" in
  let nonce = Platform.fresh_nonce p in
  ignore (run_session p "vc-opt" "a" ~inputs:"in" ~nonce);
  ignore (run_session p "vc-std" "b" ~flavor:Flicker_slb.Builder.Standard);
  ignore (run_session p "vc-txt" "c" ~tech:txt);
  let report = V.Checker.report checker in
  Alcotest.(check int) "no violations" 0 (List.length report.V.Checker.violations);
  Alcotest.(check bool) "protocol events seen" true
    (report.V.Checker.events_checked > 30)

let test_session_gate_accepts () =
  (* the in-session conformance gate: on, a clean session returns
     normally instead of raising *)
  let p, _ = checked_platform ~seed:"verify-gate" in
  let o = run_session p "vg" "gated" in
  Alcotest.(check string) "ran" "gated" o.Session.outputs

let test_session_gate_raises () =
  (* a PAL that clears the DEV while its window is still un-zeroized
     breaks dev-covers-slb: the gate fails the session, even when the
     PAL first logs more events than the 4,096-event trace ring holds *)
  let clearing ~noise =
    Pal.define ~name:"vg-clear" (fun env ->
        for i = 1 to noise do
          Machine.log_event env.Pal_env.machine (Printf.sprintf "noise %d" i)
        done;
        Flicker_hw.Dev.clear env.Pal_env.machine.Machine.dev;
        Pal_env.set_output env "cleared")
  in
  List.iter
    (fun noise ->
      let p, _ = checked_platform ~seed:(Printf.sprintf "verify-gate-%d" noise) in
      match Session.execute p ~pal:(clearing ~noise) () with
      | Ok _ | Error _ -> Alcotest.failf "after %d log lines: the session was not failed" noise
      | exception Session.Protocol_violation { pal; violations } ->
          Alcotest.(check string) "pal" "vg-clear" pal;
          Alcotest.(check (list string))
            (Printf.sprintf "after %d log lines" noise)
            [ "dev-covers-slb" ]
            (List.map (fun v -> v.V.Checker.automaton) violations))
    [ 0; 5000 ]

let test_replay_guard_conforms () =
  (* versioned state in an NV space: define and zero the space, then seal
     (which advances it); the nv-monotonic automaton must accept its real
     traffic *)
  let p, checker = checked_platform ~seed:"verify-replay" in
  let pal =
    Pal.define ~name:"vr-nv" ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities ]
      (fun env ->
        let rng = env.Pal_env.rng and index = 0x1500 in
        match
          Mod_tpm_driver.with_tpm env.Pal_env.tpm_driver (fun tpm ->
              Result.map_error Flicker_tpm.Tpm_types.error_to_string
                (Result.bind
                   (Mod_tpm_utils.create_nv_version tpm ~rng
                      ~owner_auth:(String.make 20 '\000') ~index)
                   (fun () ->
                     Mod_tpm_utils.seal_versioned tpm ~rng (Mod_tpm_utils.Nv_space index)
                       "counter-bound secret")))
        with
        | Ok _ -> Pal_env.set_output env "nv"
        | Error e -> Pal_env.set_output env ("ERROR: " ^ e))
  in
  Tracer.clear p.Platform.machine.Machine.tracer;
  (match Session.execute p ~pal () with
  | Ok o -> Alcotest.(check string) "guard ran" "nv" o.Session.outputs
  | Error e -> Alcotest.failf "session: %a" Session.pp_error e);
  let report = V.Checker.report checker in
  Alcotest.(check int) "no violations" 0 (List.length report.V.Checker.violations);
  (* the PAL's NV traffic fills the model's PAL slot: the guard zeroes
     its counter, then reads it and writes it advanced before sealing *)
  Alcotest.(check string) "the model's good session"
    (show_records
       (model_session p ~name:"vr-nv" ~tech:E.Svm ~flavor:Builder.Optimized ~nonce:false
          [
            E.Nv_write { index = 0x1500; counter = Some 0 };
            E.Nv_read { index = 0x1500 };
            E.Nv_write { index = 0x1500; counter = Some 1 };
          ]))
    (show_records (recorded_events p))

let test_power_cycle_during_pal () =
  (* a crash under a running PAL: the TPM's reboot ends the launch before
     the DEV clears and the OS resumes, the session ends busy without
     wiping, extending or resuming the rebooted machine, and the retry
     relaunches it cleanly *)
  let p, checker = checked_platform ~seed:"verify-power-cycle" in
  let runs = ref 0 in
  let pal =
    Pal.define ~name:"vpc-crash" (fun env ->
        incr runs;
        if !runs = 1 then Platform.power_cycle p;
        Pal_env.set_output env "relaunched")
  in
  (match Session.call p ~pal () with
  | Ok o -> Alcotest.(check string) "relaunch ran" "relaunched" o.Session.outputs
  | Error e -> Alcotest.fail ("session: " ^ e));
  Alcotest.(check int) "PAL ran twice" 2 !runs;
  let report = V.Checker.report checker in
  Alcotest.(check (list string)) "no violations" []
    (List.map V.Checker.violation_to_string report.V.Checker.violations)

(* --- the planted-bug regression: DMA during a PAL run --- *)

let test_dma_during_pal_denied_and_traced () =
  let p, checker = checked_platform ~seed:"verify-dma" in
  let nic = Dma.create p.Platform.machine ~name:"verify-nic" in
  let slb_base = p.Platform.slb_base in
  let probe = ref None in
  let pal =
    Pal.define ~name:"verify-dma-victim" (fun env ->
        probe :=
          Some (Adversary.dma_read_probe nic ~addr:slb_base ~len:4096 ~pattern:"\x7f");
        Pal_env.set_output env "alive")
  in
  (match Session.execute p ~pal () with
  | Ok o -> Alcotest.(check string) "pal ran" "alive" o.Session.outputs
  | Error e -> Alcotest.failf "session: %a" Session.pp_error e);
  (* the DEV denied it *)
  (match !probe with
  | Some r -> Alcotest.(check bool) "probe failed" false r.Adversary.succeeded
  | None -> Alcotest.fail "probe never ran");
  (* ... and the denial is in the protocol trace *)
  let denied_attempts =
    List.filter
      (fun (e : Tracer.event) ->
        e.Tracer.name = "dma.attempt"
        && List.assoc_opt "addr" e.Tracer.args = Some (Tracer.Count slb_base)
        && List.assoc_opt "denied" e.Tracer.args = Some (Tracer.Flag true))
      (Tracer.events p.Platform.machine.Machine.tracer)
  in
  Alcotest.(check bool) "denied dma.attempt traced" true (denied_attempts <> []);
  (* ... and the session still conforms: denied DMA is the DEV working *)
  let report = V.Checker.report checker in
  Alcotest.(check int) "no violations" 0 (List.length report.V.Checker.violations)

(* --- model checker --- *)

let run_intended ?por variant =
  let adversary, sessions = V.Model.intended_adversary variant in
  V.Mc.run ~adversary ~sessions ?por variant

(* the minimal counterexample length of every planted bug, asserted
   exactly: POR, the dedup rework or a model change that lengthens (or
   shortens) any of these is a regression *)
let minimal_cex_lengths =
  [
    (V.Model.Resume_before_cap, 13);
    (V.Model.Clear_dev_early, 5);
    (V.Model.Skip_zeroize, 12);
    (V.Model.Nv_rollback, 8);
    (V.Model.Launch_unsuspended, 2);
    (V.Model.Out_of_order_extends, 9);
    (V.Model.Reseal_without_counter_check, 24);
    (V.Model.Trust_state_across_reset, 5);
  ]

let test_mc_good_verifies () =
  let r = V.Mc.run V.Model.Good in
  (match r.V.Mc.outcome with
  | V.Mc.Verified -> ()
  | V.Mc.Violation cex ->
      Alcotest.failf "good session flagged: %s (%s)" cex.V.Mc.automaton
        cex.V.Mc.message);
  Alcotest.(check bool) "full exploration" false r.V.Mc.stats.V.Mc.truncated;
  Alcotest.(check bool) "explored states" true (r.V.Mc.stats.V.Mc.states > 10)

let test_mc_good_under_every_adversary () =
  (* the disciplined session stays clean under each adversary model
     alone, all four composed, and with the reduction on or off *)
  let configs =
    List.map (fun k -> V.Adversary.of_kinds [ k ]) V.Adversary.all_kinds
    @ [ V.Adversary.of_kinds V.Adversary.all_kinds ]
  in
  List.iter
    (fun adversary ->
      List.iter
        (fun por ->
          let r = V.Mc.run ~adversary ~sessions:2 ~por V.Model.Good in
          match r.V.Mc.outcome with
          | V.Mc.Verified ->
              Alcotest.(check bool)
                (V.Adversary.name adversary ^ " full exploration")
                false r.V.Mc.stats.V.Mc.truncated
          | V.Mc.Violation cex ->
              Alcotest.failf "good flagged under %s (por=%b): %s"
                (V.Adversary.name adversary)
                por cex.V.Mc.automaton)
        [ true; false ])
    configs

let test_mc_catches_every_planted_bug () =
  List.iter
    (fun variant ->
      match (run_intended variant).V.Mc.outcome with
      | V.Mc.Verified ->
          Alcotest.failf "planted bug in %s not caught" (V.Model.variant_name variant)
      | V.Mc.Violation cex ->
          Alcotest.(check int)
            (V.Model.variant_name variant ^ " counterexample is minimal")
            (List.assoc variant minimal_cex_lengths)
            (List.length cex.V.Mc.steps))
    V.Model.broken_variants

let test_mc_expected_automata () =
  (* each planted bug is caught by the automaton it was planted for *)
  let expect variant automaton =
    match (run_intended variant).V.Mc.outcome with
    | V.Mc.Violation cex ->
        Alcotest.(check string)
          (V.Model.variant_name variant)
          automaton cex.V.Mc.automaton
    | V.Mc.Verified ->
        Alcotest.failf "%s not caught" (V.Model.variant_name variant)
  in
  expect V.Model.Resume_before_cap "cap-before-resume";
  expect V.Model.Clear_dev_early "dev-covers-slb";
  expect V.Model.Skip_zeroize "zeroize-before-exit";
  expect V.Model.Nv_rollback "nv-monotonic";
  expect V.Model.Launch_unsuspended "suspend-before-launch";
  expect V.Model.Out_of_order_extends "extend-order";
  expect V.Model.Reseal_without_counter_check "nv-monotonic";
  expect V.Model.Trust_state_across_reset "extend-order"

let test_mc_new_bugs_need_their_adversary () =
  (* the two adversary-dependent bugs are invisible under every other
     adversary model: catching them requires the capability they were
     planted against, not a lucky interleaving *)
  let clean_under variant kind =
    let adversary = V.Adversary.of_kinds [ kind ] in
    let r = V.Mc.run ~adversary ~sessions:2 variant in
    match r.V.Mc.outcome with
    | V.Mc.Verified -> ()
    | V.Mc.Violation cex ->
        Alcotest.failf "%s flagged under %s (%s): bug should need %s"
          (V.Model.variant_name variant)
          (V.Adversary.kind_name kind)
          cex.V.Mc.automaton
          (match V.Model.requires variant with
          | Some k -> V.Adversary.kind_name k
          | None -> "nothing")
  in
  List.iter
    (fun variant ->
      let required =
        match V.Model.requires variant with
        | Some k -> k
        | None -> Alcotest.failf "%s should require an adversary"
                    (V.Model.variant_name variant)
      in
      List.iter
        (fun k -> if k <> required then clean_under variant k)
        V.Adversary.all_kinds)
    [ V.Model.Reseal_without_counter_check; V.Model.Trust_state_across_reset ]

(* a search cut off by a budget has not verified the good session: the
   CI gate must count it as a failure *)
let check_truncated_fails what r =
  Alcotest.(check bool) (what ^ " truncated") true r.V.Mc.stats.V.Mc.truncated;
  Alcotest.(check bool) (what ^ " counts as a failure") true
    (V.Vreport.mc_missed_violation r ~expected_violation:false)

let test_mc_budget_truncation () =
  check_truncated_fails "max_states 5" (V.Mc.run ~max_states:5 V.Model.Good)

let test_mc_depth_truncation_is_honest () =
  (* good × 1 session × 2 probes explores to depth 17 exactly; a depth
     cap at the true frontier cuts nothing off and must not be reported
     as truncation, while one step less must *)
  let full = V.Mc.run ~sessions:1 ~por:false V.Model.Good in
  let d = full.V.Mc.stats.V.Mc.depth in
  Alcotest.(check bool) "full run not truncated" false
    full.V.Mc.stats.V.Mc.truncated;
  let exact = V.Mc.run ~sessions:1 ~por:false ~max_depth:d V.Model.Good in
  Alcotest.(check bool) "cap at the frontier is not truncation" false
    exact.V.Mc.stats.V.Mc.truncated;
  let cut = V.Mc.run ~sessions:1 ~por:false ~max_depth:(d - 1) V.Model.Good in
  Alcotest.(check bool) "cap below the frontier is" true
    cut.V.Mc.stats.V.Mc.truncated;
  check_truncated_fails "max_depth 3" (V.Mc.run ~max_depth:3 V.Model.Good)

let test_mc_queue_stays_deduped () =
  (* enqueue-time dedup: with a large probe budget the frontier must
     stay bounded by the distinct-state count instead of filling with
     duplicate nodes reached along commuting probe interleavings *)
  let adversary = { V.Adversary.default with V.Adversary.dma_probes = 6 } in
  let r = V.Mc.run ~adversary ~por:false V.Model.Good in
  let s = r.V.Mc.stats in
  Alcotest.(check bool) "verified" true (r.V.Mc.outcome = V.Mc.Verified);
  Alcotest.(check bool) "peak queue bounded by states" true
    (s.V.Mc.peak_queue <= s.V.Mc.states);
  Alcotest.(check bool) "not truncated" false s.V.Mc.truncated

let all_adversaries = V.Adversary.of_kinds V.Adversary.all_kinds

let test_mc_por_reduces_work () =
  (* the good session over two sessions, reduced against full: with the
     default and the four-probe DMA adversary (bench verify's
     good-por-ratio row) the reduction halves the transitions at least;
     under each adversary model alone and all four together (its
     por-compare rows) it never adds any *)
  let compare adversary =
    let run por = V.Mc.run ~adversary ~sessions:2 ~por V.Model.Good in
    let reduced = run true and full = run false in
    Alcotest.(check bool) "both verify" true
      (reduced.V.Mc.outcome = V.Mc.Verified && full.V.Mc.outcome = V.Mc.Verified);
    (reduced.V.Mc.stats, full.V.Mc.stats)
  in
  List.iter
    (fun (what, adversary) ->
      let r, f = compare adversary in
      let ratio = float_of_int f.V.Mc.transitions /. float_of_int r.V.Mc.transitions in
      Alcotest.(check bool) (what ^ ": ample states recorded") true (r.V.Mc.ample > 0);
      Alcotest.(check bool) (what ^ ": at least 2x fewer transitions") true
        (ratio >= 2.0))
    [
      ("dma(2)", V.Adversary.default);
      ("dma(4)", { V.Adversary.default with V.Adversary.dma_probes = 4 });
    ];
  List.iter
    (fun adversary ->
      let r, f = compare adversary in
      Alcotest.(check bool)
        (V.Adversary.name adversary ^ ": no more transitions than full")
        true
        (r.V.Mc.transitions <= f.V.Mc.transitions))
    (all_adversaries
    :: List.map (fun k -> V.Adversary.of_kinds [ k ]) V.Adversary.all_kinds)

(* The perf sweep's eleven runs: every variant under its intended
   adversary with the reduction, then the good session against all four
   adversary models with and without it. Their search sizes, as
   BENCH_verify.json records them (its full-product row has no peak
   queue; 192 is perf's verify.peak_queue), pin the deduplication
   exactly: merging one state too many or too few moves at least one
   of them. *)
let sweep_sizes =
  (* label, states, transitions, ample states, peak queue, depth *)
  [
    ("good", 3061, 5869, 1077, 170, 36);
    ("resume-before-cap", 30, 36, 19, 4, 12);
    ("clear-dev-early", 6, 10, 3, 3, 4);
    ("skip-zeroize", 27, 31, 18, 3, 11);
    ("nv-rollback", 15, 19, 10, 3, 7);
    ("launch-unsuspended", 2, 2, 1, 1, 1);
    ("out-of-order-extends", 18, 22, 12, 3, 8);
    ("reseal-without-counter-check", 85, 90, 5, 6, 23);
    ("trust-state-across-reset", 6, 8, 0, 3, 4);
    ("good-all por", 3061, 5869, 1077, 170, 36);
    ("good-all full", 3402, 10026, 0, 192, 36);
  ]

let test_mc_sweep_sizes () =
  let runs =
    List.map
      (fun v -> (V.Model.variant_name v, run_intended v))
      V.Model.all_variants
    @ List.map
        (fun por ->
          ( (if por then "good-all por" else "good-all full"),
            V.Mc.run ~adversary:all_adversaries ~sessions:2 ~por V.Model.Good ))
        [ true; false ]
  in
  let size (label, r) =
    let s = r.V.Mc.stats in
    (label, s.V.Mc.states, s.V.Mc.transitions, s.V.Mc.ample, s.V.Mc.peak_queue, s.V.Mc.depth)
  in
  Alcotest.(check (list (of_pp (fun ppf (l, a, b, c, d, e) ->
      Format.fprintf ppf "%s: %d states, %d transitions, %d ample, peak %d, depth %d"
        l a b c d e))))
    "search sizes" sweep_sizes (List.map size runs);
  (* the full product's size is an exhaustive search's, not a budget's *)
  Alcotest.(check bool) "good-all full not truncated" false
    (List.assoc "good-all full" runs).V.Mc.stats.V.Mc.truncated

let test_mc_allocation () =
  (* after a warm-up, the largest reduced run allocates at most 1,000
     minor-heap words per expanded state *)
  let run () = V.Mc.run ~adversary:all_adversaries ~sessions:2 V.Model.Good in
  ignore (run ());
  let before = Gc.minor_words () in
  let r = run () in
  let per_state =
    (Gc.minor_words () -. before) /. float_of_int r.V.Mc.stats.V.Mc.states
  in
  if per_state > 1000.0 then
    Alcotest.failf "%.0f minor words per expanded state (at most 1,000)" per_state

let test_instance_equality () =
  let feed inst ev =
    match V.Automata.feed inst ev with
    | Ok i -> i
    | Error m -> Alcotest.failf "rejected %s: %s" (E.to_string ev) m
  in
  List.iter
    (fun a ->
      let i = V.Automata.start a in
      (* every automaton ignores a session label *)
      let i' = feed i (E.Session_begin "t") in
      Alcotest.(check bool) (V.Automata.name a ^ " ignored event: equal") true
        (V.Automata.equal i i');
      Alcotest.(check int) (V.Automata.name a ^ " ignored event: same hash")
        (V.Automata.hash i) (V.Automata.hash i'))
    V.Automata.all;
  (* equality is by value: two launches built apart compare equal, and
     a step that changes the state does not *)
  let z = V.Automata.zeroize_before_exit in
  let launched () = feed (V.Automata.start z) skinit in
  Alcotest.(check bool) "equal launches" true
    (V.Automata.equal (launched ()) (launched ()));
  Alcotest.(check bool) "launch differs from rest" false
    (V.Automata.equal (V.Automata.start z) (launched ()));
  (* five automata's start states are the same runtime value (the
     immediate 0), yet no two automata's instances are equal *)
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i <> j then
            Alcotest.(check bool)
              (V.Automata.name a ^ " vs " ^ V.Automata.name b)
              false
              (V.Automata.equal (V.Automata.start a) (V.Automata.start b)))
        V.Automata.all)
    V.Automata.all

let test_mc_replay_golden_trace () =
  (* the replay counterexample, verbatim: record the blob at rest before
     session 1, let it reseal, re-inject the stale blob before session
     2's PAL runs, and watch the unchecked reseal persist a counter that
     did not advance *)
  let expected_labels =
    [
      "session"; "adv-replay-record"; "suspend"; "skinit"; "stub-extend";
      "pal-nv-read"; "pal-counter-incr"; "pal-nv-reseal"; "zeroize";
      "extend-inputs"; "extend-outputs"; "extend-nonce"; "extend-cap";
      "teardown-dev"; "resume"; "session-end";
      "session"; "adv-replay-inject"; "suspend"; "skinit"; "stub-extend";
      "pal-nv-read"; "pal-counter-incr"; "pal-nv-reseal";
    ]
  in
  match (run_intended V.Model.Reseal_without_counter_check).V.Mc.outcome with
  | V.Mc.Verified -> Alcotest.fail "reseal bug not caught"
  | V.Mc.Violation cex ->
      Alcotest.(check (list string))
        "step labels" expected_labels
        (List.map (fun s -> s.V.Mc.action) cex.V.Mc.steps);
      Alcotest.(check string) "violating event"
        "nv.write(0x1200,counter=8)"
        (E.to_string cex.V.Mc.event);
      Alcotest.(check string) "automaton" "nv-monotonic" cex.V.Mc.automaton

(* --- event encoding --- *)

let test_event_encoding () =
  (* the trace names and args of the events no CLI trace golden shows *)
  let count k n = (k, Tracer.Count n) in
  let flag k b = (k, Tracer.Flag b) in
  List.iter
    (fun (ev, name, args) ->
      Alcotest.(check string) (E.to_string ev ^ " name") name (E.name ev);
      Alcotest.(check bool) (E.to_string ev ^ " args") true (E.args ev = args))
    [
      (E.Nv_read { index = 0x1500 }, "nv.read", [ count "index" 0x1500 ]);
      (E.Nv_write { index = 9; counter = None }, "nv.write", [ count "index" 9 ]);
      ( E.Nv_write { index = 9; counter = Some 7 },
        "nv.write",
        [ count "index" 9; count "counter" 7 ] );
      ( E.Counter_increment { handle = 2; value = 3 },
        "counter.increment",
        [ count "handle" 2; count "value" 3 ] );
      ( E.Dma_attempt { addr = 5; len = 6; write = true; denied = false },
        "dma.attempt",
        [ count "addr" 5; count "len" 6; flag "write" true; flag "denied" false ] );
      (E.Dev_clear, "dev.clear", []);
      (E.Pcr_reboot, "pcr.reboot", []);
    ];
  (* the trace-only annotations: the device leads a DMA record's args *)
  let m = (make_platform ~seed:"verify-encoding").Platform.machine in
  Machine.protocol_event m ~device:"nic"
    (E.Dma_attempt { addr = 5; len = 6; write = false; denied = true });
  match List.rev (Tracer.events m.Machine.tracer) with
  | last :: _ ->
      Alcotest.(check string) "recorded name" "dma.attempt" last.Tracer.name;
      Alcotest.(check string) "category" "protocol" last.Tracer.cat;
      Alcotest.(check bool) "device first" true
        (last.Tracer.args
        = [ ("device", Tracer.Str "nic"); count "addr" 5; count "len" 6;
            flag "write" false; flag "denied" true ])
  | [] -> Alcotest.fail "nothing recorded"

(* --- the trace ring's round trip --- *)

(* the reference record, built eagerly from the event: its name and
   args, the device first and the value's 4-byte prefix last in hex *)
let eager_record ?device ?value ev =
  let args = E.args ev in
  let args =
    match value with
    | Some v ->
        args @ [ ("value", Tracer.Str (Flicker_crypto.Util.to_hex (String.sub v 0 4))) ]
    | None -> args
  in
  let args = match device with Some d -> ("device", Tracer.Str d) :: args | None -> args in
  (E.name ev, args)

(* every constructor, every bool, kind and option, and the int fields'
   widest values: a first field of any width, a second one of 53 bits *)
let every_event =
  let widest = (1 lsl 52) - 1 in
  [
    E.Session_begin "pal-x"; E.Session_begin ""; E.Session_end; E.Os_suspend; E.Os_resume;
    E.Skinit_begin E.Svm; E.Skinit_begin E.Txt; E.Skinit_end;
    E.Dev_protect { addr = 0x200000; len = 0x10000 };
    E.Dev_unprotect { addr = max_int; len = widest };
    E.Dev_clear; E.Pcr_reset; E.Pcr_reboot; E.Nv_read { index = 0x1500 };
    E.Nv_write { index = 9; counter = None }; E.Nv_write { index = 9; counter = Some 7 };
    E.Nv_write { index = min_int; counter = Some (-widest - 1) };
    E.Counter_increment { handle = 2; value = 3 };
    E.Counter_increment { handle = -1; value = -widest };
    E.Zeroize { addr = 0; len = 0 }; E.Replay_record { counter = 8 };
    E.Replay_inject { counter = -8 }; E.Os_inject { what = "swap-msg" };
  ]
  @ List.map
      (fun kind -> E.Pcr_extend { index = 17; kind })
      [ E.Measure; E.Stub; E.Input; E.Output; E.Nonce; E.Cap; E.Software ]
  @ List.concat_map
      (fun write ->
        List.map
          (fun denied -> E.Dma_attempt { addr = 0x201000; len = 64; write; denied })
          [ true; false ])
      [ true; false ]

(* each event bare, and each DMA attempt with a device and each extend
   with a value whose prefix sets the top bit *)
let annotated_cases =
  let value = "\xfe\x01\xab\x10" ^ String.make 16 '\x00' in
  List.concat_map
    (fun ev ->
      (None, None, ev)
      ::
      (match ev with
      | E.Dma_attempt _ -> [ (Some "nic", None, ev); (Some "", None, ev) ]
      | E.Pcr_extend _ -> [ (None, Some value, ev); (None, Some (String.make 20 '\xff'), ev) ]
      | _ -> []))
    every_event

let test_ring_round_trip () =
  let m = Machine.create ~memory_size:(1024 * 1024) ~trace_capacity:3 Flicker_hw.Timing.default in
  let tracer = m.Machine.tracer in
  let show (name, args) = show_records [ (name, args) ] in
  let run_all label =
    List.iteri
      (fun i (device, value, ev) ->
        Machine.protocol_event m ?device ?value ev;
        let expected = eager_record ?device ?value ev in
        match List.rev (Tracer.events tracer) with
        | last :: _ ->
            Alcotest.(check string)
              (Printf.sprintf "%s #%d %s" label i (E.to_string ev))
              (show expected)
              (show (last.Tracer.name, last.Tracer.args));
            Alcotest.(check bool) "same record" true
              ((last.Tracer.name, last.Tracer.args) = expected);
            Alcotest.(check string) "category" "protocol" last.Tracer.cat;
            Alcotest.(check bool) "instant" true (last.Tracer.kind = Tracer.Instant)
        | [] -> Alcotest.fail "nothing recorded")
      annotated_cases;
    (* the ring wrapped: it holds the last three, oldest first *)
    let n = List.length annotated_cases in
    Alcotest.(check int) (label ^ " retained") 3 (Tracer.length tracer);
    Alcotest.(check int) (label ^ " dropped") (n - 3) (Tracer.dropped tracer);
    let last3 =
      List.filteri (fun i _ -> i >= n - 3) annotated_cases
      |> List.map (fun (device, value, ev) -> show (eager_record ?device ?value ev))
    in
    Alcotest.(check (list string))
      (label ^ " eviction order") last3
      (List.map (fun e -> show (e.Tracer.name, e.Tracer.args)) (Tracer.events tracer))
  in
  run_all "fresh";
  Tracer.clear tracer;
  Alcotest.(check int) "cleared" 0 (Tracer.length tracer);
  run_all "after clear";
  (* annotations only where the record has room for them, and int
     fields only as wide as the code word holds; a rejected event leaves
     the ring as it was *)
  let before = Tracer.events tracer and dropped = Tracer.dropped tracer in
  List.iter
    (fun (what, record) ->
      match record () with
      | () -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument _ -> ())
    [
      ( "device on session.begin",
        fun () -> Machine.protocol_event m ~device:"nic" (E.Session_begin "p") );
      ("value on dma.attempt", fun () ->
          Machine.protocol_event m ~value:(String.make 20 'v')
            (E.Dma_attempt { addr = 0; len = 1; write = true; denied = true }));
      ("device on pcr.extend", fun () ->
          Machine.protocol_event m ~device:"nic" (E.Pcr_extend { index = 17; kind = E.Cap }));
      ("short value", fun () ->
          Machine.protocol_event m ~value:"abc" (E.Pcr_extend { index = 17; kind = E.Cap }));
      ("54-bit length", fun () ->
          Machine.protocol_event m (E.Zeroize { addr = 0; len = 1 lsl 53 }));
      (* shifted into the code word, this one would wrap to 0 *)
      ("55-bit length", fun () ->
          Machine.protocol_event m (E.Zeroize { addr = 0; len = 1 lsl 54 }));
    ];
  Alcotest.(check bool) "rejections record nothing" true
    (Tracer.events tracer = before && Tracer.dropped tracer = dropped)

(* --- property: no false positives on arbitrary clean workloads --- *)

(* every launch a session can make: technology, flavor, nonce or not *)
let launches =
  List.concat_map
    (fun tech ->
      List.concat_map
        (fun flavor -> List.map (fun nonce -> (tech, flavor, nonce)) [ true; false ])
        [ Builder.Optimized; Builder.Standard ])
    [ E.Svm; E.Txt ]

let show_launch (tech, flavor, nonce) =
  Printf.sprintf "%s/%s/%s"
    (match tech with E.Svm -> "svm" | E.Txt -> "txt")
    (match flavor with Builder.Optimized -> "optimized" | Builder.Standard -> "standard")
    (if nonce then "nonce" else "no-nonce")

let prop_sessions_conform =
  (* each case runs all eight launches, in a drawn order, on one
     platform: every session conforms and emits exactly the model's good
     session for its launch *)
  QCheck.Test.make ~name:"conformance accepts every clean session" ~count:25
    QCheck.(
      triple
        (string_of_size Gen.(int_range 0 64))
        small_int
        (make ~print:(fun l -> String.concat " " (List.map show_launch l))
           Gen.(shuffle_l launches)))
    (fun (inputs, salt, order) ->
      let p, checker = checked_platform ~seed:(Printf.sprintf "verify-prop-%d" salt) in
      let name = Printf.sprintf "vp-%d" salt in
      let pal =
        Pal.define ~name (fun env ->
            Pal_env.set_output env (String.uppercase_ascii env.Pal_env.inputs))
      in
      List.for_all
        (fun ((tech, flavor, with_nonce) as launch) ->
          let nonce = if with_nonce then Some (Platform.fresh_nonce p) else None in
          Tracer.clear p.Platform.machine.Machine.tracer;
          let session_tech = match tech with E.Svm -> Session.Svm | E.Txt -> txt in
          match Session.execute p ~pal ~tech:session_tech ~flavor ~inputs ?nonce () with
          | Error e -> QCheck.Test.fail_reportf "session: %a" Session.pp_error e
          | Ok _ ->
              let expected = model_session p ~name ~tech ~flavor ~nonce:with_nonce [] in
              let actual = recorded_events p in
              expected = actual
              || QCheck.Test.fail_reportf "%s:\nmodel: %s\nreal:  %s" (show_launch launch)
                   (show_records expected) (show_records actual))
        order
      && (V.Checker.report checker).V.Checker.violations = [])

(* --- property: the partial-order reduction is sound --- *)

let prop_por_agrees_with_full_bfs =
  (* over random variant × adversary subset × budgets × sessions, the
     reduced and full searches must agree on the verdict, the violated
     automaton, and the minimal counterexample length *)
  QCheck.Test.make ~name:"POR agrees with full BFS" ~count:60
    QCheck.(
      quad (int_range 0 8) (int_range 0 15) (int_range 1 2)
        (triple (int_range 0 3) (int_range 0 2) (int_range 0 2)))
    (fun (vi, kmask, sessions, (probes, resets, os_injs)) ->
      let variant = List.nth V.Model.all_variants vi in
      let kinds =
        List.filteri (fun i _ -> kmask land (1 lsl i) <> 0) V.Adversary.all_kinds
      in
      let adversary =
        {
          V.Adversary.kinds;
          dma_probes = probes;
          resets;
          replay_records = 1 + (probes mod 2);
          replay_injects = 1 + (resets mod 2);
          os_injections = os_injs;
        }
      in
      let run por = V.Mc.run ~adversary ~sessions ~por variant in
      let a = run true and b = run false in
      if a.V.Mc.stats.V.Mc.truncated || b.V.Mc.stats.V.Mc.truncated then
        QCheck.Test.fail_report "search truncated; raise the budgets"
      else
        match (a.V.Mc.outcome, b.V.Mc.outcome) with
        | V.Mc.Verified, V.Mc.Verified -> true
        | V.Mc.Violation x, V.Mc.Violation y ->
            if x.V.Mc.automaton <> y.V.Mc.automaton then
              QCheck.Test.fail_reportf "automata differ: %s vs %s"
                x.V.Mc.automaton y.V.Mc.automaton
            else if
              List.length x.V.Mc.steps <> List.length y.V.Mc.steps
            then
              QCheck.Test.fail_reportf "cex lengths differ: %d vs %d"
                (List.length x.V.Mc.steps)
                (List.length y.V.Mc.steps)
            else true
        | V.Mc.Verified, V.Mc.Violation y ->
            QCheck.Test.fail_reportf "POR missed a violation of %s"
              y.V.Mc.automaton
        | V.Mc.Violation x, V.Mc.Verified ->
            QCheck.Test.fail_reportf "POR invented a violation of %s"
              x.V.Mc.automaton)

let () =
  Alcotest.run "verify"
    [
      ( "automata",
        [
          Alcotest.test_case "good sequence accepted by all" `Quick
            test_good_sequence_accepted;
          Alcotest.test_case "cap-before-resume" `Quick test_cap_before_resume;
          Alcotest.test_case "dev-covers-slb" `Quick test_dev_covers_slb;
          Alcotest.test_case "zeroize-before-exit" `Quick test_zeroize_before_exit;
          Alcotest.test_case "extend-order" `Quick test_extend_order;
          Alcotest.test_case "nv-monotonic" `Quick test_nv_monotonic;
          Alcotest.test_case "fresh-nv-on-launch" `Quick test_fresh_nv_on_launch;
          Alcotest.test_case "no-unchecked-dma" `Quick test_no_unchecked_dma;
          Alcotest.test_case "suspend-before-launch" `Quick
            test_suspend_before_launch;
          Alcotest.test_case "instance equality" `Quick test_instance_equality;
        ] );
      ( "checker",
        [
          Alcotest.test_case "broken trace caught" `Quick test_checker_broken_trace;
          Alcotest.test_case "restarts after violation" `Quick
            test_checker_restarts_after_violation;
          Alcotest.test_case "event encoding" `Quick test_event_encoding;
          Alcotest.test_case "ring round trip" `Quick test_ring_round_trip;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "real sessions conform" `Quick test_real_sessions_conform;
          Alcotest.test_case "session gate accepts clean runs" `Quick
            test_session_gate_accepts;
          Alcotest.test_case "session gate raises on dev clear" `Quick
            test_session_gate_raises;
          Alcotest.test_case "replay guard conforms" `Quick test_replay_guard_conforms;
          Alcotest.test_case "power cycle during a PAL" `Quick
            test_power_cycle_during_pal;
          Alcotest.test_case "dma during PAL: denied + traced + conformant" `Quick
            test_dma_during_pal_denied_and_traced;
        ] );
      ( "model checker",
        [
          Alcotest.test_case "good session verifies" `Quick test_mc_good_verifies;
          Alcotest.test_case "good verifies under every adversary" `Quick
            test_mc_good_under_every_adversary;
          Alcotest.test_case "every planted bug caught" `Quick
            test_mc_catches_every_planted_bug;
          Alcotest.test_case "caught by the intended automaton" `Quick
            test_mc_expected_automata;
          Alcotest.test_case "new bugs need their adversary" `Quick
            test_mc_new_bugs_need_their_adversary;
          Alcotest.test_case "state budget truncates" `Quick test_mc_budget_truncation;
          Alcotest.test_case "depth truncation is honest" `Quick
            test_mc_depth_truncation_is_honest;
          Alcotest.test_case "queue stays deduped" `Quick test_mc_queue_stays_deduped;
          Alcotest.test_case "POR reduces work" `Quick test_mc_por_reduces_work;
          Alcotest.test_case "replay golden trace" `Quick test_mc_replay_golden_trace;
          Alcotest.test_case "sweep search sizes" `Quick test_mc_sweep_sizes;
          Alcotest.test_case "allocation per state" `Quick test_mc_allocation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sessions_conform; prop_por_agrees_with_full_bfs ] );
    ]
