type variant =
  | Good
  | Resume_before_cap
  | Clear_dev_early
  | Skip_zeroize
  | Nv_rollback
  | Launch_unsuspended
  | Out_of_order_extends
  | Reseal_without_counter_check
  | Trust_state_across_reset

let variant_name = function
  | Good -> "good"
  | Resume_before_cap -> "resume-before-cap"
  | Clear_dev_early -> "clear-dev-early"
  | Skip_zeroize -> "skip-zeroize"
  | Nv_rollback -> "nv-rollback"
  | Launch_unsuspended -> "launch-unsuspended"
  | Out_of_order_extends -> "out-of-order-extends"
  | Reseal_without_counter_check -> "reseal-without-counter-check"
  | Trust_state_across_reset -> "trust-state-across-reset"

let all_variants =
  [
    Good;
    Resume_before_cap;
    Clear_dev_early;
    Skip_zeroize;
    Nv_rollback;
    Launch_unsuspended;
    Out_of_order_extends;
    Reseal_without_counter_check;
    Trust_state_across_reset;
  ]

let broken_variants = List.filter (fun v -> v <> Good) all_variants

(* Which adversary model a planted bug needs before it manifests. [None]
   means the bug is in the session's own ordering and any adversary (or
   none) exposes it. *)
let requires = function
  | Reseal_without_counter_check -> Some Adversary.Replay
  | Trust_state_across_reset -> Some Adversary.Reset
  | _ -> None

let default_sessions = function
  | Good | Reseal_without_counter_check -> 2
  | _ -> 1

let intended_adversary = function
  | Good -> (Adversary.of_kinds Adversary.all_kinds, 2)
  | Reseal_without_counter_check -> (Adversary.of_kinds [ Adversary.Replay ], 2)
  | Trust_state_across_reset -> (Adversary.of_kinds [ Adversary.Reset ], 1)
  | _ -> (Adversary.default, 1)

(* The abstract machine: exactly what the automata observe, plus the
   sealed-blob/recording state the replay adversary manipulates. *)
type machine = {
  dev : (int * int) option;
  suspended : bool;
  counter : int;  (* monotonic counter's current value; persists NV-side *)
  nv : int;  (* 4-byte counter stored at the NV index; persists *)
  blob : int;  (* counter bound into the sealed blob at rest; persists *)
  recorded : int option;  (* the replay adversary's copy, if taken *)
}

let machine0 =
  { dev = None; suspended = false; counter = 7; nv = 7; blob = 7; recorded = None }

(* Fixed geometry of the modeled session: a 64 KB window with the 4 KB
   input page right after it, as [Layout] places them (the address is
   arbitrary; the automata only care about containment and overlap). *)
let slb_addr = 0x30000
let slb_len = 0x10000
let page_len = 4096  (* the input page, and a DMA probe's reach *)
let nv_index = 0x1200
let counter_handle = 1

(* --- footprints -------------------------------------------------------- *)

(* State variables, as a bitmask, for the independence relation. *)
let v_pc = 1
let v_dev = 2
let v_susp = 4
let v_counter = 8
let v_nv = 16
let v_blob = 32
let v_recorded = 64
let v_b_probe = 128
let v_b_reset = 256
let v_b_record = 512
let v_b_inject = 1024
let v_b_os = 2048

type footprint = { reads : int; writes : int; visible : bool }

let fp_empty = { reads = 0; writes = 0; visible = false }

let fp_union a b =
  {
    reads = a.reads lor b.reads;
    writes = a.writes lor b.writes;
    visible = a.visible || b.visible;
  }

let fp_visible fp = fp.visible

(* Two transitions commute iff their variable footprints are disjoint in
   the write-write and write-read directions. Event visibility is judged
   separately by the selector: only universally-invisible events (ones
   every automaton ignores in every state) may be reordered past the
   session, because monitor states must agree in both orders. *)
let independent a b =
  a.writes land b.writes = 0
  && a.writes land b.reads = 0
  && a.reads land b.writes = 0

let session_kind_on_17 (kind : Event.pcr_kind) =
  match kind with
  | Event.Software -> false
  | Event.Measure | Event.Stub | Event.Input | Event.Output | Event.Nonce
  | Event.Cap ->
      true

(* Per-event footprint: which machine variables the event's application
   touches, and whether any automaton could observe it (change state or
   reject). The [visible = false] classifications are load-bearing for
   the reduction and are exercised by the POR-vs-full QCheck property:
   denied DMA, software extends and extends of PCRs other than 17,
   replay bookkeeping and corrupt-OS message tampering are ignored by
   every automaton in every state. *)
let event_fp (ev : Event.t) =
  match ev with
  | Event.Dev_protect _ | Event.Dev_unprotect _ | Event.Dev_clear ->
      { reads = 0; writes = v_dev; visible = true }
  | Event.Os_suspend | Event.Os_resume ->
      { reads = 0; writes = v_susp; visible = true }
  | Event.Skinit_begin _ | Event.Skinit_end | Event.Pcr_reset ->
      { fp_empty with visible = true }
  | Event.Pcr_reboot ->
      (* volatile state is lost on a power cycle *)
      { reads = 0; writes = v_dev lor v_susp; visible = true }
  | Event.Pcr_extend { index; kind } ->
      { fp_empty with visible = index = 17 && session_kind_on_17 kind }
  | Event.Nv_read _ -> { reads = v_nv; writes = 0; visible = true }
  | Event.Nv_write _ ->
      { reads = 0; writes = v_nv lor v_blob; visible = true }
  | Event.Counter_increment _ ->
      { reads = 0; writes = v_counter; visible = true }
  | Event.Zeroize _ -> { fp_empty with visible = true }
  | Event.Session_begin _ | Event.Session_end -> fp_empty
  | Event.Dma_attempt { denied; _ } ->
      { reads = v_dev; writes = 0; visible = not denied }
  | Event.Replay_record _ ->
      { reads = v_blob; writes = v_recorded; visible = false }
  | Event.Replay_inject _ ->
      { reads = v_recorded; writes = v_blob; visible = false }
  | Event.Os_inject _ -> fp_empty

let events_fp evs = List.fold_left (fun fp e -> fp_union fp (event_fp e)) fp_empty evs

(* Effect footprint: budget spent plus the enabling-condition variables
   (a transition that writes a gate variable can disable the action, so
   the gate reads participate in the independence check). *)
let effect_fp (e : Adversary.effect) =
  match e with
  | Adversary.Spend_probe ->
      { reads = v_b_probe lor v_dev; writes = v_b_probe; visible = false }
  | Adversary.Do_reset ->
      {
        reads = v_b_reset lor v_dev;
        writes = v_b_reset lor v_dev lor v_susp lor v_pc;
        visible = true;
      }
  | Adversary.Do_record ->
      {
        reads = v_b_record lor v_susp lor v_blob;
        writes = v_b_record lor v_recorded;
        visible = false;
      }
  | Adversary.Do_inject ->
      {
        reads = v_b_inject lor v_susp lor v_recorded;
        writes = v_b_inject lor v_blob;
        visible = false;
      }
  | Adversary.Spend_os ->
      { reads = v_b_os lor v_susp; writes = v_b_os; visible = false }

(* --- the session program ----------------------------------------------- *)

type block = {
  b_label : string;
  b_emit : machine -> Event.t list;
  b_reads : int;  (* machine vars the emission function consults *)
}

let b ?(reads = 0) b_label b_emit = { b_label; b_emit; b_reads = reads }
let fixed label events = b label (fun _ -> events)
let ext kind = Event.Pcr_extend { index = 17; kind }
let fresh m = m.blob = m.nv

(* The one good session, in [Session.execute]'s order: a launch with
   [tech] over the [window], the Optimized flavor's stub extend when
   [stub], the [pal]'s blocks, a cleanup that wipes the window and the
   [input_page], the I/O extends (the nonce's when [nonce]), the cap, DEV
   teardown and resume. The launch block bundles protect + reset +
   measure + end, a single instruction on real hardware; under TXT the
   SINIT ACM is measured into PCR 17 before the SLB. *)
let good_session ~name ~tech ~stub ~nonce ~window:(addr, len) ~input_page:(i_addr, i_len)
    pal =
  let acm = if tech = Event.Txt then [ ext Event.Measure ] else [] in
  let opt flag blk = if flag then [ blk ] else [] in
  [
    fixed "session" [ Event.Session_begin name ];
    fixed "suspend" [ Event.Os_suspend ];
    fixed "skinit"
      ([ Event.Skinit_begin tech; Event.Dev_protect { addr; len }; Event.Pcr_reset ]
      @ acm @ [ ext Event.Measure; Event.Skinit_end ]);
  ]
  @ opt stub (fixed "stub-extend" [ ext Event.Stub ])
  @ pal
  @ [
      fixed "zeroize"
        [ Event.Zeroize { addr; len }; Event.Zeroize { addr = i_addr; len = i_len } ];
      fixed "extend-inputs" [ ext Event.Input ];
      fixed "extend-outputs" [ ext Event.Output ];
    ]
  @ opt nonce (fixed "extend-nonce" [ ext Event.Nonce ])
  @ [
      fixed "extend-cap" [ ext Event.Cap ];
      fixed "teardown-dev" [ Event.Dev_unprotect { addr; len } ];
      fixed "resume" [ Event.Os_resume ];
      fixed "session-end" [ Event.Session_end ];
    ]

let nv_read = fixed "pal-nv-read" [ Event.Nv_read { index = nv_index } ]
let incr_counter m =
  [ Event.Counter_increment { handle = counter_handle; value = m.counter + 1 } ]
let nv_write c = [ Event.Nv_write { index = nv_index; counter = Some c } ]

(* A disciplined PAL gates its NV work on the sealed blob matching the
   NV counter (the §4.4 freshness check) and silently aborts the NV
   update when a stale blob was presented. *)
let nv_pal =
  [
    nv_read;
    b "pal-counter-incr" ~reads:(v_counter lor v_nv lor v_blob) (fun m ->
        if fresh m then incr_counter m else []);
    b "pal-nv-write" ~reads:(v_nv lor v_blob) (fun m ->
        if fresh m then nv_write (m.nv + 1) else []);
  ]

(* the planted reseal bug: the PAL reads NV but never compares it
   against the unsealed blob's counter — it increments *the blob's*
   counter and persists that, so a replayed blob is resealed as if
   fresh *)
let unchecked_pal =
  [
    nv_read;
    b "pal-counter-incr" ~reads:v_counter incr_counter;
    b "pal-nv-reseal" ~reads:v_blob (fun m -> nv_write (m.blob + 1));
  ]

(* A planted bug is an edit of the good session, by block label;
   [Move_after (a, b)] moves block [a] to right after block [b]. *)
type edit =
  | Drop of string
  | Swap of string * string
  | Move_after of string * string
  | Insert_before of string * block

let edit blocks e =
  let find l = List.find (fun blk -> blk.b_label = l) blocks in
  let each f = List.concat_map (fun blk -> f blk.b_label blk) blocks in
  match e with
  | Drop x -> each (fun l blk -> if l = x then [] else [ blk ])
  | Swap (x, y) ->
      each (fun l blk -> [ (if l = x then find y else if l = y then find x else blk) ])
  | Move_after (x, y) ->
      each (fun l blk -> if l = x then [] else if l = y then [ blk; find x ] else [ blk ])
  | Insert_before (x, nb) -> each (fun l blk -> if l = x then [ nb; blk ] else [ blk ])

let edits = function
  | Good | Reseal_without_counter_check | Trust_state_across_reset ->
      (* Trust_state_across_reset's bug is where [transitions] sends a reset *)
      []
  | Resume_before_cap ->
      (* teardown + resume jump the queue; the cap lands late *)
      [ Move_after ("extend-cap", "resume") ]
  | Clear_dev_early ->
      [ Insert_before ("pal-nv-read", fixed "clear-dev" [ Event.Dev_clear ]);
        Drop "teardown-dev" ]
  | Skip_zeroize ->
      (* the whole cleanup is skipped: no wipe, no DEV teardown *)
      [ Drop "zeroize"; Drop "teardown-dev" ]
  | Nv_rollback ->
      (* "restore" the pre-session snapshot: one less than current *)
      let stale = b "restore-stale-nv" ~reads:v_nv (fun m -> nv_write (m.nv - 1)) in
      [ Insert_before ("zeroize", stale) ]
  | Launch_unsuspended -> [ Drop "suspend" ]
  | Out_of_order_extends -> [ Swap ("extend-inputs", "extend-outputs") ]

(* The modeled session: an SVM launch of the Optimized flavor with a
   nonce, running the NV-discipline PAL or the reseal bug's, then edited. *)
let session_program variant =
  let pal = if variant = Reseal_without_counter_check then unchecked_pal else nv_pal in
  List.fold_left edit
    (good_session ~name:"model" ~tech:Event.Svm ~stub:true ~nonce:true
       ~window:(slb_addr, slb_len) ~input_page:(slb_addr + slb_len, page_len) pal)
    (edits variant)

let session_events ~name ~tech ~stub ~nonce ~window ~input_page pal =
  List.concat_map
    (fun blk -> blk.b_emit machine0)
    (good_session ~name ~tech ~stub ~nonce ~window ~input_page [ fixed "pal" pal ])

(* The static half of a state, built once per checker run and shared by
   every state of it; not part of the dedup key. *)
type program = {
  variant : variant;
  blocks : block array;  (* [sessions] back-to-back runs, flattened *)
  next_start : int array;
      (* per pc, the index where the *next* session starts (= where a
         mid-protocol reset lands a disciplined platform) *)
}

let program variant sessions =
  let one = session_program variant in
  let len1 = List.length one in
  let blocks = Array.concat (List.init sessions (fun _ -> Array.of_list one)) in
  let next_start =
    Array.init (Array.length blocks) (fun i -> ((i / len1) + 1) * len1)
  in
  { variant; blocks; next_start }

(* The dynamic half — pc, budgets and machine — is the dedup key. *)
type state = {
  prog : program;
  pc : int;
  budgets : Adversary.budgets;
  m : machine;
}

(* --- semantics --------------------------------------------------------- *)

let apply m (ev : Event.t) =
  match ev with
  | Event.Dev_protect { addr; len } -> { m with dev = Some (addr, len) }
  | Event.Dev_unprotect _ | Event.Dev_clear -> { m with dev = None }
  | Event.Os_suspend -> { m with suspended = true }
  | Event.Os_resume -> { m with suspended = false }
  | Event.Counter_increment { value; _ } -> { m with counter = value }
  | Event.Nv_write { counter = Some c; _ } ->
      (* an NV counter write is a reseal: the blob at rest now binds c *)
      { m with nv = c; blob = c }
  | Event.Pcr_reboot -> { m with dev = None; suspended = false }
  | Event.Replay_record { counter } -> { m with recorded = Some counter }
  | Event.Replay_inject { counter } -> { m with blob = counter }
  | _ -> m

let apply_all m evs = List.fold_left apply m evs

let initial ?(adversary = Adversary.default) ?sessions variant =
  let sessions =
    match sessions with Some n -> max 1 n | None -> default_sessions variant
  in
  {
    prog = program variant sessions;
    pc = 0;
    budgets = Adversary.budgets_of adversary;
    m = machine0;
  }

let dev_denies m ~addr ~len =
  match m.dev with
  | None -> false
  | Some (da, dl) -> addr < da + dl && da < addr + len

let view st ~at_end =
  {
    Adversary.dev_up = st.m.dev <> None;
    suspended = st.m.suspended;
    at_end;
    blob = st.m.blob;
    recorded = st.m.recorded;
    slb_addr;
    probe_len = page_len;
    denies = dev_denies st.m ~addr:slb_addr ~len:page_len;
  }

type source = Session | Attack of Adversary.effect

type trans = {
  label : string;
  events : Event.t list;
  succ : state;
  source : source;
  fp : footprint;
}

let transitions st =
  let { variant; blocks; next_start } = st.prog in
  let len = Array.length blocks in
  let at_end = st.pc >= len in
  let session =
    if at_end then []
    else
      let blk = blocks.(st.pc) in
      let events = blk.b_emit st.m in
      [
        {
          label = blk.b_label;
          events;
          succ = { st with pc = st.pc + 1; m = apply_all st.m events };
          source = Session;
          fp =
            fp_union (events_fp events)
              { reads = blk.b_reads lor v_pc; writes = v_pc; visible = false };
        };
      ]
  in
  let adversary =
    List.map
      (fun (a : Adversary.action) ->
        let pc' =
          match a.Adversary.act_effect with
          | Adversary.Do_reset when variant <> Trust_state_across_reset ->
              (* a power cycle aborts the in-flight session; a disciplined
                 platform relaunches from scratch (the next session).
                 The planted bug keeps executing where it left off, as
                 if volatile trust state had survived. *)
              next_start.(st.pc)
          | _ -> st.pc
        in
        {
          label = a.Adversary.act_label;
          events = a.Adversary.act_events;
          succ =
            {
              st with
              pc = pc';
              budgets = Adversary.spend st.budgets a.Adversary.act_effect;
              m = apply_all st.m a.Adversary.act_events;
            };
          source = Attack a.Adversary.act_effect;
          fp =
            fp_union
              (events_fp a.Adversary.act_events)
              (effect_fp a.Adversary.act_effect);
        })
      (Adversary.actions st.budgets (view st ~at_end))
  in
  session @ adversary

let equal a b =
  a.pc = b.pc
  && (a.budgets == b.budgets || a.budgets = b.budgets)
  && (a.m == b.m || a.m = b.m)

(* The key's parts are small ints, so a base-31 polynomial over them is
   all but injective; [Hashtbl.hash] then mixes its bits. *)
let ( +* ) h x = (h * 31) + x

let hash st =
  let b = st.budgets and m = st.m in
  Hashtbl.hash
    (st.pc +* b.probes +* b.resets +* b.records +* b.injects +* b.os_injs
    +* (match m.dev with None -> 0 | Some (a, l) -> (a +* l) + 1)
    +* Bool.to_int m.suspended +* m.counter +* m.nv +* m.blob
    +* match m.recorded with None -> 0 | Some c -> c + 1)
