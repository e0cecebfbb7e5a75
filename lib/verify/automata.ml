(* ['s] is plain data (constructors, records, ints, sorted lists; no
   closures), so [=] can compare two states. *)
type 's spec = {
  spec_name : string;
  spec_property : string;
  spec_paper : string;
  id : 's Type.Id.t;  (* the automaton's identity, for [equal] *)
  init : 's;
  step : 's -> Event.t -> ('s, string) result;
}

type t = Auto : 's spec -> t
type instance = Inst : { spec : 's spec; state : 's } -> instance

let name (Auto s) = s.spec_name
let property (Auto s) = s.spec_property
let paper (Auto s) = s.spec_paper
let start (Auto s) = Inst { spec = s; state = s.init }

let feed (Inst i as inst) ev =
  match i.spec.step i.state ev with
  | Ok state -> Ok (if state == i.state then inst else Inst { i with state })
  | Error _ as e -> e

let equal (Inst a) (Inst b) =
  match Type.Id.provably_equal a.spec.id b.spec.id with
  | Some Type.Equal -> a.state == b.state || a.state = b.state
  | None -> false

let hash (Inst i) = Hashtbl.hash i.state

(* [a1, a1+l1) and [a2, a2+l2) share at least one byte *)
let overlaps a1 l1 a2 l2 = l1 > 0 && l2 > 0 && a1 < a2 + l2 && a2 < a1 + l1
let covers ~outer:(a1, l1) ~inner:(a2, l2) = a1 <= a2 && a2 + l2 <= a1 + l1

(* --- cap-before-resume ------------------------------------------------ *)

type cap_state = C_idle | C_armed | C_capped

let cap_before_resume =
  Auto
    {
      spec_name = "cap-before-resume";
      spec_property =
        "PCR 17 is extended with the session cap value before the OS resumes";
      spec_paper = "§4.3";
      init = C_idle;
      id = Type.Id.make ();
      step =
        (fun st ev ->
          match (st, ev) with
          | _, Event.Skinit_begin _ -> Ok C_armed
          | C_armed, Event.Pcr_extend { index = 17; kind = Event.Cap } ->
              Ok C_capped
          | C_armed, Event.Os_resume ->
              Error "OS resumed after a late launch before PCR 17 was capped"
          | C_capped, Event.Os_resume -> Ok C_idle
          | _, Event.Pcr_reboot -> Ok C_idle
          | st, _ -> Ok st);
    }

(* --- dev-covers-slb --------------------------------------------------- *)

type dev_state =
  | D_idle
  | D_pending  (* launch begun, DEV not yet set *)
  | D_covered of { addr : int; len : int; zeroized : bool }

let dev_covers_slb =
  Auto
    {
      spec_name = "dev-covers-slb";
      spec_property =
        "the DEV protects the SLB window from before the SKINIT measurement \
         until the window is zeroized";
      spec_paper = "§2.2, §5.1";
      init = D_idle;
      id = Type.Id.make ();
      step =
        (fun st ev ->
          match (st, ev) with
          | (D_idle | D_pending), Event.Skinit_begin _ -> Ok D_pending
          | D_pending, Event.Dev_protect { addr; len } ->
              Ok (D_covered { addr; len; zeroized = false })
          | D_pending, Event.Pcr_extend { index = 17; kind = Event.Measure } ->
              Error
                "SKINIT measured the SLB into PCR 17 with no DEV protection \
                 over the window"
          | (D_covered c as st), Event.Zeroize { addr; len } ->
              if covers ~outer:(addr, len) ~inner:(c.addr, c.len) then
                Ok (D_covered { c with zeroized = true })
              else Ok st
          | (D_covered c as st), Event.Dev_unprotect { addr; len } ->
              if overlaps addr len c.addr c.len then
                if c.zeroized then Ok D_idle
                else
                  Error
                    "DEV protection over the SLB dropped before the window \
                     was zeroized"
              else Ok st
          | D_covered c, Event.Dev_clear ->
              if c.zeroized then Ok D_idle
              else
                Error
                  "DEV cleared while an un-zeroized SLB window was protected"
          | _, Event.Pcr_reboot -> Ok D_idle
          | st, _ -> Ok st);
    }

(* --- zeroize-before-exit ---------------------------------------------- *)

type zero_state =
  | Z_idle
  | Z_armed of { window : (int * int) option; zeroized : bool }

let zeroize_before_exit =
  Auto
    {
      spec_name = "zeroize-before-exit";
      spec_property = "the SLB window is zeroized before the OS resumes";
      spec_paper = "§4.3";
      init = Z_idle;
      id = Type.Id.make ();
      step =
        (fun st ev ->
          match (st, ev) with
          | _, Event.Skinit_begin _ ->
              Ok (Z_armed { window = None; zeroized = false })
          | Z_armed ({ window = None; _ } as a), Event.Dev_protect { addr; len }
            ->
              Ok (Z_armed { a with window = Some (addr, len) })
          | (Z_armed a as st), Event.Zeroize { addr; len } -> (
              match a.window with
              | Some w when not (covers ~outer:(addr, len) ~inner:w) -> Ok st
              | _ -> Ok (Z_armed { a with zeroized = true }))
          | Z_armed { zeroized = true; _ }, Event.Os_resume -> Ok Z_idle
          | Z_armed { zeroized = false; _ }, Event.Os_resume ->
              Error "OS resumed before the SLB window was zeroized"
          | _, Event.Pcr_reboot -> Ok Z_idle
          | st, _ -> Ok st);
    }

(* --- extend-order ------------------------------------------------------ *)

(* Rank of the last session-labeled PCR 17 extend:
   -1 inactive, 0 after dynamic reset, 1 measured, 2 stub,
   3 inputs, 4 outputs, 5 nonce, 6 capped. *)
let rank_name = function
  | -1 -> "outside a launch"
  | 0 -> "after dynamic reset"
  | 1 -> "after the SKINIT measurement"
  | 2 -> "after the stub extend"
  | 3 -> "after the inputs extend"
  | 4 -> "after the outputs extend"
  | 5 -> "after the nonce extend"
  | 6 -> "after the cap"
  | _ -> "?"

let extend_order =
  Auto
    {
      spec_name = "extend-order";
      spec_property =
        "PCR 17 extends follow reset, measure+, stub?, inputs, outputs, \
         nonce?, cap";
      spec_paper = "§4.2–4.3, §5.2";
      init = -1;
      id = Type.Id.make ();
      step =
        (fun rank ev ->
          match ev with
          | Event.Pcr_reset -> Ok 0
          | Event.Pcr_reboot -> Ok (-1)
          | Event.Pcr_extend { index = 17; kind } -> (
              let allowed kind_rank froms =
                if List.mem rank froms then Ok kind_rank
                else
                  Error
                    (Printf.sprintf "%s extend of PCR 17 %s"
                       (Event.pcr_kind_to_string kind)
                       (rank_name rank))
              in
              match kind with
              | Event.Software -> Ok rank
              | Event.Measure -> allowed 1 [ 0; 1 ]
              | Event.Stub -> allowed 2 [ 1 ]
              | Event.Input -> allowed 3 [ 1; 2 ]
              | Event.Output -> allowed 4 [ 3 ]
              | Event.Nonce -> allowed 5 [ 4 ]
              | Event.Cap -> allowed 6 [ 1; 2; 4; 5 ])
          | _ -> Ok rank);
    }

(* --- nv-monotonic ------------------------------------------------------ *)

type nv_state = {
  counters : (int * int) list;  (* monotonic-counter handle -> last value *)
  nv : (int * int) list;  (* NV index -> last 4-byte counter value *)
  dead : int list;  (* NV indices that stopped holding counters *)
}

let assoc_set k v l =
  List.sort_uniq compare ((k, v) :: List.remove_assoc k l)

let nv_monotonic =
  Auto
    {
      spec_name = "nv-monotonic";
      spec_property =
        "monotonic counters strictly increase and NV counter values \
         strictly advance on every write";
      spec_paper = "§4.4";
      init = { counters = []; nv = []; dead = [] };
      id = Type.Id.make ();
      step =
        (fun st ev ->
          match ev with
          | Event.Counter_increment { handle; value } -> (
              match List.assoc_opt handle st.counters with
              | Some prev when value <= prev ->
                  Error
                    (Printf.sprintf
                       "monotonic counter %d went from %d to %d (must \
                        strictly increase)"
                       handle prev value)
              | _ -> Ok { st with counters = assoc_set handle value st.counters })
          | Event.Nv_write { index; counter = Some c } ->
              if List.mem index st.dead then Ok st
              else (
                match List.assoc_opt index st.nv with
                | Some prev when c < prev ->
                    Error
                      (Printf.sprintf
                         "NV counter at index %#x rolled back from %d to %d"
                         index prev c)
                | Some prev when c = prev ->
                    (* a re-write of the same counter value is a reseal
                       that did not advance the counter: the signature of
                       a replayed blob being persisted (§4.4) *)
                    Error
                      (Printf.sprintf
                         "NV counter at index %#x rewritten with %d without \
                          advancing"
                         index c)
                | _ -> Ok { st with nv = assoc_set index c st.nv })
          | Event.Nv_write { index; counter = None } ->
              (* the index no longer holds a counter; stop tracking it *)
              Ok
                {
                  st with
                  nv = List.remove_assoc index st.nv;
                  dead = List.sort_uniq compare (index :: st.dead);
                }
          | _ -> Ok st);
    }

(* --- fresh-nv-on-launch ------------------------------------------------- *)

(* A PAL that re-writes an existing NV counter inside a launch must have
   read the index first in that same launch: without a fresh read there
   is nothing to compare a sealed blob's counter against, so the PAL
   cannot have performed the §4.4 freshness check. First-time writes
   (provisioning, [Mod_tpm_utils.create_nv_version]) are exempt; so are
   writes outside a launch, which are the OS's business. *)

type fresh_state = {
  f_in_launch : bool;
  f_seen : int list;  (* NV indices that already hold a counter *)
  f_read : int list;  (* indices read since the current launch began *)
}

let fresh_nv_on_launch =
  Auto
    {
      spec_name = "fresh-nv-on-launch";
      spec_property =
        "a launch that re-writes an NV counter reads that index first in \
         the same launch (no reseal without a freshness check)";
      spec_paper = "§4.4";
      init = { f_in_launch = false; f_seen = []; f_read = [] };
      id = Type.Id.make ();
      step =
        (fun st ev ->
          match ev with
          | Event.Skinit_begin _ -> Ok { st with f_in_launch = true; f_read = [] }
          | Event.Os_resume | Event.Pcr_reboot ->
              Ok { st with f_in_launch = false; f_read = [] }
          | Event.Nv_read { index } ->
              if st.f_in_launch then
                Ok { st with f_read = List.sort_uniq compare (index :: st.f_read) }
              else Ok st
          | Event.Nv_write { index; counter = Some _ } ->
              if
                st.f_in_launch
                && List.mem index st.f_seen
                && not (List.mem index st.f_read)
              then
                Error
                  (Printf.sprintf
                     "NV counter at index %#x rewritten inside a launch with \
                      no fresh read of the index"
                     index)
              else Ok { st with f_seen = List.sort_uniq compare (index :: st.f_seen) }
          | Event.Nv_write { index; counter = None } ->
              (* the index no longer holds a counter *)
              Ok { st with f_seen = List.filter (( <> ) index) st.f_seen }
          | _ -> Ok st);
    }

(* --- no-unchecked-dma --------------------------------------------------- *)

type dma_state = N_idle | N_armed of { window : (int * int) option }

let no_unchecked_dma =
  Auto
    {
      spec_name = "no-unchecked-dma";
      spec_property =
        "no DMA reaches the SLB window un-denied while a PAL session is live";
      spec_paper = "§2.2";
      init = N_idle;
      id = Type.Id.make ();
      step =
        (fun st ev ->
          match (st, ev) with
          | _, Event.Skinit_begin _ -> Ok (N_armed { window = None })
          | N_armed { window = None }, Event.Dev_protect { addr; len } ->
              Ok (N_armed { window = Some (addr, len) })
          | ( (N_armed { window = Some (wa, wl) } as st),
              Event.Dma_attempt { addr; len; denied; _ } ) ->
              if (not denied) && overlaps addr len wa wl then
                Error
                  (Printf.sprintf
                     "DMA at %#x (+%d) reached the SLB window during a PAL \
                      session without being denied"
                     addr len)
              else Ok st
          | (N_armed { window = Some w } as st), Event.Zeroize { addr; len } ->
              (* once the window is wiped there is nothing left to read *)
              if covers ~outer:(addr, len) ~inner:w then Ok N_idle else Ok st
          | N_armed _, Event.Os_resume -> Ok N_idle
          | _, Event.Pcr_reboot -> Ok N_idle
          | st, _ -> Ok st);
    }

(* --- suspend-before-launch ---------------------------------------------- *)

let suspend_before_launch =
  Auto
    {
      spec_name = "suspend-before-launch";
      spec_property = "a late launch only happens while the OS is suspended";
      spec_paper = "§4.1";
      init = false (* suspended? *);
      id = Type.Id.make ();
      step =
        (fun suspended ev ->
          match ev with
          | Event.Os_suspend -> Ok true
          | Event.Os_resume -> Ok false
          | Event.Skinit_begin _ when not suspended ->
              Error "late launch invoked while the OS was still running"
          | _ -> Ok suspended);
    }

let all =
  [
    cap_before_resume;
    dev_covers_slb;
    zeroize_before_exit;
    extend_order;
    nv_monotonic;
    fresh_nv_on_launch;
    no_unchecked_dma;
    suspend_before_launch;
  ]
