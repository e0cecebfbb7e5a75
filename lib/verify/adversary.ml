(* Pluggable adversary models for the model checker. Each kind is a
   budgeted set of actions the environment may schedule between session
   blocks; the Model composes them with the session program and the Mc
   partial-order reduction uses their footprints to decide what
   commutes. *)

type kind = Dma | Reset | Replay | Corrupt_os

let all_kinds = [ Dma; Reset; Replay; Corrupt_os ]

let kind_name = function
  | Dma -> "dma"
  | Reset -> "reset"
  | Replay -> "replay"
  | Corrupt_os -> "corrupt-os"

let kind_of_name n = List.find_opt (fun k -> kind_name k = n) all_kinds

type config = {
  kinds : kind list;
  dma_probes : int;
  resets : int;
  replay_records : int;
  replay_injects : int;
  os_injections : int;
}

let default =
  {
    kinds = [ Dma ];
    dma_probes = 2;
    resets = 1;
    replay_records = 1;
    replay_injects = 1;
    os_injections = 2;
  }

let of_kinds kinds = { default with kinds }
let none = { default with kinds = [] }

let name cfg =
  match cfg.kinds with
  | [] -> "none"
  | ks -> String.concat "+" (List.map kind_name ks)

let active cfg k = List.mem k cfg.kinds

(* Remaining budgets: the dynamic half of an adversary, carried in the
   model-checker state and part of the dedup key. *)
type budgets = {
  probes : int;
  resets : int;
  records : int;
  injects : int;
  os_injs : int;
}

let budgets_of cfg =
  {
    probes = (if active cfg Dma then cfg.dma_probes else 0);
    resets = (if active cfg Reset then cfg.resets else 0);
    records = (if active cfg Replay then cfg.replay_records else 0);
    injects = (if active cfg Replay then cfg.replay_injects else 0);
    os_injs = (if active cfg Corrupt_os then cfg.os_injections else 0);
  }

(* What the adversary can see of the machine when choosing an action. *)
type view = {
  dev_up : bool;
  suspended : bool;
  at_end : bool;  (* the session program has run to completion *)
  blob : int;  (* counter bound into the sealed blob at rest *)
  recorded : int option;  (* a previously recorded blob, if any *)
  slb_addr : int;
  probe_len : int;
  denies : bool;  (* would the DEV deny a probe of the window right now *)
}

(* The machine-level consequence of an action, applied by the Model
   (which owns the machine representation). *)
type effect = Spend_probe | Do_reset | Do_record | Do_inject | Spend_os

type action = {
  act_label : string;
  act_events : Event.t list;
  act_effect : effect;
}

let spend b = function
  | Spend_probe -> { b with probes = b.probes - 1 }
  | Do_reset -> { b with resets = b.resets - 1 }
  | Do_record -> { b with records = b.records - 1 }
  | Do_inject -> { b with injects = b.injects - 1 }
  | Spend_os -> { b with os_injs = b.os_injs - 1 }

(* The corrupt OS's actions read nothing of the machine, so one list
   serves every state. *)
let os_tampering =
  let tamper what =
    {
      act_label = "adv-os-" ^ what;
      act_events = [ Event.Os_inject { what } ];
      act_effect = Spend_os;
    }
  in
  [
    tamper "drop-msg";
    tamper "dup-msg";
    tamper "swap-msg";
    {
      act_label = "adv-os-forge-extend";
      act_events = [ Event.Pcr_extend { index = 17; kind = Event.Software } ];
      act_effect = Spend_os;
    };
  ]

let actions b (v : view) =
  if v.at_end then []
  else
    let dma =
      if b.probes <= 0 then []
      else
        let probe write nm =
          {
            act_label = nm;
            act_events =
              [
                Event.Dma_attempt
                  {
                    addr = v.slb_addr;
                    len = v.probe_len;
                    write;
                    denied = v.denies;
                  };
              ];
            act_effect = Spend_probe;
          }
        in
        [ probe false "adv-dma-read"; probe true "adv-dma-write" ]
    in
    let reset =
      (* a power cycle is only interesting mid-protocol: while the DEV is
         up some launch is in flight and volatile trust state exists *)
      if b.resets <= 0 || not v.dev_up then []
      else
        [
          {
            act_label = "adv-reset";
            act_events = [ Event.Pcr_reboot ];
            act_effect = Do_reset;
          };
        ]
    in
    let replay =
      (* the replay adversary is corrupt OS software: it only runs while
         the OS is running (a suspended OS schedules nothing) *)
      if v.suspended then []
      else
        (if b.records <= 0 then []
         else
           [
             {
               act_label = "adv-replay-record";
               act_events = [ Event.Replay_record { counter = v.blob } ];
               act_effect = Do_record;
             };
           ])
        @
        match v.recorded with
        | Some c when b.injects > 0 ->
            [
              {
                act_label = "adv-replay-inject";
                act_events = [ Event.Replay_inject { counter = c } ];
                act_effect = Do_inject;
              };
            ]
        | _ -> []
    in
    let corrupt_os = if b.os_injs <= 0 || v.suspended then [] else os_tampering in
    dma @ reset @ replay @ corrupt_os
