open Flicker_crypto
module Timing = Flicker_hw.Timing
module Machine = Flicker_hw.Machine
module Clock = Flicker_hw.Clock
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Mod_tpm_utils = Flicker_slb.Mod_tpm_utils
module Mod_tpm_driver = Flicker_slb.Mod_tpm_driver
module Platform = Flicker_core.Platform
module Session = Flicker_core.Session

type work_unit = { unit_id : int; number : int; lo : int; hi : int }

type state = {
  unit_ : work_unit;
  next_candidate : int;
  divisors_found : int list;
  finished : bool;
}

let encode_int v = Util.be32_of_int (v lsr 31) ^ Util.be32_of_int (v land 0x7FFFFFFF)
let decode_int s = (Util.int_of_be32 s 0 lsl 31) lor Util.int_of_be32 s 4

let encode_state st =
  Util.encode_fields
    ([
       encode_int st.unit_.unit_id;
       encode_int st.unit_.number;
       encode_int st.unit_.lo;
       encode_int st.unit_.hi;
       encode_int st.next_candidate;
       (if st.finished then "F" else "R");
     ]
    @ List.map encode_int st.divisors_found)

let decode_state blob =
  match Util.decode_fields blob with
  | Error e -> Error e
  | Ok (uid :: number :: lo :: hi :: next :: flag :: divisors) ->
      if List.exists (fun f -> String.length f <> 8) [ uid; number; lo; hi; next ]
      then Error "corrupt state field"
      else
        Ok
          {
            unit_ =
              {
                unit_id = decode_int uid;
                number = decode_int number;
                lo = decode_int lo;
                hi = decode_int hi;
              };
            next_candidate = decode_int next;
            divisors_found = List.map decode_int divisors;
            finished = (flag = "F");
          }
  | Ok _ -> Error "truncated state"

(* Section 7.5 runs ~1,500,000 candidate divisions in an 8.3 s session:
   roughly 180 candidates per millisecond of useful work. *)
let candidates_per_ms = 180.0

(* One slice of real work: trial division from [next_candidate], bounded
   by the slice budget. Returns the advanced state and the work time. *)
let do_work st ~slice_ms =
  let budget = int_of_float (slice_ms *. candidates_per_ms) in
  let unit_ = st.unit_ in
  let rec go c found tested =
    if c > unit_.hi || tested >= budget then (c, found, tested)
    else begin
      let found =
        if c > 1 && unit_.number mod c = 0 then c :: found else found
      in
      go (c + 1) found (tested + 1)
    end
  in
  let c, found, tested = go st.next_candidate st.divisors_found 0 in
  let finished = c > unit_.hi in
  ( { st with next_candidate = c; divisors_found = found; finished },
    float_of_int tested /. candidates_per_ms )

let mac_key_label = "boinc-state-mac"

let compute_mac key st = Hmac.sha1 ~key (mac_key_label ^ encode_state st)

(* the slice budget the untrusted OS asks for: a finite, non-negative
   number of milliseconds *)
let parse_slice slice =
  match float_of_string_opt slice with
  | Some ms when Float.is_finite ms && ms >= 0.0 -> Ok ms
  | Some _ | None -> Error ("bad slice: " ^ slice)

(* PAL input modes: "start" carries the fresh work unit; "resume" carries
   the sealed key, the stored state, and its MAC. *)
let behavior env =
  let rng = env.Pal_env.rng in
  let clock = env.Pal_env.machine.Machine.clock in
  let entered = Clock.now clock in
  let tpm_error = Flicker_tpm.Tpm_types.error_to_string in
  let respond tpm ~sealed_key ~key ~slice_ms st =
    let pre_work_ms = Clock.now clock -. entered in
    let st, work_ms = do_work st ~slice_ms in
    Pal_env.compute env ~ms:work_ms;
    if st.finished then
      (* extend the results into PCR 17 so the quote covers them *)
      ignore (Mod_tpm_utils.pcr_extend tpm 17 (Sha1.digest (encode_state st)));
    Ok
      (Util.encode_fields
         [ "ok"; sealed_key; encode_state st; compute_mac key st; Printf.sprintf "%.6f" pre_work_ms ])
  in
  let result =
    match Util.decode_fields env.Pal_env.inputs with
    | Error e -> Error ("bad inputs: " ^ e)
    | Ok [] -> Error "empty inputs"
    | Ok (mode :: rest) -> (
        Mod_tpm_driver.with_tpm env.Pal_env.tpm_driver @@ fun tpm ->
        match (mode, rest) with
        | "start", [ unit_blob; slice ] -> (
            match (decode_state unit_blob, parse_slice slice) with
            | Error e, _ -> Error ("bad work unit: " ^ e)
            | _, Error e -> Error e
            | Ok st, Ok slice_ms -> (
                (* first invocation: generate and seal the 160-bit key *)
                let key = Mod_tpm_utils.get_random tpm 20 in
                match Mod_tpm_utils.seal_for_self tpm ~rng key with
                | Error e -> Error (tpm_error e)
                | Ok sealed_key -> respond tpm ~sealed_key ~key ~slice_ms st))
        | "resume", [ sealed_key; state_blob; mac; slice ] -> (
            match parse_slice slice with
            | Error e -> Error e
            | Ok slice_ms -> (
                match Mod_tpm_utils.unseal tpm ~rng sealed_key with
                | Error e -> Error ("unseal: " ^ tpm_error e)
                | Ok key -> (
                    if
                      not
                        (Util.constant_time_equal mac
                           (Hmac.sha1 ~key (mac_key_label ^ state_blob)))
                    then Error "state MAC mismatch (tampering detected)"
                    else
                      match decode_state state_blob with
                      | Error e -> Error ("bad state: " ^ e)
                      | Ok st -> respond tpm ~sealed_key ~key ~slice_ms st)))
        | _ -> Error "unknown mode")
  in
  match result with
  | Ok output -> Pal_env.set_output env output
  | Error msg -> Pal_env.fail env msg

let pal () =
  Pal.define ~name:"boinc-factoring" ~app_code_size:2048
    ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities; Pal.Crypto ]
    behavior

type client = {
  platform : Platform.t;
  pal : Pal.t;
  mutable sealed_key : string;
  mutable mac : string;
}

let create_client platform = { platform; pal = pal (); sealed_key = ""; mac = "" }

type step = {
  outcome : Session.outcome;
  state : state;
  session_overhead_ms : float;
}

let parse_step client outcome =
  match Util.decode_fields outcome.Session.outputs with
  | Ok [ "ok"; sealed_key; state_blob; mac; pre_work ] -> (
      match (decode_state state_blob, float_of_string_opt pre_work) with
      | Error e, _ -> Error ("PAL returned bad state: " ^ e)
      | _, None -> Error ("PAL returned bad pre-work time: " ^ pre_work)
      | Ok state, Some pre_work_ms ->
          client.sealed_key <- sealed_key;
          client.mac <- mac;
          let pre_pal =
            List.fold_left
              (fun acc phase -> acc +. Session.phase_ms outcome phase)
              0.0
              [ Session.Load_slb; Session.Suspend_os; Session.Skinit; Session.Slb_init ]
          in
          Ok { outcome; state; session_overhead_ms = pre_pal +. pre_work_ms })
  | Ok _ | Error _ -> Error "PAL returned malformed output"

let run ?nonce client inputs =
  match Session.call client.platform ~pal:client.pal ~inputs ?nonce () with
  | Error e -> Error e
  | Ok outcome -> Result.map (fun step -> (step, inputs)) (parse_step client outcome)

let start client unit_ ~slice_ms =
  let st =
    { unit_; next_candidate = unit_.lo; divisors_found = []; finished = false }
  in
  Result.map fst
    (run client
       (Util.encode_fields [ "start"; encode_state st; Printf.sprintf "%f" slice_ms ]))

let resume_raw client ~state_blob ~slice_ms =
  Result.map fst
    (run client
       (Util.encode_fields
          [ "resume"; client.sealed_key; state_blob; client.mac;
            Printf.sprintf "%f" slice_ms ]))

let resume client st ~slice_ms =
  if st.finished then invalid_arg "Distcomp.resume: work unit already finished";
  resume_raw client ~state_blob:(encode_state st) ~slice_ms

(* like [resume] but also returning the exact PAL inputs, which the
   attestation covers and the server needs to re-derive the quote chain *)
let resume_attested ~nonce client st ~slice_ms =
  if st.finished then invalid_arg "Distcomp.resume_attested: already finished";
  run ~nonce client
    (Util.encode_fields
       [ "resume"; client.sealed_key; encode_state st; client.mac;
         Printf.sprintf "%f" slice_ms ])

let result_extend_of_state st = Sha1.digest (encode_state st)

let run_to_completion client unit_ ~slice_ms =
  match start client unit_ ~slice_ms with
  | Error e -> Error e
  | Ok step ->
      let rec loop step sessions =
        if step.state.finished then Ok (step.state, sessions)
        else begin
          match resume client step.state ~slice_ms with
          | Error e -> Error e
          | Ok step -> loop step (sessions + 1)
        end
      in
      loop step 1

let tamper_state blob =
  if String.length blob = 0 then blob
  else begin
    let b = Bytes.of_string blob in
    let i = String.length blob / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    Bytes.to_string b
  end

let efficiency timing ~work_ms =
  let overhead =
    Timing.skinit_ms timing ~slb_bytes:Flicker_slb.Slb_core.stub_size
    +. timing.Timing.tpm.Timing.unseal_ms
  in
  work_ms /. (work_ms +. overhead)

let replication_efficiency k =
  if k <= 0 then invalid_arg "Distcomp.replication_efficiency";
  1.0 /. float_of_int k
