open Flicker_crypto
module Verifier = Flicker_core.Verifier
module Attestation = Flicker_core.Attestation
module Builder = Flicker_slb.Builder

type t = {
  ca_key : Rsa.public;
  pal : Flicker_slb.Pal.t;
  number : int;
  mutable pending : Distcomp.work_unit list;
  mutable outstanding : (int * Distcomp.work_unit) list; (* unit_id keyed *)
  mutable accepted : (int * int list) list; (* unit_id, divisors *)
  mutable issued_nonces : string list;
  nonce_rng : Prng.t;
}

let create ~ca_key ~number ~lo ~hi ~unit_size =
  if unit_size <= 0 then invalid_arg "Boinc.create: unit size must be positive";
  let rec split id lo acc =
    if lo > hi then List.rev acc
    else begin
      let unit_hi = min hi (lo + unit_size - 1) in
      split (id + 1) (unit_hi + 1)
        ({ Distcomp.unit_id = id; number; lo; hi = unit_hi } :: acc)
    end
  in
  {
    ca_key;
    pal = Distcomp.pal ();
    number;
    pending = split 1 lo [];
    outstanding = [];
    accepted = [];
    issued_nonces = [];
    nonce_rng = Prng.create ~seed:(Printf.sprintf "boinc-server-%d-%d-%d" number lo hi);
  }

let next_unit t =
  match t.pending with
  | [] -> None
  | unit_ :: rest ->
      t.pending <- rest;
      t.outstanding <- (unit_.Distcomp.unit_id, unit_) :: t.outstanding;
      Some unit_

let fresh_nonce t =
  let nonce = Prng.bytes t.nonce_rng 20 in
  t.issued_nonces <- nonce :: t.issued_nonces;
  nonce

type submission = {
  final_state : Distcomp.state;
  pal_inputs : string;
  evidence : Attestation.evidence;
  sub_nonce : string;
  volunteer_slb_base : int;
}

type rejection =
  | Bad_attestation of Verifier.failure
  | Wrong_unit of string
  | Not_finished
  | Unknown_nonce
  | Bogus_divisor of int

let rejection_to_string = function
  | Bad_attestation f -> "attestation rejected: " ^ Verifier.failure_to_string f
  | Wrong_unit msg -> "work-unit mismatch: " ^ msg
  | Not_finished -> "unit not finished"
  | Unknown_nonce -> "nonce was not issued by this server"
  | Bogus_divisor d -> Printf.sprintf "claimed divisor %d does not divide the target" d

let submit t submission =
  let st = submission.final_state in
  if not (List.mem submission.sub_nonce t.issued_nonces) then Error Unknown_nonce
  else if not st.Distcomp.finished then Error Not_finished
  else begin
    match List.assoc_opt st.Distcomp.unit_.Distcomp.unit_id t.outstanding with
    | None -> Error (Wrong_unit "no such outstanding unit")
    | Some unit_ ->
        if st.Distcomp.unit_ <> unit_ then
          Error (Wrong_unit "unit parameters altered")
        else begin
          match
            List.find_opt (fun d -> t.number mod d <> 0) st.Distcomp.divisors_found
          with
          | Some bogus -> Error (Bogus_divisor bogus)
          | None ->
              (* the quote must cover: the genuine PAL, the exact final
                 session inputs, the outputs embedding this state, and the
                 PAL's own extend of the result hash *)
              let expectation =
                Verifier.expect ~pal:t.pal ~flavor:Builder.Optimized
                  ~pal_extends:[ Distcomp.result_extend_of_state st ]
                  ~slb_base:submission.volunteer_slb_base ~nonce:submission.sub_nonce ()
              in
              (match Verifier.verify ~ca_key:t.ca_key expectation submission.evidence with
              | Error f -> Error (Bad_attestation f)
              | Ok () -> (
                  (* cross-check: the attested outputs embed this state *)
                  match
                    Util.decode_fields submission.evidence.Attestation.claimed_outputs
                  with
                  | Ok [ "ok"; _sealed; state_blob; _mac; _prework ]
                    when state_blob = Distcomp.encode_state st ->
                      t.outstanding <-
                        List.remove_assoc st.Distcomp.unit_.Distcomp.unit_id t.outstanding;
                      t.accepted <-
                        (st.Distcomp.unit_.Distcomp.unit_id, st.Distcomp.divisors_found)
                        :: t.accepted;
                      t.issued_nonces <-
                        List.filter (fun n -> n <> submission.sub_nonce) t.issued_nonces;
                      Ok ()
                  | _ -> Error (Wrong_unit "attested outputs do not embed this state")))
        end
  end

let accepted_divisors t =
  List.sort_uniq compare (List.concat_map snd t.accepted)

let outstanding_units t = List.length t.outstanding
let complete t = t.pending = [] && t.outstanding = []
