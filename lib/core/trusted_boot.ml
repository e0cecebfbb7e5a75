open Flicker_crypto
module Tpm = Flicker_tpm.Tpm
module Tpm_types = Flicker_tpm.Tpm_types
module Measured_boot = Flicker_os.Measured_boot

type failure =
  | Quote_rejected of Verifier.failure
  | Log_mismatch of { pcr : int; expected : string; got : string }
  | Pcr_not_quoted of int

let failure_to_string = function
  | Quote_rejected f -> Verifier.failure_to_string f
  | Log_mismatch { pcr; expected; got } ->
      Printf.sprintf "PCR %d does not replay from the log: expected %s, got %s" pcr
        (Util.to_hex expected) (Util.to_hex got)
  | Pcr_not_quoted pcr -> Printf.sprintf "log names PCR %d but the quote omits it" pcr

(* a reboot zeroes the static PCRs and sets the dynamic ones to -1 *)
let post_reboot pcr = if pcr < 17 then Tpm_types.zero_digest else Tpm_types.reboot_digest

let replay_log events =
  let table = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let pcr = e.Measured_boot.pcr_index in
      let current = Option.value (Hashtbl.find_opt table pcr) ~default:(post_reboot pcr) in
      Hashtbl.replace table pcr (Sha1.digest (current ^ e.Measured_boot.template_hash)))
    events;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])

(* Every quoted PCR must equal its replay, and a PCR the log never names
   its post-reboot value: censoring all of one PCR's entries must not
   pass. *)
let check_replay replayed (quote : Tpm.quote) =
  let expected pcr = Option.value (List.assoc_opt pcr replayed) ~default:(post_reboot pcr) in
  let quoted (pcr, _) = List.mem_assoc pcr quote.quoted_composite in
  match List.find_opt (fun e -> not (quoted e)) replayed with
  | Some (pcr, _) -> Error (Pcr_not_quoted pcr)
  | None -> (
      match
        List.find_opt
          (fun (pcr, got) -> not (Util.constant_time_equal (expected pcr) got))
          quote.quoted_composite
      with
      | Some (pcr, got) -> Error (Log_mismatch { pcr; expected = expected pcr; got })
      | None -> Ok ())

let verify ~ca_key ~aik_cert ~nonce ~log quote =
  match Verifier.authenticate (Verifier.direct ~ca_key) ~nonce aik_cert quote with
  | Error f -> Error (Quote_rejected f)
  | Ok () -> check_replay (replay_log log) quote

type burden = { components_to_assess : int; includes_full_os : bool }

let trusted_boot_burden log =
  { components_to_assess = List.length log; includes_full_os = true }

let flicker_burden pal =
  (* the SLB Core, the linked modules, and the PAL's own logic; nothing
     else ran in the attested environment *)
  {
    components_to_assess = 1 + List.length pal.Flicker_slb.Pal.modules + 1;
    includes_full_os = false;
  }
