open Flicker_crypto
module Tpm = Flicker_tpm.Tpm
module Tpm_types = Flicker_tpm.Tpm_types
module Privacy_ca = Flicker_tpm.Privacy_ca
module Measured_boot = Flicker_os.Measured_boot

type failure =
  | Bad_certificate
  | Bad_signature
  | Nonce_mismatch
  | Log_mismatch of { pcr : int; expected : string; got : string }
  | Pcr_not_quoted of int

let failure_to_string = function
  | Bad_certificate -> "AIK certificate invalid"
  | Bad_signature -> "quote signature invalid"
  | Nonce_mismatch -> "nonce mismatch"
  | Log_mismatch { pcr; expected; got } ->
      Printf.sprintf "PCR %d does not replay from the log: expected %s, got %s" pcr
        (Util.to_hex expected) (Util.to_hex got)
  | Pcr_not_quoted pcr -> Printf.sprintf "log names PCR %d but the quote omits it" pcr

let replay_log events =
  let table = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let current =
        Option.value
          (Hashtbl.find_opt table e.Measured_boot.pcr_index)
          ~default:Tpm_types.zero_digest
      in
      Hashtbl.replace table e.Measured_boot.pcr_index
        (Sha1.digest (current ^ e.Measured_boot.template_hash)))
    events;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])

let verify ~ca_key ~aik_cert ~nonce ~log quote =
  if not (Privacy_ca.verify_certificate ~ca_key aik_cert) then Error Bad_certificate
  else begin
    let payload = Tpm.quote_payload quote.Tpm.quoted_composite ~nonce:quote.Tpm.quote_nonce in
    if
      not
        (Pkcs1.verify aik_cert.Privacy_ca.subject_aik Hash.SHA1 ~msg:payload
           ~signature:quote.Tpm.signature)
    then Error Bad_signature
    else if not (Util.constant_time_equal quote.Tpm.quote_nonce nonce) then
      Error Nonce_mismatch
    else begin
      let expected = replay_log log in
      let rec check = function
        | [] -> Ok ()
        | (pcr, value) :: rest -> (
            match List.assoc_opt pcr quote.Tpm.quoted_composite with
            | None -> Error (Pcr_not_quoted pcr)
            | Some got ->
                if Util.constant_time_equal value got then check rest
                else Error (Log_mismatch { pcr; expected = value; got }))
      in
      check expected
    end
  end

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
