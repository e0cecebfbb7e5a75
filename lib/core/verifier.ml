open Flicker_crypto
module Tpm = Flicker_tpm.Tpm
module Privacy_ca = Flicker_tpm.Privacy_ca
module Builder = Flicker_slb.Builder

type failure =
  | Bad_certificate
  | Bad_signature
  | Nonce_mismatch
  | Pcr_mismatch of { expected : string; got : string }
  | Missing_pcr17

let failure_to_string = function
  | Bad_certificate -> "AIK certificate signature invalid"
  | Bad_signature -> "TPM quote signature invalid"
  | Nonce_mismatch -> "quote nonce does not match the challenge"
  | Pcr_mismatch { expected; got } ->
      Printf.sprintf "PCR 17 mismatch: expected %s, got %s" (Util.to_hex expected)
        (Util.to_hex got)
  | Missing_pcr17 -> "quote does not cover PCR 17"

type expectation = {
  pal : Flicker_slb.Pal.t;
  flavor : Builder.flavor;
  slb_base : int;
  nonce : string;
  pal_extends : string list;
  acm : string option;
}

let expect ~pal ?(flavor = Builder.Optimized) ?(pal_extends = []) ?acm ~slb_base ~nonce
    () =
  { pal; flavor; slb_base; nonce; pal_extends; acm }

let expected_pcr17 expectation ~inputs ~outputs =
  let image = Builder.build ~flavor:expectation.flavor expectation.pal in
  Measurement.final ?acm:expectation.acm ~pal_extends:expectation.pal_extends image
    ~slb_base:expectation.slb_base ~inputs ~outputs ~nonce:(Some expectation.nonce)

(* Each stage is a function of the values it reads, so a relying party
   can memoize the certificate, quote-signature and PCR-17 stages
   ([Memo]) while freshness re-runs against each new challenge. *)

let check_certificate ~ca_key cert =
  if Privacy_ca.verify_certificate ~ca_key cert then Ok ()
  else Error Bad_certificate

let check_quote_signature (aik, (quote : Tpm.quote)) =
  if
    Pkcs1.verify aik Hash.SHA1
      ~msg:(Tpm.quote_payload quote.Tpm.quoted_composite ~nonce:quote.Tpm.quote_nonce)
      ~signature:quote.Tpm.signature
  then Ok ()
  else Error Bad_signature

let check_freshness ~nonce (quote : Tpm.quote) =
  if Util.constant_time_equal quote.Tpm.quote_nonce nonce then Ok ()
  else Error Nonce_mismatch

let check_pcr17 expectation (evidence : Attestation.evidence) =
  let quote = evidence.Attestation.quote in
  match List.assoc_opt 17 quote.Tpm.quoted_composite with
  | None -> Error Missing_pcr17
  | Some got ->
      let expected =
        expected_pcr17 expectation ~inputs:evidence.Attestation.claimed_inputs
          ~outputs:evidence.Attestation.claimed_outputs
      in
      if Util.constant_time_equal expected got then Ok ()
      else Error (Pcr_mismatch { expected; got })

type runner = {
  certificate : Privacy_ca.aik_certificate -> (unit, failure) result;
  quote_signature : Rsa.public * Tpm.quote -> (unit, failure) result;
}

let direct ~ca_key =
  { certificate = check_certificate ~ca_key; quote_signature = check_quote_signature }

let authenticate run ~nonce (cert : Privacy_ca.aik_certificate) quote =
  let ( let* ) = Result.bind in
  let* () = run.certificate cert in
  let* () = run.quote_signature (cert.subject_aik, quote) in
  check_freshness ~nonce quote

let verify ~ca_key expectation (evidence : Attestation.evidence) =
  let ( let* ) = Result.bind in
  let* () =
    authenticate (direct ~ca_key) ~nonce:expectation.nonce evidence.aik_cert evidence.quote
  in
  check_pcr17 expectation evidence
