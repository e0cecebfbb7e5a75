open Flicker_crypto

type digest = string

let digest_size = 20
let zero_digest = String.make digest_size '\000'
let reboot_digest = String.make digest_size '\xff'

type pcr_selection = int list

let selection indices =
  let sorted = List.sort_uniq Int.compare indices in
  List.iter
    (fun i -> if i < 0 || i > 23 then invalid_arg "Tpm_types.selection: PCR index out of range")
    sorted;
  sorted

type pcr_composite = (int * digest) list

let composite_hash composite =
  let buf = Buffer.create 64 in
  List.iter
    (fun (idx, value) ->
      Buffer.add_string buf (Util.be32_of_int idx);
      Buffer.add_string buf value)
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) composite);
  Sha1.digest (Buffer.contents buf)

type error =
  | Bad_auth
  | Wrong_pcr_value
  | Bad_index
  | Bad_parameter of string
  | Locality_violation
  | Decrypt_error
  | Area_exists
  | Tpm_busy

let error_to_string = function
  | Bad_auth -> "TPM_AUTHFAIL"
  | Wrong_pcr_value -> "TPM_WRONGPCRVAL"
  | Bad_index -> "TPM_BADINDEX"
  | Bad_parameter s -> "TPM_BAD_PARAMETER: " ^ s
  | Locality_violation -> "TPM_BAD_LOCALITY"
  | Decrypt_error -> "TPM_DECRYPT_ERROR"
  | Area_exists -> "TPM_NV_AREA_EXISTS"
  | Tpm_busy -> "TPM_RETRY"

type locality = int

let owner_auth_size = 20
