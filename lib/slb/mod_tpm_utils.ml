open Flicker_crypto
module Tpm = Flicker_tpm.Tpm
module Tpm_types = Flicker_tpm.Tpm_types
module Auth = Flicker_tpm.Auth
module Wire = Flicker_tpm.Tpm_wire

(* Every operation here goes through the byte-level command transport
   (Tpm_wire), as a real PAL's driver would: marshal, hit the device,
   unmarshal. A transport-level failure shows up as Bad_parameter. *)

let transport_error = Tpm_types.Bad_parameter "wire transport"

let call tpm cmd =
  match Wire.call tpm cmd with
  | Ok resp -> Ok resp
  | Error _ -> Error transport_error

let pcr_read tpm i =
  match call tpm (Wire.Pcr_read i) with
  | Ok (Wire.Digest_resp d) -> Ok d
  | Ok (Wire.Error_resp e) -> Error e
  | Ok _ | Error _ -> Error transport_error

let pcr_extend tpm i m =
  if String.length m <> Tpm_types.digest_size then
    Error (Tpm_types.Bad_parameter "extend value must be a 20-byte digest")
  else begin
    match call tpm (Wire.Pcr_extend (i, m)) with
    | Ok (Wire.Digest_resp d) -> Ok d
    | Ok (Wire.Error_resp e) -> Error e
    | Ok _ | Error _ -> Error transport_error
  end

let get_random tpm n =
  match call tpm (Wire.Get_random n) with
  | Ok (Wire.Digest_resp d) -> d
  | _ -> failwith "TPM GetRandom failed over the wire"

(* OSAP-authorized command against the SRK: handshake, derive the shared
   secret client-side, MAC the command digest, run, close. *)
let with_srk_osap tpm ~rng ~command_digest f =
  let no_osap = Prng.bytes rng Tpm_types.digest_size in
  match call tpm (Wire.Osap { entity = "SRK"; no_osap }) with
  | Ok (Wire.Osap_resp { handle; nonce_even; ne_osap }) ->
      let shared =
        Auth.osap_shared_secret ~usage_auth:(Tpm.srk_auth tpm) ~ne_osap ~no_osap
      in
      let nonce_odd = Prng.bytes rng Tpm_types.digest_size in
      let mac = Auth.auth_mac ~secret:shared ~command_digest ~nonce_even ~nonce_odd in
      let result = f { Tpm.session = handle; nonce_odd; mac } in
      Tpm.close_session tpm handle;
      result
  | Ok (Wire.Error_resp e) -> Error e
  | Ok _ | Error _ -> Error transport_error

let seal tpm ~rng ~release data =
  let command_digest = Tpm.seal_command_digest ~release ~data in
  with_srk_osap tpm ~rng ~command_digest (fun auth ->
      match call tpm (Wire.Seal { auth; release; data }) with
      | Ok (Wire.Blob_resp blob) -> Ok blob
      | Ok (Wire.Error_resp e) -> Error e
      | Ok _ | Error _ -> Error transport_error)

let unseal tpm ~rng blob =
  let command_digest = Tpm.unseal_command_digest ~blob in
  with_srk_osap tpm ~rng ~command_digest (fun auth ->
      match call tpm (Wire.Unseal { auth; blob }) with
      | Ok (Wire.Blob_resp data) -> Ok data
      | Ok (Wire.Error_resp e) -> Error e
      | Ok _ | Error _ -> Error transport_error)

let seal_to_pcr17 tpm ~rng ~pcr17 data = seal tpm ~rng ~release:[ (17, pcr17) ] data

let seal_for_self tpm ~rng data =
  match pcr_read tpm 17 with
  | Error e -> Error e
  | Ok pcr17 -> seal_to_pcr17 tpm ~rng ~pcr17 data

(* OIAP-authorized owner commands. NV space definition and counter
   creation carry structures the 1.2 wire subset does not marshal, so
   they use the command interface directly (the OS-side TSS path). *)
let with_owner_oiap tpm ~rng ~owner_auth ~command_digest f =
  let session = Tpm.oiap tpm in
  let nonce_odd = Prng.bytes rng Tpm_types.digest_size in
  let mac =
    Auth.auth_mac ~secret:owner_auth ~command_digest
      ~nonce_even:session.Auth.nonce_even ~nonce_odd
  in
  let result = f { Tpm.session = session.Auth.handle; nonce_odd; mac } in
  Tpm.close_session tpm session.Auth.handle;
  result

let nv_define_space tpm ~rng ~owner_auth ~index attrs =
  let command_digest = Tpm.nv_define_command_digest ~index attrs in
  with_owner_oiap tpm ~rng ~owner_auth ~command_digest (fun auth ->
      Tpm.nv_define_space tpm ~auth ~index attrs)

let create_counter tpm ~rng ~owner_auth ~label =
  let command_digest = Tpm.counter_command_digest ~label in
  with_owner_oiap tpm ~rng ~owner_auth ~command_digest (fun auth ->
      Tpm.create_counter tpm ~auth ~label)
