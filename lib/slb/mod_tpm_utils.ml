open Flicker_crypto
module Tpm = Flicker_tpm.Tpm
module Tpm_types = Flicker_tpm.Tpm_types
module Auth = Flicker_tpm.Auth
module Wire = Flicker_tpm.Tpm_wire

(* Every operation here goes through the byte-level command transport
   (Tpm_wire), as a real PAL's driver would: marshal, hit the device,
   unmarshal. A transport-level failure, or a response of the wrong
   shape, shows up as Bad_parameter. *)

let transport_error = Tpm_types.Bad_parameter "wire transport"

(* send [cmd] and read the response's body with [body] *)
let request tpm cmd body =
  match Wire.call tpm cmd with
  | Ok (Wire.Error_resp e) -> Error e
  | Ok resp -> Option.to_result ~none:transport_error (body resp)
  | Error _ -> Error transport_error

let as_digest = function Wire.Digest_resp d -> Some d | _ -> None
let as_blob = function Wire.Blob_resp b -> Some b | _ -> None
let as_counter = function Wire.Counter_resp v -> Some v | _ -> None
let as_unit = function Wire.Unit_resp -> Some () | _ -> None
let pcr_read tpm i = request tpm (Wire.Pcr_read i) as_digest

let pcr_extend tpm i m =
  if String.length m <> Tpm_types.digest_size then
    Error (Tpm_types.Bad_parameter "extend value must be a 20-byte digest")
  else request tpm (Wire.Pcr_extend (i, m)) as_digest

let get_random tpm n =
  match request tpm (Wire.Get_random n) as_digest with
  | Ok d -> d
  | Error _ -> failwith "TPM GetRandom failed over the wire"

(* OSAP-authorized command against the SRK: handshake, derive the shared
   secret client-side, MAC the command digest, run, close. *)
let with_srk_osap tpm ~rng ~command_digest f =
  let no_osap = Prng.bytes rng Tpm_types.digest_size in
  let osap = function
    | Wire.Osap_resp { handle; nonce_even; ne_osap } -> Some (handle, nonce_even, ne_osap)
    | _ -> None
  in
  match request tpm (Wire.Osap { entity = "SRK"; no_osap }) osap with
  | Error e -> Error e
  | Ok (handle, nonce_even, ne_osap) ->
      let shared =
        Auth.osap_shared_secret ~usage_auth:(Tpm.srk_auth tpm) ~ne_osap ~no_osap
      in
      let nonce_odd = Prng.bytes rng Tpm_types.digest_size in
      let mac = Auth.auth_mac ~secret:shared ~command_digest ~nonce_even ~nonce_odd in
      let result = f { Tpm.session = handle; nonce_odd; mac } in
      Tpm.close_session tpm handle;
      result

let seal tpm ~rng ~release data =
  let command_digest = Tpm.seal_command_digest ~release ~data in
  with_srk_osap tpm ~rng ~command_digest (fun auth ->
      request tpm (Wire.Seal { auth; release; data }) as_blob)

let unseal tpm ~rng blob =
  let command_digest = Tpm.unseal_command_digest ~blob in
  with_srk_osap tpm ~rng ~command_digest (fun auth ->
      request tpm (Wire.Unseal { auth; blob }) as_blob)

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

(* --- versioned sealed state (Section 4.3.2, Figure 4) --- *)

type version_store = Counter of int | Nv_space of int

let ( let* ) = Result.bind

let write_nv_version tpm index j =
  request tpm (Wire.Nv_write (index, Util.be32_of_int j)) as_unit

let read_version tpm = function
  | Counter handle -> request tpm (Wire.Read_counter handle) as_counter
  | Nv_space index ->
      let* raw = request tpm (Wire.Nv_read index) as_digest in
      if String.length raw = 4 then Ok (Util.int_of_be32 raw 0) else Error transport_error

let create_nv_version tpm ~rng ~owner_auth ~index =
  let* pcr17 = pcr_read tpm 17 in
  let gate = [ (17, pcr17) ] in
  let* () =
    nv_define_space tpm ~rng ~owner_auth ~index
      { Flicker_tpm.Nvram.size = 4; read_pcrs = gate; write_pcrs = gate }
  in
  write_nv_version tpm index 0

let seal_versioned tpm ~rng store data =
  let* j =
    match store with
    | Counter handle -> request tpm (Wire.Increment_counter handle) as_counter
    | Nv_space index ->
        let* j = read_version tpm store in
        let* () = write_nv_version tpm index (j + 1) in
        Ok (j + 1)
  in
  seal_for_self tpm ~rng (Util.be32_of_int j ^ data)

type unseal_error =
  | Replay_detected of { sealed_version : int; counter : int }
  | Counter_out_of_sync of { sealed_version : int; counter : int }
  | Tpm_error of Tpm_types.error

let unseal_versioned tpm ~rng store blob =
  let opened =
    let* payload = unseal tpm ~rng blob in
    let* counter = read_version tpm store in
    Ok (payload, counter)
  in
  match opened with
  | Error e -> Error (Tpm_error e)
  | Ok (payload, _) when String.length payload < 4 ->
      Error (Tpm_error (Tpm_types.Bad_parameter "versioned blob lacks its version"))
  | Ok (payload, counter) ->
      let sealed_version = Util.int_of_be32 payload 0 in
      if sealed_version = counter then
        Ok (String.sub payload 4 (String.length payload - 4))
      else if sealed_version = counter - 1 then
        Error (Counter_out_of_sync { sealed_version; counter })
      else Error (Replay_detected { sealed_version; counter })
