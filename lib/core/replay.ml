open Flicker_crypto
module Tpm = Flicker_tpm.Tpm
module Tpm_types = Flicker_tpm.Tpm_types
module Pal_env = Flicker_slb.Pal_env
module Mod_tpm_utils = Flicker_slb.Mod_tpm_utils
module Mod_tpm_driver = Flicker_slb.Mod_tpm_driver

type guard = { counter_handle : int }

let with_tpm (env : Pal_env.t) = Mod_tpm_driver.with_tpm env.Pal_env.tpm_driver
let lift r = Result.map_error Tpm_types.error_to_string r

let init env ~owner_auth ~label =
  with_tpm env (fun tpm ->
      match Mod_tpm_utils.create_counter tpm ~rng:env.Pal_env.rng ~owner_auth ~label with
      | Ok handle -> Ok { counter_handle = handle }
      | Error e -> Error (Tpm_types.error_to_string e))

let seal_for_self env guard data =
  with_tpm env (fun tpm ->
      match Tpm.increment_counter tpm ~handle:guard.counter_handle with
      | Error e -> Error (Tpm_types.error_to_string e)
      | Ok j ->
          lift (Mod_tpm_utils.seal_for_self tpm ~rng:env.Pal_env.rng (Util.be32_of_int j ^ data)))

type unseal_error =
  | Replay_detected of { sealed_version : int; counter : int }
  | Counter_out_of_sync of { sealed_version : int; counter : int }
  | Tpm_error of string

let pp_unseal_error fmt = function
  | Replay_detected { sealed_version; counter } ->
      Format.fprintf fmt "replay detected: blob version %d, counter %d" sealed_version
        counter
  | Counter_out_of_sync { sealed_version; counter } ->
      Format.fprintf fmt
        "counter out of sync (crash suspected): blob version %d, counter %d"
        sealed_version counter
  | Tpm_error msg -> Format.fprintf fmt "TPM error: %s" msg

(* [read] unseals a blob and reads the live counter under one claim;
   the blob's embedded version must equal the counter *)
let check_version env read =
  match with_tpm env read with
  | Error msg -> Error (Tpm_error msg)
  | Ok (payload, _) when String.length payload < 4 ->
      Error (Tpm_error "corrupt replay-guarded blob")
  | Ok (payload, counter) ->
      let sealed_version = Util.int_of_be32 payload 0 in
      if sealed_version = counter then Ok (String.sub payload 4 (String.length payload - 4))
      else if sealed_version = counter - 1 then
        Error (Counter_out_of_sync { sealed_version; counter })
      else Error (Replay_detected { sealed_version; counter })

let unseal env guard blob =
  check_version env (fun tpm ->
      match Mod_tpm_utils.unseal tpm ~rng:env.Pal_env.rng blob with
      | Error e -> Error (Tpm_types.error_to_string e)
      | Ok payload ->
          Tpm.read_counter tpm ~handle:guard.counter_handle
          |> lift |> Result.map (fun counter -> (payload, counter)))

module Nv = struct
  type guard = { nv_index : int }

  let init env ~owner_auth ~nv_index =
    with_tpm env (fun tpm ->
        match Mod_tpm_utils.pcr_read tpm 17 with
        | Error e -> Error (Tpm_types.error_to_string e)
        | Ok pcr17 -> (
            let gate = [ (17, pcr17) ] in
            let attrs =
              { Flicker_tpm.Nvram.size = 4; read_pcrs = gate; write_pcrs = gate }
            in
            match
              Mod_tpm_utils.nv_define_space tpm ~rng:env.Pal_env.rng ~owner_auth
                ~index:nv_index attrs
            with
            | Error e -> Error (Tpm_types.error_to_string e)
            | Ok () ->
                lift (Tpm.nv_write tpm ~index:nv_index (Util.be32_of_int 0))
                |> Result.map (fun () -> { nv_index })))

  let read_counter tpm guard =
    Tpm.nv_read tpm ~index:guard.nv_index |> lift |> Result.map (fun raw -> Util.int_of_be32 raw 0)

  let seal env guard data =
    with_tpm env (fun tpm ->
        match read_counter tpm guard with
        | Error e -> Error e
        | Ok j -> (
            let j = j + 1 in
            match Tpm.nv_write tpm ~index:guard.nv_index (Util.be32_of_int j) with
            | Error e -> Error (Tpm_types.error_to_string e)
            | Ok () ->
                lift
                  (Mod_tpm_utils.seal_for_self tpm ~rng:env.Pal_env.rng
                     (Util.be32_of_int j ^ data))))

  let unseal env guard blob =
    check_version env (fun tpm ->
        match Mod_tpm_utils.unseal tpm ~rng:env.Pal_env.rng blob with
        | Error e -> Error (Tpm_types.error_to_string e)
        | Ok payload -> read_counter tpm guard |> Result.map (fun counter -> (payload, counter)))
end
