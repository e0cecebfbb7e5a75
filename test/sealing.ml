(* Sealed storage as the test PALs use it (Section 4.3.1): claim the TPM
   through the driver, seal or unseal, and report TPM errors as strings. *)

module Pal_env = Flicker_slb.Pal_env
module Mod_tpm_utils = Flicker_slb.Mod_tpm_utils

let with_tpm (env : Pal_env.t) f =
  Flicker_slb.Mod_tpm_driver.with_tpm env.Pal_env.tpm_driver (fun tpm ->
      Result.map_error Flicker_tpm.Tpm_types.error_to_string (f tpm ~rng:env.Pal_env.rng))

let seal_for_self env data = with_tpm env (fun tpm -> Mod_tpm_utils.seal_for_self tpm data)
let unseal env blob = with_tpm env (fun tpm -> Mod_tpm_utils.unseal tpm blob)

let seal_to_pcr17 env ~pcr17 data =
  with_tpm env (fun tpm -> Mod_tpm_utils.seal_to_pcr17 tpm ~pcr17 data)
