type t = { device : Flicker_tpm.Tpm.t; mutable claimed : bool }

let attach device = { device; claimed = false }

let claim t =
  if t.claimed then Error "TPM driver: device already claimed"
  else begin
    t.claimed <- true;
    Ok ()
  end

let release t = t.claimed <- false
let is_claimed t = t.claimed

let with_tpm t f =
  match claim t with
  | Error e -> Error e
  | Ok () ->
      (* release also on exception, or a PAL fault wedges the driver *)
      Fun.protect ~finally:(fun () -> release t) (fun () -> f t.device)

let not_claimed = "TPM driver: device not claimed (call claim first)"

let submit_raw t buf =
  if t.claimed then Ok (Flicker_tpm.Tpm_wire.dispatch t.device buf) else Error not_claimed

let submit t cmd = if t.claimed then Flicker_tpm.Tpm_wire.call t.device cmd else Error not_claimed
