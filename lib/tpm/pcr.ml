open Flicker_crypto
module Event = Flicker_verify.Event

let count = 24
let first_dynamic = 17

type t = {
  values : Tpm_types.digest array;
  mutable notify : (?value:Tpm_types.digest -> Event.t -> unit) option;
}

let set_notify t f = t.notify <- Some f
let notice t ?value ev = match t.notify with Some f -> f ?value ev | None -> ()

let reboot t =
  for i = 0 to first_dynamic - 1 do
    t.values.(i) <- Tpm_types.zero_digest
  done;
  for i = first_dynamic to count - 1 do
    t.values.(i) <- Tpm_types.reboot_digest
  done;
  notice t Event.Pcr_reboot

let create () =
  let t = { values = Array.make count Tpm_types.zero_digest; notify = None } in
  reboot t;
  t

let dynamic_reset t =
  for i = first_dynamic to count - 1 do
    t.values.(i) <- Tpm_types.zero_digest
  done;
  notice t Event.Pcr_reset

let read t i =
  if i < 0 || i >= count then Error Tpm_types.Bad_index else Ok t.values.(i)

let expected_extend ~current m = Sha1.digest (current ^ m)

let extend ?(kind = Event.Software) t i m =
  if i < 0 || i >= count then Error Tpm_types.Bad_index
  else if String.length m <> Tpm_types.digest_size then
    Error (Tpm_types.Bad_parameter "extend value must be a 20-byte digest")
  else begin
    t.values.(i) <- expected_extend ~current:t.values.(i) m;
    notice t ~value:m (Event.Pcr_extend { index = i; kind });
    Ok t.values.(i)
  end

let composite t sel = List.map (fun i -> (i, t.values.(i))) sel
