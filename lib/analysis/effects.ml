type effect_class = Source | Sanitizer | Sink | Zeroizer

let has_prefix p name =
  String.length name >= String.length p && String.sub name 0 (String.length p) = p

(* The built-in table, from the paper's PAL discipline:
   - sources produce secrets (TPM_Unseal output, sealed inputs,
     GetRandom-derived keys, secure-channel decryptions);
   - sanitizers make a secret safe to leave the SLB (seal or encrypt);
   - sinks are where bytes leave the PAL (the output page, physical
     writes outside the region, anything network-shaped — those calls
     are also Forbidden, but if present they still count as sinks);
   - zeroizers erase secrets, satisfying the Section 5.1 teardown
     requirement. *)
let builtin name =
  match name with
  | "TPM_Unseal" | "Tspi_Data_Unseal" | "TPM_GetRandom" | "pal_read_sealed_input" ->
      Some Source
  | "TPM_Seal" | "Tspi_Data_Seal" -> Some Sanitizer
  | "pal_output_write" -> Some Sink
  | "zeroize_secrets" | "zeroize" | "memset_zero" -> Some Zeroizer
  | "send" | "write" | "sendto" -> Some Sink
  | _ ->
      if has_prefix "unseal" name then Some Source
      else if has_prefix "sc_decrypt" name then Some Source
      else if has_prefix "encrypt" name then Some Sanitizer
      else if
        List.exists
          (fun p -> has_prefix p name)
          [ "rsa_encrypt"; "rsa_sign"; "aes_encrypt"; "rc4_encrypt"; "elgamal_encrypt"; "seal_" ]
      then Some Sanitizer
      else if has_prefix "phys_write" name then Some Sink
      else None

type table = (string, effect_class) Hashtbl.t

let make overrides =
  let t = Hashtbl.create 16 in
  List.iter (fun (name, cls) -> Hashtbl.replace t name cls) overrides;
  t

let default () = make []

let classify table name =
  match Hashtbl.find_opt table name with
  | Some cls -> Some cls
  | None -> builtin name
