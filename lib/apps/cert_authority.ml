open Flicker_crypto
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Mod_crypto = Flicker_slb.Mod_crypto
module Mod_tpm_utils = Flicker_slb.Mod_tpm_utils
module Mod_tpm_driver = Flicker_slb.Mod_tpm_driver
module Platform = Flicker_core.Platform
module Session = Flicker_core.Session

type csr = { subject : string; subject_key : Rsa.public }

type certificate = {
  serial : int;
  cert_subject : string;
  cert_key : Rsa.public;
  issuer : string;
  signature : string;
}

type policy = {
  allowed_suffixes : string list;
  denied_subjects : string list;
  max_certificates : int;
}

let encode_policy p =
  Util.encode_fields
    ([ Util.be32_of_int p.max_certificates ]
    @ [ Util.be32_of_int (List.length p.allowed_suffixes) ]
    @ p.allowed_suffixes @ p.denied_subjects)

let decode_policy s =
  match Util.decode_fields s with
  | Error e -> Error e
  | Ok (max :: n_allowed :: rest) when String.length max = 4 && String.length n_allowed = 4 ->
      let n = Util.int_of_be32 n_allowed 0 in
      if List.length rest < n then Error "truncated policy"
      else begin
        let allowed = List.filteri (fun i _ -> i < n) rest in
        let denied = List.filteri (fun i _ -> i >= n) rest in
        Ok
          {
            max_certificates = Util.int_of_be32 max 0;
            allowed_suffixes = allowed;
            denied_subjects = denied;
          }
      end
  | Ok _ -> Error "malformed policy"

let ends_with ~suffix s =
  let ls = String.length s and lf = String.length suffix in
  ls >= lf && String.sub s (ls - lf) lf = suffix

let policy_allows p ~issued ~subject =
  issued < p.max_certificates
  && (not (List.mem subject p.denied_subjects))
  && List.exists (fun suffix -> ends_with ~suffix subject) p.allowed_suffixes

let cert_payload ~serial ~subject ~key ~issuer =
  "FLICKER-CA-CERT" ^ Util.be32_of_int serial ^ Util.field subject
  ^ Util.field (Rsa.public_to_string key)
  ^ Util.field issuer

let verify_certificate ~ca_key cert =
  Pkcs1.verify ca_key Hash.SHA1
    ~msg:
      (cert_payload ~serial:cert.serial ~subject:cert.cert_subject ~key:cert.cert_key
         ~issuer:cert.issuer)
    ~signature:cert.signature

let encode_certificate c =
  Util.encode_fields
    [
      Util.be32_of_int c.serial;
      c.cert_subject;
      Rsa.public_to_string c.cert_key;
      c.issuer;
      c.signature;
    ]

let decode_certificate s =
  match Util.decode_fields s with
  | Ok [ serial; subject; key; issuer; signature ] when String.length serial = 4 -> (
      match Rsa.public_of_string key with
      | key ->
          Ok
            {
              serial = Util.int_of_be32 serial 0;
              cert_subject = subject;
              cert_key = key;
              issuer;
              signature;
            }
      | exception Invalid_argument m -> Error m)
  | Ok _ -> Error "malformed certificate"
  | Error e -> Error e

(* the certificate fields [verify_certificate] reads, as a memo key *)
module Certificate_key = struct
  type t = certificate

  let equal a b =
    String.equal a.signature b.signature
    && a.serial = b.serial
    && String.equal a.cert_subject b.cert_subject
    && String.equal a.issuer b.issuer
    && Rsa.public_equal a.cert_key b.cert_key

  let hash c = Flicker_core.Memo.hash_prefix 0 c.signature
end

(* sealed CA state: private key, issuer name, issue count *)
let encode_ca_state ~priv ~issuer ~count =
  Util.encode_fields [ Rsa.private_to_string priv; issuer; Util.be32_of_int count ]

let decode_ca_state s =
  match Util.decode_fields s with
  | Ok [ priv; issuer; count ] when String.length count = 4 -> (
      match Rsa.private_of_string priv with
      | priv -> Ok (priv, issuer, Util.int_of_be32 count 0)
      | exception Invalid_argument m -> Error m)
  | Ok _ -> Error "malformed CA state"
  | Error e -> Error e

let tpm_error = Flicker_tpm.Tpm_types.error_to_string

(* Each mode answers with the output page's contents, or reports its
   error through [Pal_env.fail]. *)
let behavior env =
  let rng = env.Pal_env.rng in
  let with_tpm = Mod_tpm_driver.with_tpm env.Pal_env.tpm_driver in
  let seal_state tpm ~priv ~issuer ~count =
    Result.map_error tpm_error
      (Mod_tpm_utils.seal_for_self tpm ~rng (encode_ca_state ~priv ~issuer ~count))
  in
  (* the sealed CA state, and the policy the OS passes in beside it *)
  let open_state tpm sdata policy_blob =
    match Mod_tpm_utils.unseal tpm ~rng sdata with
    | Error e -> Error ("unseal: " ^ tpm_error e)
    | Ok state_raw -> (
        match (decode_ca_state state_raw, decode_policy policy_blob) with
        | Error m, _ -> Error ("state: " ^ m)
        | _, Error m -> Error ("policy: " ^ m)
        | Ok state, Ok policy -> Ok (state, policy))
  in
  let certify priv ~issuer ~serial ~subject subject_key =
    let signature =
      Mod_crypto.rsa_sign env.Pal_env.machine priv Hash.SHA1
        (cert_payload ~serial ~subject ~key:subject_key ~issuer)
    in
    { serial; cert_subject = subject; cert_key = subject_key; issuer; signature }
  in
  let result =
    match Util.decode_fields env.Pal_env.inputs with
    | Ok [ "keygen"; key_bits; issuer ] -> (
        match int_of_string_opt key_bits with
        | Some bits when bits >= 16 ->
            with_tpm (fun tpm ->
                let seed = Mod_tpm_utils.get_random tpm 128 in
                Prng.reseed rng seed;
                let priv = Mod_crypto.rsa_generate env.Pal_env.machine rng ~bits in
                seal_state tpm ~priv ~issuer ~count:0
                |> Result.map (fun sdata ->
                       Util.encode_fields [ "ok"; Rsa.public_to_string priv.Rsa.pub; sdata ]))
        | _ -> Error ("bad key size: " ^ key_bits))
    | Ok ("sign-batch" :: sdata :: policy_blob :: items) when List.length items mod 2 = 0
      ->
        (* one session, one unseal + one reseal, k signatures: the TPM
           overhead that dominates Section 7.4.2 is paid once per batch *)
        with_tpm (fun tpm ->
            match open_state tpm sdata policy_blob with
            | Error m -> Error m
            | Ok ((priv, issuer, issued), policy) ->
                let rec pair = function
                  | [] -> []
                  | subject :: key :: rest -> (subject, key) :: pair rest
                  | [ _ ] -> assert false
                in
                let count = ref issued in
                let sign_one (subject, subject_key_raw) =
                  if not (policy_allows policy ~issued:!count ~subject) then
                    "E" ^ "policy denies subject " ^ subject
                  else
                    match Rsa.public_of_string subject_key_raw with
                    | exception Invalid_argument m -> "E" ^ "subject key: " ^ m
                    | subject_key ->
                        let cert = certify priv ~issuer ~serial:(!count + 1) ~subject subject_key in
                        count := cert.serial;
                        "C" ^ encode_certificate cert
                in
                let results = List.map sign_one (pair items) in
                (* a batch that signed nothing answers with the blob it
                   opened: the sealed state did not change *)
                (if !count = issued then Ok sdata
                 else seal_state tpm ~priv ~issuer ~count:!count)
                |> Result.map (fun sdata' -> Util.encode_fields ("ok" :: sdata' :: results)))
    | Ok _ | Error _ -> Error "unknown mode"
  in
  match result with
  | Ok output -> Pal_env.set_output env output
  | Error msg -> Pal_env.fail env msg

let ca_pal ~key_bits =
  Pal.define
    ~name:(Printf.sprintf "certificate-authority-%d" key_bits)
    ~app_code_size:1536
    ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities; Pal.Crypto ]
    behavior

type server = {
  platform : Platform.t;
  key_bits : int;
  pal : Pal.t;
  issuer : string;
  policy : policy;
  mutable sdata : string option;
  mutable pub : Rsa.public option;
  mutable log : (int * string) list; (* newest first *)
}

let create platform ?(key_bits = 1024) ?(issuer = "Flicker Simulated CA") policy =
  let pal = ca_pal ~key_bits in
  { platform; key_bits; pal; issuer; policy; sdata = None; pub = None; log = [] }

let public_key server = server.pub

let run_pal server inputs =
  Session.call server.platform ~pal:server.pal ~inputs ()
  |> Result.map (fun outcome -> outcome.Session.outputs)

let init_ca server =
  match server.pub with
  | Some pub -> Ok pub
  | None -> (
      let inputs =
        Util.encode_fields [ "keygen"; string_of_int server.key_bits; server.issuer ]
      in
      match run_pal server inputs with
      | Error e -> Error e
      | Ok out -> (
          match Util.decode_fields out with
          | Ok [ "ok"; pub_raw; sdata ] -> (
              match Rsa.public_of_string pub_raw with
              | pub ->
                  server.pub <- Some pub;
                  server.sdata <- Some sdata;
                  Ok pub
              | exception Invalid_argument m -> Error m)
          | Ok _ | Error _ -> Error "malformed keygen output"))

(* Batch signing. The 4 KB input and output pages bound how many CSRs one
   session can carry, so the batch is split greedily into page-sized
   chunks; each chunk costs one unseal + k signatures + one reseal instead
   of k of each. Sizes are computed exactly from the wire encodings (the
   resealed state keeps its length: only the fixed-width counter
   changes). *)

let field_len s = 4 + String.length s

let batch_chunks server csrs =
  let page = Flicker_slb.Layout.io_page_size in
  let sdata_len =
    match server.sdata with Some s -> String.length s | None -> 0
  in
  let policy_len = String.length (encode_policy server.policy) in
  let in_base = field_len "sign-batch" + (4 + sdata_len) + (4 + policy_len) in
  let out_base = field_len "ok" + (4 + sdata_len) in
  let sig_len = (server.key_bits + 7) / 8 in
  let cost csr =
    let subj = String.length csr.subject in
    let key = String.length (Rsa.public_to_string csr.subject_key) in
    let cert_len =
      field_len (Util.be32_of_int 0) + (4 + subj) + (4 + key)
      + field_len server.issuer + (4 + sig_len)
    in
    ((4 + subj) + (4 + key), 4 + 1 + cert_len)
  in
  let rec take in_used out_used acc = function
    | [] -> (List.rev acc, [])
    | csr :: rest ->
        let in_c, out_c = cost csr in
        if acc <> [] && (in_used + in_c > page || out_used + out_c > page) then
          (List.rev acc, csr :: rest)
        else take (in_used + in_c) (out_used + out_c) (csr :: acc) rest
  in
  let rec split = function
    | [] -> []
    | csrs ->
        let chunk, rest = take in_base out_base [] csrs in
        chunk :: split rest
  in
  split csrs

let sign_chunk server csrs =
  match server.sdata with
  | None -> List.map (fun _ -> Error "CA not initialized (run init_ca)") csrs
  | Some sdata -> (
      let items =
        List.concat_map
          (fun csr -> [ csr.subject; Rsa.public_to_string csr.subject_key ])
          csrs
      in
      let inputs =
        Util.encode_fields ("sign-batch" :: sdata :: encode_policy server.policy :: items)
      in
      if String.length inputs > Flicker_slb.Layout.io_page_size then
        List.map (fun _ -> Error "CSR too large for the 4 KB input page") csrs
      else
        match run_pal server inputs with
        | Error e -> List.map (fun _ -> Error e) csrs
        | Ok out -> (
            match Util.decode_fields out with
            | Ok ("ok" :: sdata' :: results) when List.length results = List.length csrs
              ->
                server.sdata <- Some sdata';
                List.map
                  (fun item ->
                    if String.length item >= 1 && item.[0] = 'C' then
                      match
                        decode_certificate
                          (String.sub item 1 (String.length item - 1))
                      with
                      | Ok cert ->
                          server.log <- (cert.serial, cert.cert_subject) :: server.log;
                          Ok cert
                      | Error m -> Error m
                    else if String.length item >= 1 && item.[0] = 'E' then
                      Error (String.sub item 1 (String.length item - 1))
                    else Error "malformed batch item")
                  results
            | Ok _ | Error _ -> List.map (fun _ -> Error "malformed batch output") csrs))

let sign_batch server csrs =
  List.concat_map (sign_chunk server) (batch_chunks server csrs)

let sign_csr server csr = List.hd (sign_batch server [ csr ])

let issued_count server = List.length server.log
let audit_log server = List.rev server.log
