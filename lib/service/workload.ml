module Platform = Flicker_core.Platform
module Session = Flicker_core.Session
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Layout = Flicker_slb.Layout
module Util = Flicker_crypto.Util
module Rsa = Flicker_crypto.Rsa
module CA = Flicker_apps.Cert_authority

type t = {
  name : string;
  prepare : Platform.t -> int -> unit;
  run_batch : Platform.t -> Request.t list -> (string, string) result list;
}

(* --- echo ------------------------------------------------------------ *)

(* one PAL; the per-request work is input data, not code *)
let echo_pal =
  Pal.define ~name:"fleet-echo" (fun env ->
      match Util.decode_fields env.Pal_env.inputs with
      | Ok (work :: items) when items <> [] ->
          (match float_of_string_opt work with
          | Some ms when ms > 0.0 ->
              Pal_env.compute env ~ms:(ms *. float_of_int (List.length items))
          | _ -> ());
          Pal_env.set_output env (Util.encode_fields (List.map (fun s -> "echo:" ^ s) items))
      | Ok _ | Error _ -> Pal_env.fail env "malformed echo batch")

(* split [items] greedily so each chunk's encoded inputs and outputs
   fit their 4 KB pages *)
let echo_chunks ~payload items =
  let page = Layout.io_page_size in
  let base = 4 + String.length (Printf.sprintf "%.3f" 1.0) + 16 in
  let cost item = 4 + String.length (payload item) + 9 (* "echo:" + framing *) in
  let rec take used acc = function
    | [] -> (List.rev acc, [])
    | item :: rest ->
        let c = cost item in
        if acc <> [] && used + c > page then (List.rev acc, item :: rest)
        else take (used + c) (item :: acc) rest
  in
  let rec split = function
    | [] -> []
    | items ->
        let chunk, rest = take base [] items in
        chunk :: split rest
  in
  split items

let echo_session platform ?nonce ~work_ms payloads =
  let inputs = Util.encode_fields (Printf.sprintf "%.3f" work_ms :: payloads) in
  if String.length inputs > Layout.io_page_size then
    Error "payload exceeds the 4 KB input page"
  else
    let nonce = Option.map Lazy.force nonce in
    match Session.call platform ~pal:echo_pal ~inputs ?nonce () with
    | Error e -> Error e
    | Ok outcome -> (
        let outputs = outcome.Session.outputs in
        match Util.decode_fields outputs with
        | Ok echoes when List.length echoes = List.length payloads ->
            Ok (inputs, outputs, echoes)
        | Ok _ | Error _ -> Error "malformed echo output")

let echo ?(work_ms = 1.0) () =
  let run_chunk platform requests =
    let payloads = List.map (fun r -> r.Request.payload) requests in
    match echo_session platform ~work_ms payloads with
    | Ok (_, _, echoes) -> List.map (fun o -> Ok o) echoes
    | Error e -> List.map (fun _ -> Error e) requests
  in
  {
    name = "echo";
    prepare = (fun _ _ -> ());
    run_batch =
      (fun platform requests ->
        List.concat_map (run_chunk platform)
          (echo_chunks ~payload:(fun r -> r.Request.payload) requests));
  }

(* --- certificate authority ------------------------------------------- *)

let ca_csr_payload ~subject ~subject_key =
  Util.encode_fields [ "csr"; subject; Rsa.public_to_string subject_key ]

let decode_csr payload =
  match Util.decode_fields payload with
  | Ok [ "csr"; subject; key_raw ] -> (
      match Rsa.public_of_string key_raw with
      | key -> Ok { CA.subject; subject_key = key }
      | exception Invalid_argument m -> Error ("subject key: " ^ m))
  | Ok _ -> Error "malformed CSR payload"
  | Error e -> Error ("malformed CSR payload: " ^ e)

let decode_ca_output out =
  match Util.decode_fields out with
  | Ok [ "cert"; cert_raw; ca_pub_raw ] -> (
      match CA.decode_certificate cert_raw with
      | Error m -> Error m
      | Ok cert -> (
          match Rsa.public_of_string ca_pub_raw with
          | ca_pub -> Ok (cert, ca_pub)
          | exception Invalid_argument m -> Error ("issuer key: " ^ m)))
  | Ok _ | Error _ -> Error "malformed CA output"

let ca ?(key_bits = 512) ?(issuer = "Flicker Fleet CA") policy =
  (* per-platform CA replicas, found by physical platform identity *)
  let servers : (Platform.t * CA.server) list ref = ref [] in
  let server_for platform =
    match List.find_opt (fun (p, _) -> p == platform) !servers with
    | Some (_, s) -> s
    | None -> failwith "Workload.ca: platform was never prepared"
  in
  let prepare platform index =
    let server =
      CA.create platform ~key_bits
        ~issuer:(Printf.sprintf "%s #%d" issuer index)
        policy
    in
    (match CA.init_ca server with
    | Ok _ -> ()
    | Error e ->
        failwith (Printf.sprintf "Workload.ca: init_ca on platform %d: %s" index e));
    servers := (platform, server) :: !servers
  in
  let run_batch platform requests =
    let server = server_for platform in
    let pub_raw =
      match CA.public_key server with
      | Some pub -> Rsa.public_to_string pub
      | None -> ""
    in
    (* invalid payloads fail without contaminating the signable rest *)
    let decoded = List.map (fun r -> decode_csr r.Request.payload) requests in
    let csrs = List.filter_map Result.to_option decoded in
    let signed = ref (CA.sign_batch server csrs) in
    List.map
      (fun d ->
        match d with
        | Error m -> Error m
        | Ok _ -> (
            match !signed with
            | [] -> Error "batch result arity mismatch"
            | r :: rest ->
                signed := rest;
                (match r with
                | Ok cert ->
                    Ok
                      (Util.encode_fields
                         [ "cert"; CA.encode_certificate cert; pub_raw ])
                | Error m -> Error m)))
      decoded
  in
  { name = "certificate-authority"; prepare; run_batch }
