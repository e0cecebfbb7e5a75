(* Versioned sealed state (Section 4.3.2, Figure 4) as one test over either
   version store: test_attestation runs it over a monotonic counter,
   test_extensions over a PCR-17-gated NV space. Each step is one session
   of a PAL whose body runs the step on the TPM under one claim of the
   driver; every session's PAL has the same name and so the same
   measurement, as a real PAL's successive sessions do. *)

open Flicker_core
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module U = Flicker_slb.Mod_tpm_utils
module Tpm_types = Flicker_tpm.Tpm_types

let in_session p step =
  let result = ref (Error "PAL did not run") in
  let pal =
    Pal.define ~name:"versioned-state" ~modules:[ Pal.Tpm_driver; Pal.Tpm_utilities ]
      (fun env ->
        result :=
          Flicker_slb.Mod_tpm_driver.with_tpm env.Pal_env.tpm_driver (fun tpm ->
              Ok (step tpm ~rng:env.Pal_env.rng)))
  in
  match Session.execute p ~pal () with
  | Error e -> Alcotest.failf "session: %a" Session.pp_error e
  | Ok _ -> ( match !result with Ok v -> v | Error e -> Alcotest.fail e)

let get_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Tpm_types.error_to_string e)

let owner_auth = String.make 20 '\000'

(* the two stores, each defined in a session of its own *)
let counter p =
  get_ok "create counter"
    (in_session p (fun tpm ~rng ->
         U.create_counter tpm ~rng ~owner_auth ~label:"versioned-state"
         |> Result.map (fun handle -> U.Counter handle)))

let nv_space p ~index =
  get_ok "define NV space"
    (in_session p (fun tpm ~rng ->
         U.create_nv_version tpm ~rng ~owner_auth ~index
         |> Result.map (fun () -> U.Nv_space index)))

let show_opened = function
  | Ok data -> "current " ^ data
  | Error (U.Counter_out_of_sync { sealed_version; counter }) ->
      Printf.sprintf "out of sync: blob %d, counter %d" sealed_version counter
  | Error (U.Replay_detected { sealed_version; counter }) ->
      Printf.sprintf "replay: blob %d, counter %d" sealed_version counter
  | Error (U.Tpm_error e) -> "TPM error: " ^ Tpm_types.error_to_string e

let seal p store data =
  get_ok "seal" (in_session p (fun tpm ~rng -> U.seal_versioned tpm ~rng store data))

let opens p store blob expected =
  let opened = in_session p (fun tpm ~rng -> U.unseal_versioned tpm ~rng store blob) in
  Alcotest.(check string) expected expected (show_opened opened)

let protocol p store =
  let blob1 = seal p store "password-db-v1" in
  opens p store blob1 "current password-db-v1";
  (* the CA's session: open the state and reseal its successor, under one
     claim of the driver *)
  let old, blob2 =
    in_session p (fun tpm ~rng ->
        let old = U.unseal_versioned tpm ~rng store blob1 in
        (show_opened old, U.seal_versioned tpm ~rng store "password-db-v2"))
  in
  let blob2 = get_ok "reseal" blob2 in
  Alcotest.(check string) "rotate opened" "current password-db-v1" old;
  opens p store blob2 "current password-db-v2";
  (* one version behind: indistinguishable from a crash between the
     increment and the blob reaching disk *)
  opens p store blob1 "out of sync: blob 1, counter 2";
  (* two behind: unambiguously a replay *)
  ignore (seal p store "password-db-v3");
  opens p store blob1 "replay: blob 1, counter 3";
  (* a plaintext too short to carry a version *)
  let short = get_ok "seal" (in_session p (fun tpm ~rng -> U.seal_for_self tpm ~rng "ab")) in
  opens p store short "TPM error: TPM_BAD_PARAMETER: versioned blob lacks its version"

(* the crash itself: the version advances, its blob is lost *)
let crash p store =
  let blob = seal p store "before the crash" in
  ignore (seal p store "lost in the crash");
  opens p store blob "out of sync: blob 1, counter 2"
