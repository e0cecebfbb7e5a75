open Flicker_crypto
open Flicker_tpm
module Machine = Flicker_hw.Machine
module Clock = Flicker_hw.Clock
module Timing = Flicker_hw.Timing

let make_tpm ?(key_bits = 512) () =
  let machine = Machine.create ~memory_size:(1024 * 1024) Timing.default in
  let rng = Prng.create ~seed:"tpm-tests" in
  (machine, Tpm.create machine rng ~key_bits)

(* --- PCR bank semantics --- *)

let test_pcr_boot_state () =
  let bank = Pcr.create () in
  for i = 0 to 16 do
    Alcotest.(check string) "static zero" Tpm_types.zero_digest
      (Result.get_ok (Pcr.read bank i))
  done;
  for i = 17 to 23 do
    Alcotest.(check string) "dynamic -1" Tpm_types.reboot_digest
      (Result.get_ok (Pcr.read bank i))
  done

let test_pcr_extend_semantics () =
  let bank = Pcr.create () in
  let m = Sha1.digest "event" in
  let v1 = Result.get_ok (Pcr.extend bank 0 m) in
  Alcotest.(check string) "extend formula" (Sha1.digest (Tpm_types.zero_digest ^ m)) v1;
  let v2 = Result.get_ok (Pcr.extend bank 0 m) in
  Alcotest.(check bool) "extends compose, not overwrite" true (v1 <> v2);
  Alcotest.(check string) "chain" (Sha1.digest (v1 ^ m)) v2;
  Alcotest.(check bool) "bad index" true (Result.is_error (Pcr.read bank 24));
  Alcotest.(check bool) "bad value size" true
    (Result.is_error (Pcr.extend bank 0 "short"))

let test_pcr_dynamic_reset_vs_reboot () =
  let bank = Pcr.create () in
  ignore (Pcr.extend bank 17 (Sha1.digest "x"));
  ignore (Pcr.extend bank 5 (Sha1.digest "x"));
  Pcr.dynamic_reset bank;
  Alcotest.(check string) "pcr17 zero after reset" Tpm_types.zero_digest
    (Result.get_ok (Pcr.read bank 17));
  Alcotest.(check bool) "static unaffected by dynamic reset" true
    (Result.get_ok (Pcr.read bank 5) <> Tpm_types.zero_digest);
  Pcr.reboot bank;
  Alcotest.(check string) "pcr17 -1 after reboot" Tpm_types.reboot_digest
    (Result.get_ok (Pcr.read bank 17));
  Alcotest.(check string) "static zero after reboot" Tpm_types.zero_digest
    (Result.get_ok (Pcr.read bank 5))

let test_composite_hash () =
  let c1 = [ (17, Sha1.digest "a"); (18, Sha1.digest "b") ] in
  let c2 = [ (18, Sha1.digest "b"); (17, Sha1.digest "a") ] in
  Alcotest.(check string) "order independent" (Tpm_types.composite_hash c1)
    (Tpm_types.composite_hash c2);
  Alcotest.(check bool) "value sensitive" true
    (Tpm_types.composite_hash c1 <> Tpm_types.composite_hash [ (17, Sha1.digest "a"); (18, Sha1.digest "c") ]);
  Alcotest.(check bool) "index sensitive" true
    (Tpm_types.composite_hash [ (17, Sha1.digest "a") ]
    <> Tpm_types.composite_hash [ (18, Sha1.digest "a") ])

let test_selection () =
  Alcotest.(check (list int)) "sorted dedup" [ 3; 17 ] (Tpm_types.selection [ 17; 3; 17 ]);
  Alcotest.check_raises "range"
    (Invalid_argument "Tpm_types.selection: PCR index out of range") (fun () ->
      ignore (Tpm_types.selection [ 24 ]))

(* --- TPM facade --- *)

let test_tpm_pcr_commands () =
  let _, tpm = make_tpm () in
  Alcotest.(check string) "read 17 after boot" Tpm_types.reboot_digest
    (Result.get_ok (Tpm.pcr_read tpm 17));
  let v = Result.get_ok (Tpm.pcr_extend tpm 17 (Sha1.digest "m")) in
  Alcotest.(check string) "extend returns new value" v
    (Result.get_ok (Tpm.pcr_read tpm 17))

let test_tpm_charges_time () =
  let machine, tpm = make_tpm () in
  let t0 = Clock.now machine.Machine.clock in
  ignore (Tpm.pcr_extend tpm 17 (Sha1.digest "m"));
  Alcotest.(check (float 0.001)) "extend 1.2 ms" 1.2 (Clock.now machine.Machine.clock -. t0);
  let t1 = Clock.now machine.Machine.clock in
  ignore (Tpm.quote tpm ~nonce:(String.make 20 'n') ~selection:[ 17 ]);
  Alcotest.(check (float 0.001)) "quote 972.7 ms" 972.7 (Clock.now machine.Machine.clock -. t1);
  let t2 = Clock.now machine.Machine.clock in
  ignore (Tpm.get_random tpm 128);
  Alcotest.(check (float 0.001)) "getrandom 1.3 ms" 1.3 (Clock.now machine.Machine.clock -. t2)

let test_get_random () =
  let _, tpm = make_tpm () in
  let a = Tpm.get_random tpm 32 and b = Tpm.get_random tpm 32 in
  Alcotest.(check int) "length" 32 (String.length a);
  Alcotest.(check bool) "fresh" true (a <> b)

let test_quote_verifies () =
  let _, tpm = make_tpm () in
  ignore (Tpm.pcr_extend tpm 17 (Sha1.digest "state"));
  let nonce = String.make 20 'n' in
  let quote = Tpm.quote tpm ~nonce ~selection:(Tpm_types.selection [ 17 ]) in
  let payload = Tpm.quote_payload quote.Tpm.quoted_composite ~nonce in
  Alcotest.(check bool) "signature valid" true
    (Pkcs1.verify (Tpm.aik_public tpm) Hash.SHA1 ~msg:payload
       ~signature:quote.Tpm.signature);
  (* tampering with the composite breaks it *)
  let evil = [ (17, Sha1.digest "evil") ] in
  let payload' = Tpm.quote_payload evil ~nonce in
  Alcotest.(check bool) "tampered composite fails" false
    (Pkcs1.verify (Tpm.aik_public tpm) Hash.SHA1 ~msg:payload'
       ~signature:quote.Tpm.signature);
  Alcotest.check_raises "bad nonce" (Invalid_argument "Tpm.quote: nonce must be 20 bytes")
    (fun () -> ignore (Tpm.quote tpm ~nonce:"short" ~selection:[ 17 ]))

(* helper running the client side of an OSAP-authorized seal/unseal *)
let rng = Prng.create ~seed:"tpm-client"

let seal tpm ~release data =
  Flicker_slb.Mod_tpm_utils.seal tpm ~rng ~release data

let unseal tpm blob = Flicker_slb.Mod_tpm_utils.unseal tpm ~rng blob

let test_seal_unseal_roundtrip () =
  let _, tpm = make_tpm () in
  let current = Result.get_ok (Tpm.pcr_read tpm 17) in
  let blob = Result.get_ok (seal tpm ~release:[ (17, current) ] "top secret") in
  Alcotest.(check bool) "ciphertext differs from plaintext" true
    (not (String.length blob = 10));
  Alcotest.(check string) "unseal" "top secret" (Result.get_ok (unseal tpm blob))

let test_seal_wrong_pcr () =
  let _, tpm = make_tpm () in
  let blob =
    Result.get_ok (seal tpm ~release:[ (17, Sha1.digest "future state") ] "secret")
  in
  (match unseal tpm blob with
  | Error Tpm_types.Wrong_pcr_value -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Tpm_types.error_to_string e)
  | Ok _ -> Alcotest.fail "unsealed under wrong PCR state");
  (* now drive PCR 17 to the right value: impossible by extends from -1;
     but sealing to the *current* value works *)
  let current = Result.get_ok (Tpm.pcr_read tpm 17) in
  let blob2 = Result.get_ok (seal tpm ~release:[ (17, current) ] "secret2") in
  Alcotest.(check string) "matches" "secret2" (Result.get_ok (unseal tpm blob2));
  (* and after the PCR changes, the same blob stops unsealing *)
  ignore (Tpm.pcr_extend tpm 17 (Sha1.digest "cap"));
  match unseal tpm blob2 with
  | Error Tpm_types.Wrong_pcr_value -> ()
  | _ -> Alcotest.fail "blob still unseals after PCR changed"

let test_seal_empty_release () =
  let _, tpm = make_tpm () in
  let blob = Result.get_ok (seal tpm ~release:[] "unbound") in
  Alcotest.(check string) "unbound blob unseals anywhere" "unbound"
    (Result.get_ok (unseal tpm blob))

let test_unseal_corrupt_blob () =
  let _, tpm = make_tpm () in
  let blob = Result.get_ok (seal tpm ~release:[] "data") in
  let corrupt =
    let b = Bytes.of_string blob in
    Bytes.set b 40 (Char.chr (Char.code (Bytes.get b 40) lxor 1));
    Bytes.to_string b
  in
  (match unseal tpm corrupt with
  | Error Tpm_types.Decrypt_error -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Tpm_types.error_to_string e)
  | Ok _ -> Alcotest.fail "corrupt blob accepted");
  match unseal tpm "tiny" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tiny blob accepted"

let test_unseal_foreign_tpm () =
  (* a blob sealed by one TPM must not unseal on another *)
  let _, tpm1 = make_tpm () in
  let machine2 = Machine.create ~memory_size:(1024 * 1024) Timing.default in
  let tpm2 = Tpm.create machine2 (Prng.create ~seed:"other") ~key_bits:512 in
  let blob = Result.get_ok (seal tpm1 ~release:[] "local only") in
  match unseal tpm2 blob with
  | Error Tpm_types.Decrypt_error -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Tpm_types.error_to_string e)
  | Ok _ -> Alcotest.fail "blob migrated between TPMs"

(* Sealed storage at the size the CA PAL reseals every session (Section
   7.4.2): a 512-bit private key, an issuer name and an issue count, laid
   out as Cert_authority's encode_ca_state lays them out. The blob is
   pinned by its SHA-1, recorded before AES's T-table rewrite, and a warm
   seal+unseal round trip, OSAP handshakes and wire marshalling
   included, allocates at most 8,192 minor words (the byte-oriented AES
   took about 31,000). *)
let test_seal_ca_state () =
  let machine = Machine.create ~memory_size:(1024 * 1024) Timing.default in
  let tpm = Tpm.create machine (Prng.create ~seed:"seal-ca-state") ~key_bits:512 in
  let rng = Prng.create ~seed:"seal-ca-client" in
  let priv = Rsa.generate (Prng.create ~seed:"seal-ca-key") ~bits:512 in
  let state =
    Util.encode_fields [ Rsa.private_to_string priv; "Flicker test CA"; Util.be32_of_int 41 ]
  in
  let release = [ (17, Result.get_ok (Tpm.pcr_read tpm 17)) ] in
  let round_trip () =
    let blob = Result.get_ok (Flicker_slb.Mod_tpm_utils.seal tpm ~rng ~release state) in
    (blob, Result.get_ok (Flicker_slb.Mod_tpm_utils.unseal tpm ~rng blob))
  in
  let blob, unsealed = round_trip () in
  Alcotest.(check int) "state bytes" 354 (String.length state);
  Alcotest.(check string) "blob SHA-1" "d0d720f7924cb2066aed1d43ba8ce54e0b83fc4a"
    (Util.to_hex (Sha1.digest blob));
  Alcotest.(check string) "unsealed" (Util.to_hex state) (Util.to_hex unsealed);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (round_trip ()));
  let words = Gc.minor_words () -. before in
  if words > 8192.0 then
    Alcotest.failf "a warm seal+unseal allocated %.0f minor words (at most 8,192)" words

let test_auth_failure () =
  let _, tpm = make_tpm () in
  (* hand-roll a seal with a WRONG shared secret *)
  let no_osap = Prng.bytes rng 20 in
  let session, ne_osap = Result.get_ok (Tpm.osap tpm ~entity:"SRK" ~no_osap) in
  let bad_shared =
    Auth.osap_shared_secret ~usage_auth:(String.make 20 'W') ~ne_osap ~no_osap
  in
  let release = [] and data = "x" in
  let command_digest = Tpm.seal_command_digest ~release ~data in
  let nonce_odd = Prng.bytes rng 20 in
  let mac =
    Auth.auth_mac ~secret:bad_shared ~command_digest
      ~nonce_even:session.Auth.nonce_even ~nonce_odd
  in
  (match Tpm.seal tpm ~auth:{ Tpm.session = session.Auth.handle; nonce_odd; mac } ~release data with
  | Error Tpm_types.Bad_auth -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Tpm_types.error_to_string e)
  | Ok _ -> Alcotest.fail "bad auth accepted");
  (* unknown session handle *)
  match
    Tpm.seal tpm ~auth:{ Tpm.session = 9999; nonce_odd; mac } ~release data
  with
  | Error Tpm_types.Bad_index -> ()
  | _ -> Alcotest.fail "unknown session accepted"

let test_osap_unknown_entity () =
  let _, tpm = make_tpm () in
  match Tpm.osap tpm ~entity:"EK" ~no_osap:(String.make 20 'n') with
  | Error (Tpm_types.Bad_parameter _) -> ()
  | _ -> Alcotest.fail "unknown entity accepted"

let test_nonce_rolls () =
  (* replaying the same authorization MAC must fail because the even
     nonce rolls after each successful command *)
  let _, tpm = make_tpm () in
  let no_osap = Prng.bytes rng 20 in
  let session, ne_osap = Result.get_ok (Tpm.osap tpm ~entity:"SRK" ~no_osap) in
  let shared =
    Auth.osap_shared_secret ~usage_auth:(Tpm.srk_auth tpm) ~ne_osap ~no_osap
  in
  let release = [] and data = "once" in
  let command_digest = Tpm.seal_command_digest ~release ~data in
  let nonce_odd = Prng.bytes rng 20 in
  let mac =
    Auth.auth_mac ~secret:shared ~command_digest ~nonce_even:session.Auth.nonce_even
      ~nonce_odd
  in
  let auth = { Tpm.session = session.Auth.handle; nonce_odd; mac } in
  Alcotest.(check bool) "first use ok" true (Result.is_ok (Tpm.seal tpm ~auth ~release data));
  match Tpm.seal tpm ~auth ~release data with
  | Error Tpm_types.Bad_auth -> ()
  | _ -> Alcotest.fail "authorization replay accepted"

(* --- NV storage --- *)

let define_nv tpm ~index attrs =
  Flicker_slb.Mod_tpm_utils.nv_define_space tpm ~rng ~owner_auth:(Tpm.owner_auth tpm)
    ~index attrs

(* the Nvram store on its own: define/undefine/list lifecycle *)
let test_nv_lifecycle () =
  let nv = Nvram.create () in
  let attrs = { Nvram.size = 8; read_pcrs = []; write_pcrs = [] } in
  Alcotest.(check bool) "define" true (Result.is_ok (Nvram.define_space nv ~index:5 attrs));
  Alcotest.(check bool) "define 2" true (Result.is_ok (Nvram.define_space nv ~index:9 attrs));
  Alcotest.(check (list int)) "listed sorted" [ 5; 9 ] (Nvram.defined_indices nv);
  Alcotest.(check bool) "undefine missing" true
    (Result.is_error (Nvram.undefine_space nv ~index:99));
  Alcotest.(check bool) "undefine" true (Result.is_ok (Nvram.undefine_space nv ~index:5));
  Alcotest.(check (list int)) "shrunk" [ 9 ] (Nvram.defined_indices nv);
  (* size limits *)
  Alcotest.(check bool) "zero size rejected" true
    (Result.is_error
       (Nvram.define_space nv ~index:1 { Nvram.size = 0; read_pcrs = []; write_pcrs = [] }));
  Alcotest.(check bool) "huge size rejected" true
    (Result.is_error
       (Nvram.define_space nv ~index:1
          { Nvram.size = 1 lsl 20; read_pcrs = []; write_pcrs = [] }))

let test_nv_basic () =
  let _, tpm = make_tpm () in
  let attrs = { Nvram.size = 16; read_pcrs = []; write_pcrs = [] } in
  Alcotest.(check bool) "define" true (Result.is_ok (define_nv tpm ~index:1 attrs));
  (match define_nv tpm ~index:1 attrs with
  | Error Tpm_types.Area_exists -> ()
  | _ -> Alcotest.fail "redefinition allowed");
  Alcotest.(check bool) "write" true (Result.is_ok (Tpm.nv_write tpm ~index:1 "hello"));
  Alcotest.(check string) "read prefix" "hello"
    (String.sub (Result.get_ok (Tpm.nv_read tpm ~index:1)) 0 5);
  Alcotest.(check bool) "missing index" true (Result.is_error (Tpm.nv_read tpm ~index:9));
  match Tpm.nv_write tpm ~index:1 (String.make 17 'x') with
  | Error (Tpm_types.Bad_parameter _) -> ()
  | _ -> Alcotest.fail "oversized write accepted"

let test_nv_owner_auth_required () =
  let _, tpm = make_tpm () in
  let attrs = { Nvram.size = 4; read_pcrs = []; write_pcrs = [] } in
  match
    Flicker_slb.Mod_tpm_utils.nv_define_space tpm ~rng
      ~owner_auth:(String.make 20 'X') ~index:2 attrs
  with
  | Error Tpm_types.Bad_auth -> ()
  | _ -> Alcotest.fail "wrong owner auth accepted"

let test_nv_pcr_gating () =
  let _, tpm = make_tpm () in
  let gate = [ (17, Sha1.digest "who goes there") ] in
  let attrs = { Nvram.size = 8; read_pcrs = gate; write_pcrs = gate } in
  Alcotest.(check bool) "define gated" true (Result.is_ok (define_nv tpm ~index:3 attrs));
  (match Tpm.nv_read tpm ~index:3 with
  | Error Tpm_types.Wrong_pcr_value -> ()
  | _ -> Alcotest.fail "gated read without PCR state");
  match Tpm.nv_write tpm ~index:3 "data" with
  | Error Tpm_types.Wrong_pcr_value -> ()
  | _ -> Alcotest.fail "gated write without PCR state"

(* --- counters --- *)

let test_counters () =
  let _, tpm = make_tpm () in
  let handle =
    Result.get_ok
      (Flicker_slb.Mod_tpm_utils.create_counter tpm ~rng
         ~owner_auth:(Tpm.owner_auth tpm) ~label:"boinc")
  in
  Alcotest.(check int) "starts at zero" 0 (Result.get_ok (Tpm.read_counter tpm ~handle));
  Alcotest.(check int) "increments" 1 (Result.get_ok (Tpm.increment_counter tpm ~handle));
  Alcotest.(check int) "monotonic" 2 (Result.get_ok (Tpm.increment_counter tpm ~handle));
  Alcotest.(check int) "read" 2 (Result.get_ok (Tpm.read_counter tpm ~handle));
  Alcotest.(check bool) "bad handle" true
    (Result.is_error (Tpm.read_counter tpm ~handle:999))

(* --- reboot semantics --- *)

let test_reboot () =
  let _, tpm = make_tpm () in
  ignore (Tpm.pcr_extend tpm 0 (Sha1.digest "boot"));
  ignore (Tpm.pcr_extend tpm 17 (Sha1.digest "session"));
  let handle =
    Result.get_ok
      (Flicker_slb.Mod_tpm_utils.create_counter tpm ~rng
         ~owner_auth:(Tpm.owner_auth tpm) ~label:"persist")
  in
  ignore (Tpm.increment_counter tpm ~handle);
  Tpm.reboot tpm;
  Alcotest.(check string) "pcr0 reset" Tpm_types.zero_digest
    (Result.get_ok (Tpm.pcr_read tpm 0));
  Alcotest.(check string) "pcr17 to -1" Tpm_types.reboot_digest
    (Result.get_ok (Tpm.pcr_read tpm 17));
  Alcotest.(check int) "counter persists" 1 (Result.get_ok (Tpm.read_counter tpm ~handle))

(* --- Privacy CA --- *)

let test_privacy_ca () =
  let ca = Privacy_ca.create (Prng.create ~seed:"pca") ~name:"TestPCA" ~key_bits:512 in
  let _, tpm = make_tpm () in
  (* unknown EK rejected *)
  (match Privacy_ca.certify_aik ca ~ek:(Tpm.ek_public tpm) ~aik:(Tpm.aik_public tpm) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unregistered EK certified");
  Privacy_ca.register_ek ca (Tpm.ek_public tpm);
  let cert =
    Result.get_ok (Privacy_ca.certify_aik ca ~ek:(Tpm.ek_public tpm) ~aik:(Tpm.aik_public tpm))
  in
  Alcotest.(check bool) "certificate verifies" true
    (Privacy_ca.verify_certificate ~ca_key:(Privacy_ca.public_key ca) cert);
  (* wrong CA key *)
  let other = Privacy_ca.create (Prng.create ~seed:"other-pca") ~name:"Other" ~key_bits:512 in
  Alcotest.(check bool) "wrong CA rejected" false
    (Privacy_ca.verify_certificate ~ca_key:(Privacy_ca.public_key other) cert)

let test_capabilities () =
  let _, tpm = make_tpm () in
  Alcotest.(check int) "24 PCRs" 24 (Tpm.get_capability_pcr_count tpm);
  Alcotest.(check bool) "version string" true
    (String.length (Tpm.get_capability_version tpm) > 0)

(* --- SKINIT measurement reuse ---

   The TPM behind SKINIT reuses its last digest only when it is sent the
   very slice of the very string it measured last, which a page
   replaced by a whole-page write (another string) or a window rewritten
   from an equal copy is not. Each launch below measures the first
   [measured_len] bytes of a 64 KB window; a launch that reuses the
   digest hashes only its 40-byte PCR 17 extend, one that re-measures
   hashes [measured_len] bytes more. *)

let slb_base = 0x10000
let measured_len = (3 * 4096) + 100

let window fill =
  let b = Bytes.make (64 * 1024) fill in
  Bytes.set_uint16_le b 0 measured_len;
  Bytes.set_uint16_le b 2 4;
  Bytes.to_string b

let skinit_machine () =
  let machine, tpm = make_tpm () in
  Machine.set_tpm_hooks machine (Tpm.skinit_hooks tpm);
  (machine, tpm)

(* one launch: its measurement, PCR 17 after it, and the host SHA-1
   bytes it hashed *)
let launch (machine, tpm) =
  let before = Sha1.bytes_hashed () in
  Flicker_hw.Apic.deschedule_aps machine;
  Flicker_hw.Apic.send_init_ipi machine;
  let l = Flicker_hw.Skinit.execute machine ~slb_base in
  Flicker_hw.Skinit.teardown_dev machine l;
  Flicker_hw.Apic.release_aps machine;
  let hashed = Sha1.bytes_hashed () - before in
  (l.Flicker_hw.Skinit.measurement, Result.get_ok (Tpm.pcr_read tpm 17), hashed)

let test_page_replaced_remeasured () =
  let ((machine, _) as m) = skinit_machine () in
  let memory = machine.Machine.memory in
  let w = window 'w' in
  Flicker_hw.Memory.write memory ~addr:slb_base w;
  let digest, pcr, first = launch m in
  Alcotest.(check string) "measures the prefix" (Sha1.digest (String.sub w 0 measured_len)) digest;
  let again, pcr_again, reused = launch m in
  Alcotest.(check string) "same slice, same digest" digest again;
  Alcotest.(check string) "same slice, same pcr17" pcr pcr_again;
  Alcotest.(check int) "same slice is not hashed again" measured_len (first - reused);
  (* page 1 becomes a slice of another string, with other bytes *)
  let page = String.make 4096 'q' in
  Flicker_hw.Memory.write memory ~addr:(slb_base + 4096) page;
  let replaced, pcr_replaced, rehashed = launch m in
  let expected = String.sub w 0 4096 ^ page ^ String.sub w 8192 (measured_len - 8192) in
  Alcotest.(check string) "replaced page measured" (Sha1.digest expected) replaced;
  Alcotest.(check bool) "pcr17 changes" true (pcr_replaced <> pcr);
  Alcotest.(check int) "replaced page hashed" measured_len (rehashed - reused)

let test_equal_copy_measures_same () =
  let ((machine, _) as m) = skinit_machine () in
  let memory = machine.Machine.memory in
  let w = window 'e' in
  Flicker_hw.Memory.write memory ~addr:slb_base w;
  let digest, pcr, _ = launch m in
  let _, _, reused = launch m in
  let copy = Bytes.to_string (Bytes.of_string w) in
  Alcotest.(check bool) "another string" true (copy != w);
  Flicker_hw.Memory.write memory ~addr:slb_base copy;
  let from_copy, pcr_copy, rehashed = launch m in
  Alcotest.(check string) "equal bytes, same digest" digest from_copy;
  Alcotest.(check string) "equal bytes, same pcr17" pcr pcr_copy;
  Alcotest.(check int) "another string is hashed" measured_len (rehashed - reused);
  let _, _, reused_copy = launch m in
  Alcotest.(check int) "then its slice is reused" reused reused_copy

let prop_seal_roundtrip =
  let _, tpm = make_tpm () in
  QCheck.Test.make ~name:"seal/unseal roundtrip for arbitrary data" ~count:40
    QCheck.(string_of_size Gen.(int_range 0 2000))
    (fun data ->
      let blob = Result.get_ok (seal tpm ~release:[] data) in
      unseal tpm blob = Ok data)

let prop_extend_injective =
  QCheck.Test.make ~name:"different extend values give different PCRs" ~count:100
    QCheck.(pair (string_of_size (Gen.return 20)) (string_of_size (Gen.return 20)))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let bank = Pcr.create () in
      let bank2 = Pcr.create () in
      Result.get_ok (Pcr.extend bank 0 a) <> Result.get_ok (Pcr.extend bank2 0 b))

let () =
  Alcotest.run "tpm"
    [
      ( "pcr",
        [
          Alcotest.test_case "boot state" `Quick test_pcr_boot_state;
          Alcotest.test_case "extend semantics" `Quick test_pcr_extend_semantics;
          Alcotest.test_case "dynamic reset vs reboot" `Quick test_pcr_dynamic_reset_vs_reboot;
          Alcotest.test_case "composite hash" `Quick test_composite_hash;
          Alcotest.test_case "selection" `Quick test_selection;
        ] );
      ( "commands",
        [
          Alcotest.test_case "pcr commands" `Quick test_tpm_pcr_commands;
          Alcotest.test_case "latency charges" `Quick test_tpm_charges_time;
          Alcotest.test_case "get_random" `Quick test_get_random;
          Alcotest.test_case "quote verifies" `Quick test_quote_verifies;
          Alcotest.test_case "capabilities" `Quick test_capabilities;
        ] );
      ( "sealed storage",
        [
          Alcotest.test_case "roundtrip" `Quick test_seal_unseal_roundtrip;
          Alcotest.test_case "wrong PCR" `Quick test_seal_wrong_pcr;
          Alcotest.test_case "empty release" `Quick test_seal_empty_release;
          Alcotest.test_case "corrupt blob" `Quick test_unseal_corrupt_blob;
          Alcotest.test_case "foreign TPM" `Quick test_unseal_foreign_tpm;
          Alcotest.test_case "CA-sized state" `Quick test_seal_ca_state;
        ] );
      ( "authorization",
        [
          Alcotest.test_case "bad auth" `Quick test_auth_failure;
          Alcotest.test_case "unknown entity" `Quick test_osap_unknown_entity;
          Alcotest.test_case "nonce rolls" `Quick test_nonce_rolls;
        ] );
      ( "nv+counters",
        [
          Alcotest.test_case "nv lifecycle" `Quick test_nv_lifecycle;
          Alcotest.test_case "nv basic" `Quick test_nv_basic;
          Alcotest.test_case "nv owner auth" `Quick test_nv_owner_auth_required;
          Alcotest.test_case "nv pcr gating" `Quick test_nv_pcr_gating;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "reboot" `Quick test_reboot;
        ] );
      ("privacy ca", [ Alcotest.test_case "certify" `Quick test_privacy_ca ]);
      ( "skinit digest",
        [
          Alcotest.test_case "replaced page re-measured" `Quick test_page_replaced_remeasured;
          Alcotest.test_case "equal copy measures the same" `Quick test_equal_copy_measures_same;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_seal_roundtrip; prop_extend_injective ]
      );
    ]
