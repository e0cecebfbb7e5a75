module Platform = Flicker_core.Platform
module Attestation = Flicker_core.Attestation
module Verifier = Flicker_core.Verifier
module Measurement = Flicker_core.Measurement
module Builder = Flicker_slb.Builder
module Tpm = Flicker_tpm.Tpm
module Util = Flicker_crypto.Util
module Sha1 = Flicker_crypto.Sha1
module Metrics = Flicker_obs.Metrics
module Fleet = Flicker_service.Fleet
module Request = Flicker_service.Request
module Workload = Flicker_service.Workload

type config = {
  fleet : Fleet.config;
  cache_capacity : int;
  cache_ttl_ms : float option;
}

let default_config =
  {
    fleet = Fleet.default_config;
    cache_capacity = 1024;
    cache_ttl_ms = None;
  }

type bundle = {
  output : string;
  payload : string;
  nonce : string;
  evidence : Attestation.evidence;
  pcr17 : string;
  platform : int;
  boots : int;
  nv : int;
  quoted_at_ms : float;
}

type verify_failure =
  | Stale of string
  | Crypto of Verifier.failure
  | Not_in_batch

let verify_failure_to_string = function
  | Stale why -> "stale bundle: " ^ why
  | Crypto f -> Verifier.failure_to_string f
  | Not_in_batch ->
      "payload/output pair absent from the quoted session's claimed I/O"

type t = {
  cfg : config;
  fleet : Fleet.t;
  cache : bundle Cache.t;
  appraiser : Appraise.t;
  metrics : Metrics.t;
  boots : int array;  (* per-platform reboot epoch (power cycles seen) *)
  nvs : int array;  (* per-platform NV-counter epoch *)
  (* request id -> the bundle that served it (hit) or was minted for it
     (miss); requests that failed or were rejected are absent *)
  bundles : (int, bundle) Hashtbl.t;
  code_id : string ref;  (* hex PCR-17 launch composite of the echo PAL *)
  indices : (Platform.t * int) list ref;  (* physical platform -> index *)
}

(* --- cache key -------------------------------------------------------- *)

(* (PCR-17 measurement composite, input hash): the launch-time composite
   names the code identity — any PAL or SLB change re-keys the whole
   cache — and the payload digest names the input *)
let key_of_payload ~code_id payload = code_id ^ "/" ^ Sha1.hex payload

let cache_key t payload = key_of_payload ~code_id:!(t.code_id) payload

(* --- attested execution ---------------------------------------------- *)

(* run one page-sized chunk of the fleet's echo PAL (1 ms of work per
   payload) in a single session under a fresh verifier nonce, drawn only
   for a chunk that fits its page; quote PCR 17 once for the whole chunk,
   and mint one verifiable bundle per payload, all sharing that quote *)
let run_chunk ~boots ~nvs platform index payloads :
    ((string * bundle) list, string) result =
  let nonce = lazy (Platform.fresh_nonce platform) in
  match Workload.echo_session platform ~nonce ~work_ms:1.0 payloads with
  | Error e -> Error e
  | Ok (inputs, outputs, outs) ->
      let nonce = Lazy.force nonce in
      let evidence = Attestation.generate platform ~nonce ~inputs ~outputs in
      let pcr17 =
        match List.assoc_opt 17 evidence.Attestation.quote.Tpm.quoted_composite with
        | Some d -> d
        | None -> ""
      in
      let quoted_at_ms = Platform.now_ms platform in
      Ok
        (List.map2
           (fun payload output ->
             ( output,
               {
                 output;
                 payload;
                 nonce;
                 evidence;
                 pcr17;
                 platform = index;
                 boots = boots.(index);
                 nv = nvs.(index);
                 quoted_at_ms;
               } ))
           payloads outs)

(* --- creation --------------------------------------------------------- *)

let index_of indices platform =
  match List.find_opt (fun (p, _) -> p == platform) !indices with
  | Some (_, i) -> i
  | None -> failwith "Serve: platform was never prepared"

let fresh t (b : bundle) =
  b.boots = t.boots.(b.platform) && b.nv = t.nvs.(b.platform)

let intercept t (req : Request.t) =
  (* sealed-affinity homing: a homed request must reach its platform's
     sealed state — a cached result would silently skip it *)
  if req.Request.home <> None then None
  else begin
    let key = cache_key t req.Request.payload in
    match Cache.find t.cache ~now_ms:(Fleet.now_ms t.fleet) key with
    | None ->
        Metrics.incr t.metrics "serve.cache.misses";
        None
    | Some b when not (fresh t b) ->
        (* the quoting platform rebooted or advanced its NV counter since
           this entry was minted: its trust state changed, so the entry
           must never be served. The crash hook sweeps eagerly; this is
           the backstop that makes staleness structural. *)
        ignore
          (Cache.remove_if t.cache (fun k _ -> String.equal k key));
        Metrics.incr t.metrics "serve.cache.stale_rejected";
        Metrics.incr t.metrics "serve.cache.misses";
        None
    | Some b ->
        Metrics.incr t.metrics "serve.cache.hits";
        Hashtbl.replace t.bundles req.Request.id b;
        Some b.output
  end

let invalidate_platform t i ~reason =
  let dropped = Cache.remove_if t.cache (fun _ b -> b.platform = i) in
  if dropped > 0 then
    Metrics.incr t.metrics ("serve.cache.invalidated_" ^ reason) ~by:dropped;
  dropped

let on_crash t i =
  t.boots.(i) <- t.boots.(i) + 1;
  ignore (invalidate_platform t i ~reason:"reboot")

let advance_nv t i =
  if i < 0 || i >= Array.length t.nvs then
    invalid_arg "Serve.advance_nv: platform index outside fleet";
  t.nvs.(i) <- t.nvs.(i) + 1;
  ignore (invalidate_platform t i ~reason:"nv")

let create ?(config = default_config) ?(warm = []) () =
  let metrics = Metrics.create () in
  let cache =
    Cache.create ~capacity:config.cache_capacity ?ttl_ms:config.cache_ttl_ms ()
  in
  let n = config.fleet.Fleet.platforms in
  let boots = Array.make n 0 in
  let nvs = Array.make n 0 in
  let bundles = Hashtbl.create 64 in
  let code_id = ref "" in
  let indices = ref [] in
  let ensure_code_id platform =
    if !code_id = "" then begin
      let image = Builder.build Workload.echo_pal in
      code_id :=
        Util.to_hex
          (Measurement.after_launch image
             ~slb_base:platform.Platform.slb_base)
    end
  in
  let record_chunk platform results =
    List.iter
      (fun (_, b) ->
        Cache.insert cache ~now_ms:(Platform.now_ms platform)
          (key_of_payload ~code_id:!code_id b.payload)
          b)
      results
  in
  let prepare platform i =
    indices := (platform, i) :: !indices;
    ensure_code_id platform;
    (* warm entries are minted during provisioning — before the fleet's
       clock starts and before fault injectors are installed — through
       the same attested path as live traffic, so they verify like any
       other bundle *)
    let mine =
      List.filteri (fun k _ -> k mod n = i) warm
    in
    List.iter
      (fun chunk ->
        match run_chunk ~boots ~nvs platform i chunk with
        | Ok results -> record_chunk platform results
        | Error e -> failwith ("Serve: warming failed: " ^ e))
      (Workload.echo_chunks ~payload:Fun.id mine)
  in
  let run_batch platform (requests : Request.t list) =
    let i = index_of indices platform in
    List.concat_map
      (fun (chunk : Request.t list) ->
        let payloads = List.map (fun r -> r.Request.payload) chunk in
        match run_chunk ~boots ~nvs platform i payloads with
        | Error e -> List.map (fun _ -> Error e) chunk
        | Ok results ->
            record_chunk platform results;
            List.map2
              (fun (r : Request.t) (output, b) ->
                Hashtbl.replace bundles r.Request.id b;
                Ok output)
              chunk results)
      (Workload.echo_chunks ~payload:(fun r -> r.Request.payload) requests)
  in
  let workload = { Workload.name = "attested-echo"; prepare; run_batch } in
  let fleet = Fleet.create ~config:config.fleet workload in
  let t =
    {
      cfg = config;
      fleet;
      cache;
      appraiser = Appraise.create ~ca_key:(Fleet.verifier_key fleet) ();
      metrics;
      boots;
      nvs;
      bundles;
      code_id;
      indices;
    }
  in
  Fleet.set_interceptor fleet (intercept t);
  Fleet.add_crash_hook fleet (on_crash t);
  t

(* --- verification ----------------------------------------------------- *)

(* the end of the [Util.encode_fields] field that starts at [off] in
   [s], or -1 when its header or body runs past the end *)
let field_end s off =
  if off + 4 > String.length s then -1
  else
    let stop = off + 4 + Util.int_of_be32 s off in
    if stop > String.length s then -1 else stop

(* does [s] hold [v] at [pos]? *)
let rec holds s pos v i =
  i = String.length v || (s.[pos + i] = v.[i] && holds s pos v (i + 1))

(* does the field [off, stop) of [s] hold exactly [v]? *)
let field_is s off stop v = stop - off - 4 = String.length v && holds s (off + 4) v 0

(* walk the fields of [ins] from [i] and of [outs] from [o] in step:
   both must end together, and some step must hold [payload] in and
   [output] out *)
let rec pairs_hold ins outs ~payload ~output i o found =
  if i = String.length ins || o = String.length outs then
    found && i = String.length ins && o = String.length outs
  else
    let i' = field_end ins i and o' = field_end outs o in
    i' >= 0 && o' >= 0
    && pairs_hold ins outs ~payload ~output i' o'
         (found || (field_is ins i i' payload && field_is outs o o' output))

(* is (payload, output) one of the positional pairs the quoted session
   actually served? The quote covers the whole chunk's encoded I/O: the
   work field and one field per payload in, one field per output out.
   Both are walked in place, and both must decode whole and hold as many
   payloads as outputs. *)
let in_batch (b : bundle) =
  let ins = b.evidence.Attestation.claimed_inputs in
  let work = field_end ins 0 in
  work >= 0
  && pairs_hold ins b.evidence.Attestation.claimed_outputs ~payload:b.payload
       ~output:b.output work 0 false

let verify_bundle t (b : bundle) =
  if not (fresh t b) then
    Error
      (Stale
         (Printf.sprintf
            "platform %d changed trust state since the quote (reboot or NV \
             advance)"
            b.platform))
  else begin
    let expectation =
      Verifier.expect ~pal:Workload.echo_pal
        ~slb_base:(Fleet.platform t.fleet b.platform).Platform.slb_base
        ~nonce:b.nonce ()
    in
    match Appraise.verify t.appraiser expectation b.evidence with
    | Error f -> Error (Crypto f)
    | Ok () -> if in_batch b then Ok () else Error Not_in_batch
  end

(* --- accessors -------------------------------------------------------- *)

let fleet t = t.fleet
let appraiser t = t.appraiser
let bundle_for t id = Hashtbl.find_opt t.bundles id

type hit_appraisal = { ok : int; stale : int; bad : int }

(* every cache hit so far, in request-id order; a hit whose bundle is
   missing counts as bad *)
let appraise_hits t =
  List.fold_left
    (fun acc ((req : Request.t), disposition) ->
      match disposition with
      | Request.Completed c when c.Request.batch = 0 -> (
          match Option.map (verify_bundle t) (bundle_for t req.Request.id) with
          | Some (Ok ()) -> { acc with ok = acc.ok + 1 }
          | Some (Error (Stale _)) -> { acc with stale = acc.stale + 1 }
          | Some (Error _) | None -> { acc with bad = acc.bad + 1 })
      | _ -> acc)
    { ok = 0; stale = 0; bad = 0 }
    (Fleet.dispositions t.fleet)

let cached t payload =
  match
    Cache.find t.cache ~now_ms:(Fleet.now_ms t.fleet) (cache_key t payload)
  with
  | Some b -> fresh t b
  | None -> false

let cache_stats t = Cache.stats t.cache

(* reconcile the registry with the cache's and appraiser's own running
   stats, then hand it out: counters are monotonic, so topping them up
   by the delta keeps [incr]-site counts and swept counts consistent *)
let metrics t =
  let top_up name target =
    let have = Metrics.counter t.metrics name in
    if target > have then Metrics.incr t.metrics name ~by:(target - have)
  in
  let cs = Cache.stats t.cache in
  top_up "serve.cache.insertions" cs.Cache.insertions;
  top_up "serve.cache.evictions" cs.Cache.evictions;
  top_up "serve.cache.expirations" cs.Cache.expirations;
  top_up "serve.cache.invalidations" cs.Cache.invalidations;
  let aps = Appraise.stats t.appraiser in
  top_up "serve.memo.cert_hits" aps.Appraise.cert_hits;
  top_up "serve.memo.cert_misses" aps.Appraise.cert_misses;
  top_up "serve.memo.quote_hits" aps.Appraise.quote_hits;
  top_up "serve.memo.quote_misses" aps.Appraise.quote_misses;
  top_up "serve.memo.bytes_saved" aps.Appraise.bytes_saved;
  t.metrics
