open Flicker_crypto
module Builder = Flicker_slb.Builder
module Slb_core = Flicker_slb.Slb_core
module Tpm_types = Flicker_tpm.Tpm_types

type digest = Tpm_types.digest

let extend current value = Sha1.digest (current ^ value)
let extend_chain start values = List.fold_left extend start values

(* --- measurement memoization ------------------------------------------

   Patching and hashing the 64 KB window is the host-side hot path: an
   Optimized launch used to run the patch + SHA-1 pass once for the
   session's stub extend and again (twice) for every [after_launch] /
   [final] the verifier side computes. All of those are pure functions
   of the image content and the load address, so they are cached here,
   keyed by the *content* — the raw image bytes plus [slb_base] for the
   patched artifacts, the window bytes themselves for [window_digest].
   A content key makes the cache identity-preserving by construction
   (any change to the image, the load address, or the in-memory window
   — including the adversary's corruption hook — changes the key), and
   invalidation is automatic. Collisions only cost a memcmp, which is
   ~100x cheaper than re-hashing the window. *)

(* Equality of image keys is content equality of the bytes. The image a
   PAL holds is one shared string, so [String.equal] returns on its
   pointer check. Hashing all 64 KB would cost as much as that saves, so
   the hash reads the load address, the measured length (which tells the
   flavors apart) and the last bytes of the PAL region: the tail of the
   app code, which the PAL's name determines. Only
   [Slb_image.link] makes an image, so its region fields are functions
   of its bytes and equal keys hash equal. *)
module Image_key = struct
  type t = Builder.image * int

  let equal ((a : Builder.image), x) ((b : Builder.image), y) =
    x = y && String.equal a.bytes b.bytes

  let hash ((image : Builder.image), slb_base) =
    let stop = image.pal_region_off + image.pal_region_len in
    let h = ref ((slb_base * 31) + image.measured_length) in
    for i = max 0 (stop - 32) to stop - 1 do
      h := (!h * 31) + Char.code image.bytes.[i]
    done;
    !h land max_int
end

module Image_tbl = Hashtbl.Make (Image_key)

type entry = {
  e_initialized : string; (* the patched 64 KB window *)
  e_measured : digest; (* H(measured prefix): [of_image] *)
  mutable e_window : digest option; (* H(full window), on first demand *)
}

(* Bounded by single-victim FIFO eviction: the working set is a handful
   of PALs x flavors, so 64 entries (~4 MB of retained windows) is
   generous. Evicting one oldest key at capacity keeps a 65-entry
   working set warm (one extra patch+hash per wrap) where the previous
   wholesale [Hashtbl.reset] thrashed it to a 0% hit rate. *)
let cache_limit = 64

(* Everything mutable lives in domain-local storage: under OCaml 5
   Domains each shard hashes on its own domain, and a shared Hashtbl
   would tear under concurrent insertion. Because every cache is keyed
   by content, a per-domain split is identity-preserving — a domain that
   misses where another would have hit only re-derives the same bytes —
   so the memo stays transparent at any domain count. *)
type state = {
  s_cache : entry Image_tbl.t;
  s_cache_order : Image_key.t Queue.t; (* insertion order, oldest first *)
  s_windows : (string, digest) Hashtbl.t;
  s_windows_order : string Queue.t;
  mutable s_hits : int;
  mutable s_misses : int;
}

let state_key =
  Domain.DLS.new_key (fun () ->
      {
        s_cache = Image_tbl.create 16;
        s_cache_order = Queue.create ();
        s_windows = Hashtbl.create 16;
        s_windows_order = Queue.create ();
        s_hits = 0;
        s_misses = 0;
      })

let state () = Domain.DLS.get state_key

let cache_stats () =
  let st = state () in
  (st.s_hits, st.s_misses)

let clear_cache () =
  let st = state () in
  Image_tbl.reset st.s_cache;
  Queue.clear st.s_cache_order;
  Hashtbl.reset st.s_windows;
  Queue.clear st.s_windows_order;
  st.s_hits <- 0;
  st.s_misses <- 0

(* The order queue may hold keys that were already evicted (a key
   re-inserted after eviction appears twice); skip those. *)
let rec evict_one ~mem ~remove order =
  match Queue.take_opt order with
  | None -> ()
  | Some k -> if mem k then remove k else evict_one ~mem ~remove order

let lookup image ~slb_base =
  let st = state () in
  let key = (image, slb_base) in
  match Image_tbl.find_opt st.s_cache key with
  | Some e ->
      st.s_hits <- st.s_hits + 1;
      e
  | None ->
      st.s_misses <- st.s_misses + 1;
      if Image_tbl.length st.s_cache >= cache_limit then
        evict_one ~mem:(Image_tbl.mem st.s_cache) ~remove:(Image_tbl.remove st.s_cache)
          st.s_cache_order;
      let bytes = Builder.initialize image ~slb_base in
      let e =
        {
          e_initialized = bytes;
          e_measured = Sha1.digest (String.sub bytes 0 image.Builder.measured_length);
          e_window = None;
        }
      in
      Image_tbl.replace st.s_cache key e;
      Queue.add key st.s_cache_order;
      e

let entry_window_digest e =
  match e.e_window with
  | Some d -> d
  | None ->
      let d = Sha1.digest e.e_initialized in
      e.e_window <- Some d;
      d

let window_digest window =
  let st = state () in
  match Hashtbl.find_opt st.s_windows window with
  | Some d ->
      st.s_hits <- st.s_hits + 1;
      d
  | None ->
      st.s_misses <- st.s_misses + 1;
      if Hashtbl.length st.s_windows >= cache_limit then
        evict_one ~mem:(Hashtbl.mem st.s_windows) ~remove:(Hashtbl.remove st.s_windows)
          st.s_windows_order;
      let d = Sha1.digest window in
      Hashtbl.replace st.s_windows window d;
      Queue.add window st.s_windows_order;
      d

let initialized image ~slb_base = (lookup image ~slb_base).e_initialized

let of_image image ~slb_base = (lookup image ~slb_base).e_measured

let window_hash image ~slb_base = entry_window_digest (lookup image ~slb_base)

let after_launch ?acm image ~slb_base =
  let e = lookup image ~slb_base in
  let start =
    match acm with
    | None -> Tpm_types.zero_digest
    | Some acm -> extend Tpm_types.zero_digest (Sha1.digest acm)
  in
  let v = extend start e.e_measured in
  match image.Builder.flavor with
  | Builder.Standard -> v
  | Builder.Optimized -> extend v (entry_window_digest e)

let after_skinit image ~slb_base = after_launch image ~slb_base

let io_extends ~inputs ~outputs ~nonce =
  let base = [ Sha1.digest inputs; Sha1.digest outputs ] in
  match nonce with None -> base | Some n -> base @ [ n ]

let labeled_io_extends ~inputs ~outputs ~nonce =
  let base = [ ("input", Sha1.digest inputs); ("output", Sha1.digest outputs) ] in
  match nonce with None -> base | Some n -> base @ [ ("nonce", n) ]

let final ?acm ?(pal_extends = []) image ~slb_base ~inputs ~outputs ~nonce =
  extend_chain
    (after_launch ?acm image ~slb_base)
    (pal_extends @ io_extends ~inputs ~outputs ~nonce @ [ Slb_core.cap_value ])
