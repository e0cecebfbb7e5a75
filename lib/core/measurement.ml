open Flicker_crypto
module Builder = Flicker_slb.Builder
module Slb_core = Flicker_slb.Slb_core
module Slb_image = Flicker_slb.Slb_image
module Tpm_types = Flicker_tpm.Tpm_types

type digest = Tpm_types.digest

let extend current value = Sha1.digest (current ^ value)
let extend_chain start values = List.fold_left extend start values

(* --- the launch memo ----------------------------------------------------

   Patching and hashing the 64 KB window is the host-side hot path: a
   session loads the patched window and, for an Optimized image, the
   stub extends its digest, and every verifier prediction extends the
   measured prefix's digest. All of them are pure functions of the image
   and the load address, so each image keeps them in its one-slot memo,
   for the last address asked for. Every platform loads at one address,
   so the slot keeps hitting; a lookup at another address recomputes and
   publishes. Two domains racing on a first use publish equal immutable
   values, so the slot needs no lock. *)

let hits = Atomic.make 0
let misses = Atomic.make 0
let cache_stats () = (Atomic.get hits, Atomic.get misses)

let lookup (image : Builder.image) ~slb_base =
  match Atomic.get image.memo with
  | Some m when m.slb_base = slb_base ->
      Atomic.incr hits;
      m
  | _ ->
      Atomic.incr misses;
      let initialized = Builder.initialize image ~slb_base in
      let m =
        {
          Slb_image.slb_base;
          initialized;
          measured = Sha1.digest (String.sub initialized 0 image.measured_length);
          window = Sha1.digest initialized;
        }
      in
      Atomic.set image.memo (Some m);
      m

let initialized image ~slb_base = (lookup image ~slb_base).initialized
let of_image image ~slb_base = (lookup image ~slb_base).measured
let window_hash image ~slb_base = (lookup image ~slb_base).window

let after_launch ?acm image ~slb_base =
  let m = lookup image ~slb_base in
  let start =
    match acm with
    | None -> Tpm_types.zero_digest
    | Some acm -> extend Tpm_types.zero_digest (Sha1.digest acm)
  in
  let v = extend start m.measured in
  match image.Builder.flavor with
  | Builder.Standard -> v
  | Builder.Optimized -> extend v m.window

let labeled_io_extends ~inputs ~outputs ~nonce =
  let module E = Flicker_verify.Event in
  let base = [ (E.Input, Sha1.digest inputs); (E.Output, Sha1.digest outputs) ] in
  match nonce with None -> base | Some n -> base @ [ (E.Nonce, n) ]

let final ?acm ?(pal_extends = []) image ~slb_base ~inputs ~outputs ~nonce =
  extend_chain
    (after_launch ?acm image ~slb_base)
    (pal_extends
    @ List.map snd (labeled_io_extends ~inputs ~outputs ~nonce)
    @ [ Slb_core.cap_value ])
