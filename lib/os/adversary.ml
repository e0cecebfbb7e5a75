module Machine = Flicker_hw.Machine
module Memory = Flicker_hw.Memory
module Dma = Flicker_hw.Dma
module Tpm = Flicker_tpm.Tpm
module Tpm_types = Flicker_tpm.Tpm_types

type report = { attack : string; succeeded : bool; detail : string }

let scan_memory (m : Machine.t) ~pattern =
  match Memory.find_pattern m.Machine.memory pattern with
  | Some addr ->
      {
        attack = "ring-0 memory scan";
        succeeded = true;
        detail = Printf.sprintf "secret found at %#x" addr;
      }
  | None ->
      {
        attack = "ring-0 memory scan";
        succeeded = false;
        detail = "secret not present in physical memory";
      }

let dma_read_probe dma ~addr ~len ~pattern =
  match Dma.read dma ~addr ~len with
  | Ok data ->
      let found =
        String.length pattern > 0
        && String.length data >= String.length pattern
        && (let limit = String.length data - String.length pattern in
            let rec scan i =
              i <= limit
              && (String.sub data i (String.length pattern) = pattern || scan (i + 1))
            in
            scan 0)
      in
      {
        attack = "DMA read probe";
        succeeded = found;
        detail =
          (if found then "secret exfiltrated via DMA" else "read allowed but no secret");
      }
  | Error reason -> { attack = "DMA read probe"; succeeded = false; detail = reason }

let dma_corrupt dma ~addr ~data =
  match Dma.write dma ~addr ~data with
  | Ok () ->
      { attack = "DMA corruption"; succeeded = true; detail = "memory overwritten" }
  | Error reason -> { attack = "DMA corruption"; succeeded = false; detail = reason }

let forge_pcr17 tpm ~target ~tries =
  let hit = ref false in
  List.iter
    (fun m ->
      match Tpm.pcr_extend tpm 17 m with
      | Ok v -> if v = target then hit := true
      | Error _ -> ())
    tries;
  let final =
    match Tpm.pcr_read tpm 17 with Ok v -> v | Error _ -> Tpm_types.zero_digest
  in
  {
    attack = "PCR 17 forgery via software extends";
    succeeded = !hit || final = target;
    detail =
      (if !hit then "reached target value: attestation broken"
       else "extends composed, target unreachable without SKINIT");
  }

let replay_ciphertext ~original ~stale victim =
  ignore original;
  match victim stale with
  | Ok _ ->
      {
        attack = "sealed-storage replay";
        succeeded = true;
        detail = "victim accepted stale state";
      }
  | Error _ ->
      {
        attack = "sealed-storage replay";
        succeeded = false;
        detail = "stale state rejected";
      }
