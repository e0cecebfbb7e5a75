module Sha256 = Flicker_crypto.Sha256

type config = {
  tpm_error_rate : float;
  tpm_latency_rate : float;
  tpm_latency_factor : float;
  crash_rate : float;
  reboot_ms : float;
  dma_storm_rate : float;
  dma_storm_writes : int;
  clock_skew_pct : float;
}

let disabled =
  {
    tpm_error_rate = 0.0;
    tpm_latency_rate = 0.0;
    tpm_latency_factor = 1.0;
    crash_rate = 0.0;
    reboot_ms = 500.0;
    dma_storm_rate = 0.0;
    dma_storm_writes = 4;
    clock_skew_pct = 0.0;
  }

let scaled r =
  let r = Float.max 0.0 (Float.min 1.0 r) in
  {
    tpm_error_rate = r;
    tpm_latency_rate = r /. 2.0;
    tpm_latency_factor = 4.0;
    crash_rate = r /. 3.0;
    reboot_ms = 500.0;
    dma_storm_rate = r;
    dma_storm_writes = 4;
    clock_skew_pct = (if r > 0.0 then 0.01 else 0.0);
  }

let enabled c =
  c.tpm_error_rate > 0.0 || c.tpm_latency_rate > 0.0 || c.crash_rate > 0.0
  || c.dma_storm_rate > 0.0 || c.clock_skew_pct > 0.0

type t = {
  cfg : config;
  seed : string;
  (* per-site draw counters: the only mutable state, and it only
     ratchets, so a replay from the same seed retraces it exactly *)
  draws : (string, int) Hashtbl.t;
  skew : float;
}

let clamp lo hi v = Float.max lo (Float.min hi v)

(* SHA-256 of (seed, site, draw index, time) -> uniform [0, 1), the same
   hash-then-ratchet discipline as Prng's chain. 48 bits is plenty for a
   probability comparison and fits a native int. *)
let raw_uniform ~seed ~site ~index ~now_ms =
  let h =
    Sha256.digest (Printf.sprintf "fault|%s|%s|%d|%.6f" seed site index now_ms)
  in
  let v = ref 0 in
  for i = 0 to 5 do
    v := (!v lsl 8) lor Char.code h.[i]
  done;
  float_of_int !v /. 281474976710656.0 (* 2^48 *)

let uniform t ~site ~now_ms =
  let index = Option.value (Hashtbl.find_opt t.draws site) ~default:0 in
  Hashtbl.replace t.draws site (index + 1);
  raw_uniform ~seed:t.seed ~site ~index ~now_ms

let create ?(config = disabled) ~seed () =
  let cfg =
    {
      tpm_error_rate = clamp 0.0 1.0 config.tpm_error_rate;
      tpm_latency_rate = clamp 0.0 1.0 config.tpm_latency_rate;
      tpm_latency_factor = Float.max 1.0 config.tpm_latency_factor;
      crash_rate = clamp 0.0 1.0 config.crash_rate;
      reboot_ms = Float.max 0.0 config.reboot_ms;
      dma_storm_rate = clamp 0.0 1.0 config.dma_storm_rate;
      dma_storm_writes = max 1 config.dma_storm_writes;
      clock_skew_pct = clamp 0.0 0.5 config.clock_skew_pct;
    }
  in
  let skew =
    if cfg.clock_skew_pct = 0.0 then 1.0
    else
      let u = raw_uniform ~seed ~site:"clock.skew" ~index:0 ~now_ms:0.0 in
      1.0 +. (cfg.clock_skew_pct *. ((2.0 *. u) -. 1.0))
  in
  { cfg; seed; draws = Hashtbl.create 16; skew }

let config t = t.cfg
let clock_skew t = t.skew

type tpm_fault = No_fault | Busy | Slow of float

let tpm_fault t ~op ~now_ms =
  let c = t.cfg in
  if c.tpm_error_rate > 0.0 && uniform t ~site:("tpm.err." ^ op) ~now_ms < c.tpm_error_rate
  then Busy
  else if
    c.tpm_latency_rate > 0.0
    && uniform t ~site:("tpm.lat." ^ op) ~now_ms < c.tpm_latency_rate
  then Slow c.tpm_latency_factor
  else No_fault

let session_crash t ~now_ms =
  let c = t.cfg in
  if c.crash_rate > 0.0 && uniform t ~site:"session.crash" ~now_ms < c.crash_rate
  then Some (uniform t ~site:"session.crash_point" ~now_ms)
  else None

let dma_storm t ~now_ms =
  let c = t.cfg in
  if c.dma_storm_rate > 0.0 && uniform t ~site:"dma.storm" ~now_ms < c.dma_storm_rate
  then Some c.dma_storm_writes
  else None
