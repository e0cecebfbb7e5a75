type tpm_profile = {
  tpm_name : string;
  quote_ms : float;
  seal_ms : float;
  unseal_ms : float;
  pcr_extend_ms : float;
  pcr_read_ms : float;
  get_random_ms_per_128b : float;
  nv_read_ms : float;
  nv_write_ms : float;
  counter_increment_ms : float;
  skinit_base_ms : float;
  skinit_ms_per_kb : float;
}

type cpu_profile = {
  cpu_name : string;
  sha1_mb_per_ms : float;
  rsa_keygen_1024_ms : float;
  rsa_private_1024_ms : float;
  rsa_public_1024_ms : float;
  misc_op_ms : float;
}

type network_profile = { rtt_ms : float; bandwidth_kb_per_ms : float }

type t = {
  tpm : tpm_profile;
  cpu : cpu_profile;
  network : network_profile;
}

(* Table 2 linear fit: 4 KB -> 11.9 ms, 64 KB -> 177.5 ms gives a slope of
   2.76 ms/KB and a sub-millisecond intercept for the CPU state change. *)
let broadcom =
  {
    tpm_name = "Broadcom BCM0102 (HP dc5750)";
    quote_ms = 972.7;
    seal_ms = 10.2;
    unseal_ms = 898.3;
    pcr_extend_ms = 1.2;
    pcr_read_ms = 0.6;
    get_random_ms_per_128b = 1.3;
    nv_read_ms = 22.0;
    nv_write_ms = 28.0;
    counter_increment_ms = 30.0;
    skinit_base_ms = 0.9;
    skinit_ms_per_kb = 2.76;
  }

let infineon =
  {
    broadcom with
    tpm_name = "Infineon v1.2";
    quote_ms = 331.0;
    unseal_ms = 391.0;
    seal_ms = 8.0;
    pcr_extend_ms = 0.8;
  }

(* The concurrent ASPLOS'08 work projects up to six orders of magnitude;
   we model a conservative 1000x on the TPM-bound operations. *)
let future_tpm =
  {
    tpm_name = "projected next-generation";
    quote_ms = 0.97;
    seal_ms = 0.01;
    unseal_ms = 0.9;
    pcr_extend_ms = 0.001;
    pcr_read_ms = 0.001;
    get_random_ms_per_128b = 0.001;
    nv_read_ms = 0.02;
    nv_write_ms = 0.03;
    counter_increment_ms = 0.03;
    skinit_base_ms = 0.9;
    skinit_ms_per_kb = 0.003;
  }

(* The 22.0 ms kernel hash (Table 1) over the simulated 5.06 MB kernel
   image pins the SHA-1 rate at 0.23 MB/ms (~230 MB/s, plausible for a
   2.2 GHz core). *)
let athlon64_x2 =
  {
    cpu_name = "AMD Athlon64 X2 4200+ @ 2.2 GHz";
    sha1_mb_per_ms = 0.23;
    rsa_keygen_1024_ms = 185.7;
    rsa_private_1024_ms = 4.6;
    rsa_public_1024_ms = 0.25;
    misc_op_ms = 0.01;
  }

let paper_network = { rtt_ms = 9.45; bandwidth_kb_per_ms = 1000.0 }
let default = { tpm = broadcom; cpu = athlon64_x2; network = paper_network }
let with_tpm tpm t = { t with tpm }

let skinit_ms t ~slb_bytes =
  t.tpm.skinit_base_ms +. (t.tpm.skinit_ms_per_kb *. (float_of_int slb_bytes /. 1024.0))

let sha1_ms t ~bytes =
  float_of_int bytes /. (1024.0 *. 1024.0) /. t.cpu.sha1_mb_per_ms

(* Keygen cost is dominated by the prime search, whose per-candidate
   modular exponentiation scales cubically in the modulus size while the
   expected number of candidates scales linearly -- but the paper only
   calibrates the 1024-bit point, so a cubic fit keeps the shape sane for
   the 512..2048 range the applications use. *)
let scale_cubic base bits = base *. ((float_of_int bits /. 1024.0) ** 3.0)

let rsa_keygen_ms t ~bits = scale_cubic t.cpu.rsa_keygen_1024_ms bits
let rsa_private_ms t ~bits = scale_cubic t.cpu.rsa_private_1024_ms bits

let rsa_public_ms t ~bits =
  t.cpu.rsa_public_1024_ms *. ((float_of_int bits /. 1024.0) ** 2.0)

let get_random_ms t ~bytes =
  if bytes <= 0 then 0.0
  else begin
    let blocks = (bytes + 127) / 128 in
    t.tpm.get_random_ms_per_128b *. float_of_int blocks
  end

let network_ms t ~bytes =
  (t.network.rtt_ms /. 2.0)
  +. (float_of_int bytes /. 1024.0 /. t.network.bandwidth_kb_per_ms)
