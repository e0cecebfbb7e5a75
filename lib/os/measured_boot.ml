open Flicker_crypto
module Tpm = Flicker_tpm.Tpm
module Tpm_types = Flicker_tpm.Tpm_types

type event = {
  pcr_index : int;
  template_hash : Tpm_types.digest;
  component : string;
}

type t = { tpm : Tpm.t; mutable events : event list (* newest first *) }

let create tpm = { tpm; events = [] }

let measure t ~pcr ~component ~code =
  if pcr < 0 || pcr >= 17 then
    invalid_arg "Measured_boot.measure: IMA uses the static PCRs (0-16)";
  let template_hash = Sha1.digest code in
  (match Tpm.pcr_extend t.tpm pcr template_hash with
  | Ok _ -> ()
  | Error e ->
      failwith ("Measured_boot.measure: " ^ Tpm_types.error_to_string e));
  t.events <- { pcr_index = pcr; template_hash; component } :: t.events

let boot_sequence t kernel =
  measure t ~pcr:0 ~component:"BIOS" ~code:"simulated-bios-v1.02";
  measure t ~pcr:0 ~component:"option-ROMs" ~code:"vga+nic option roms";
  measure t ~pcr:4 ~component:"bootloader (GRUB stage2)" ~code:"grub-0.97";
  measure t ~pcr:4 ~component:"grub.conf" ~code:"kernel /vmlinuz root=/dev/sda1";
  measure t ~pcr:8
    ~component:(Printf.sprintf "vmlinuz-%s" (Kernel.version kernel))
    ~code:(Kernel.text_segment kernel);
  List.iter
    (fun (name, code) -> measure t ~pcr:10 ~component:name ~code)
    (Kernel.loaded_modules kernel);
  List.iter
    (fun (name, code) -> measure t ~pcr:10 ~component:name ~code)
    [
      ("/sbin/init", "init-binary");
      ("/etc/inittab", "id:5:initdefault:");
      ("/usr/sbin/sshd", "sshd-binary");
    ]

let run_application t ~name ~code = measure t ~pcr:10 ~component:name ~code

let log t = List.rev t.events

let pcrs_in_use t =
  Tpm_types.selection (List.map (fun e -> e.pcr_index) t.events)
