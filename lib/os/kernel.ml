open Flicker_crypto

type t = {
  version : string;
  mutable text_segment : string;
  mutable syscall_table : (int * int) array; (* syscall number, handler address *)
  mutable loaded_modules : (string * string) list;
  mutable page_table_root : int;
  mutable compromised : bool;
}

let create rng ?(text_size = 64 * 1024) ~version () =
  let text_segment = Prng.bytes rng text_size in
  let syscall_table =
    Array.init 326 (fun i -> (i, 0xC0100000 + Prng.int_below rng 0x400000))
  in
  let loaded_modules =
    List.init 4 (fun i ->
        (Printf.sprintf "module_%d.ko" i, Prng.bytes rng (8 * 1024)))
  in
  {
    version;
    text_segment;
    syscall_table;
    loaded_modules;
    page_table_root = 0x1000;
    compromised = false;
  }

let version t = t.version
let text_segment t = t.text_segment

let syscall_table t =
  let buf = Buffer.create (Array.length t.syscall_table * 8) in
  Array.iter
    (fun (num, addr) ->
      Buffer.add_string buf (Util.be32_of_int num);
      Buffer.add_string buf (Util.be32_of_int addr))
    t.syscall_table;
  Buffer.contents buf

let loaded_modules t = t.loaded_modules

let measured_bytes t =
  String.length t.text_segment
  + String.length (syscall_table t)
  + List.fold_left (fun acc (_, code) -> acc + String.length code) 0 t.loaded_modules

let page_table_root t = t.page_table_root
let set_page_table_root t v = t.page_table_root <- v

let install_text_rootkit t =
  (* inline hook: overwrite the first bytes of some kernel function *)
  let offset = String.length t.text_segment / 3 in
  let patch = "\xe9\xde\xad\xbe\xef" (* jmp rootkit *) in
  t.text_segment <-
    String.sub t.text_segment 0 offset
    ^ patch
    ^ String.sub t.text_segment (offset + String.length patch)
        (String.length t.text_segment - offset - String.length patch);
  t.compromised <- true

let install_syscall_rootkit t =
  (* hijack sys_getdents (number 141) to hide files *)
  t.syscall_table <-
    Array.map (fun (num, addr) -> if num = 141 then (num, 0xDEADC0DE) else (num, addr))
      t.syscall_table;
  t.compromised <- true

let install_module_rootkit t =
  t.loaded_modules <- ("rootkit.ko", String.make 4096 '\x90') :: t.loaded_modules;
  t.compromised <- true

let is_compromised t = t.compromised
