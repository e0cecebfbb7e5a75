(* Pages are allocated on their first write; an unallocated page is
   [Bytes.empty] and reads as zeros. Every mutation takes the next stamp
   and records it on each page it touches, so a caller can ask whether a
   range changed after a point it remembered. *)
type t = {
  pages : Bytes.t array;
  stamps : int array;  (* per page: stamp of the last mutation touching it *)
  mutable stamp : int;  (* stamp of the latest mutation *)
}

let page_size = 4096

let create ~size =
  if size <= 0 || size mod page_size <> 0 then
    invalid_arg "Memory.create: size must be a positive multiple of 4096";
  let n = size / page_size in
  { pages = Array.make n Bytes.empty; stamps = Array.make n 0; stamp = 0 }

let size t = Array.length t.pages * page_size

let check t addr len label =
  if addr < 0 || len < 0 || addr + len > size t then
    invalid_arg (Printf.sprintf "Memory.%s: out of range (addr=%#x len=%d)" label addr len)

let allocated p = Bytes.length p > 0

(* the page holding [addr], allocated if it was not *)
let page_for_write t addr =
  let i = addr / page_size in
  let p = t.pages.(i) in
  if allocated p then p
  else begin
    let p = Bytes.make page_size '\000' in
    t.pages.(i) <- p;
    p
  end

(* Stamp every page of a non-empty range with a fresh stamp. *)
let touch t addr len =
  if len > 0 then begin
    t.stamp <- t.stamp + 1;
    for i = addr / page_size to (addr + len - 1) / page_size do
      t.stamps.(i) <- t.stamp
    done
  end

(* [f page off pos n] for each page-sized piece of [addr, addr+len):
   [n] bytes at offset [off] of [page], [pos] bytes into the range *)
let iter_pieces t ~addr ~len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a mod page_size in
    let n = min (len - !pos) (page_size - off) in
    f t.pages.(a / page_size) off !pos n;
    pos := !pos + n
  done

let read t ~addr ~len =
  check t addr len "read";
  let b = Bytes.create len in
  iter_pieces t ~addr ~len (fun p off pos n ->
      if allocated p then Bytes.blit p off b pos n else Bytes.fill b pos n '\000');
  Bytes.unsafe_to_string b

(* [n] bytes of page [p] from [off] equal those of [s] from [pos],
   compared eight bytes at a time and then one by one. An unallocated
   page reads as zeros. *)
let equal_piece p off s pos n =
  let i = ref 0 in
  if allocated p then begin
    while !i + 8 <= n && Bytes.get_int64_ne p (off + !i) = String.get_int64_ne s (pos + !i) do
      i := !i + 8
    done;
    while !i < n && Bytes.get p (off + !i) = s.[pos + !i] do
      incr i
    done
  end
  else begin
    while !i + 8 <= n && String.get_int64_ne s (pos + !i) = 0L do
      i := !i + 8
    done;
    while !i < n && s.[pos + !i] = '\000' do
      incr i
    done
  end;
  !i = n

let equal_range t ~addr s =
  let len = String.length s in
  check t addr len "equal_range";
  let rec go pos =
    pos >= len
    ||
    let a = addr + pos in
    let off = a mod page_size in
    let n = min (len - pos) (page_size - off) in
    equal_piece t.pages.(a / page_size) off s pos n && go (pos + n)
  in
  go 0

let write t ~addr s =
  let len = String.length s in
  check t addr len "write";
  touch t addr len;
  iter_pieces t ~addr ~len (fun _ off pos n ->
      Bytes.blit_string s pos (page_for_write t (addr + pos)) off n)

let get t addr =
  let p = t.pages.(addr / page_size) in
  if allocated p then Char.code (Bytes.unsafe_get p (addr mod page_size)) else 0

let set t addr v = Bytes.set (page_for_write t addr) (addr mod page_size) (Char.chr v)

let read_byte t addr =
  check t addr 1 "read_byte";
  get t addr

let write_byte t addr v =
  check t addr 1 "write_byte";
  touch t addr 1;
  set t addr (v land 0xff)

let read_u16_le t addr =
  check t addr 2 "read_u16_le";
  get t addr lor (get t (addr + 1) lsl 8)

let write_u16_le t addr v =
  check t addr 2 "write_u16_le";
  touch t addr 2;
  set t addr (v land 0xff);
  set t (addr + 1) ((v lsr 8) land 0xff)

let zero t ~addr ~len =
  check t addr len "zero";
  touch t addr len;
  iter_pieces t ~addr ~len (fun p off _ n -> if allocated p then Bytes.fill p off n '\000')

let write_stamp t = t.stamp

let written_after t ~stamp ~addr ~len =
  check t addr len "written_after";
  let rec scan i last = i <= last && (t.stamps.(i) > stamp || scan (i + 1) last) in
  len > 0 && scan (addr / page_size) ((addr + len - 1) / page_size)

let page_of_addr addr = addr / page_size

let pages_of_range ~addr ~len =
  if len <= 0 then invalid_arg "Memory.pages_of_range: empty range";
  (page_of_addr addr, page_of_addr (addr + len - 1))

(* A match must start with the pattern's first byte. When that byte is
   not zero, no match starts in an unallocated page, so those pages are
   skipped whole; the rest of a candidate is compared byte by byte
   through [get], which reads across page boundaries and reads
   unallocated pages as zeros. *)
let find_pattern t pattern =
  let plen = String.length pattern in
  if plen = 0 then None
  else begin
    let first = Char.code pattern.[0] in
    let limit = size t - plen in
    let rec rest a k = k = plen || (get t (a + k) = Char.code pattern.[k] && rest a (k + 1)) in
    let rec scan a =
      if a > limit then None
      else if first <> 0 && a mod page_size = 0 && not (allocated t.pages.(a / page_size))
      then scan (a + page_size)
      else if get t a = first && rest a 1 then Some a
      else scan (a + 1)
    in
    scan 0
  end
