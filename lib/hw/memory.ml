(* A page is one of three things. Unwritten, it reads as zeros and holds
   nothing. Owned, it holds its own bytes and is written in place. A
   slice, it reads [page_size] bytes of an immutable string from an
   offset, sharing them with that string and with every other page
   sliced from it. Three per-page arrays keep the kinds unboxed, so
   installing a slice allocates nothing: [slices.(i)] is the string page
   [i] is sliced from ([""] unless it is a slice), [offsets.(i)] where
   its bytes start in that string, and [owned.(i)] its own bytes
   ([Bytes.empty] unless it owns them). No page is both a slice and
   owned. *)
type t = { owned : Bytes.t array; slices : string array; offsets : int array }

let page_size = 4096

let create ~size =
  if size <= 0 || size mod page_size <> 0 then
    invalid_arg "Memory.create: size must be a positive multiple of 4096";
  let n = size / page_size in
  { owned = Array.make n Bytes.empty; slices = Array.make n ""; offsets = Array.make n 0 }

let size t = Array.length t.owned * page_size

let check t addr len label =
  if addr < 0 || len < 0 || addr + len > size t then
    invalid_arg (Printf.sprintf "Memory.%s: out of range (addr=%#x len=%d)" label addr len)

let is_slice t i = String.length t.slices.(i) > 0
let is_owned t i = Bytes.length t.owned.(i) > 0

(* page [i]'s own bytes, to write in place: a slice is copied out first
   (copy on write), an unwritten page starts as zeros *)
let owned_page t i =
  if is_owned t i then t.owned.(i)
  else begin
    let p =
      if is_slice t i then begin
        let p = Bytes.create page_size in
        Bytes.blit_string t.slices.(i) t.offsets.(i) p 0 page_size;
        t.slices.(i) <- "";
        p
      end
      else Bytes.make page_size '\000'
    in
    t.owned.(i) <- p;
    p
  end

(* [f i off pos n] for each page-sized piece of [addr, addr+len): [n]
   bytes at offset [off] of page [i], [pos] bytes into the range *)
let iter_pieces ~addr ~len f =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let off = a mod page_size in
    let n = min (len - !pos) (page_size - off) in
    f (a / page_size) off !pos n;
    pos := !pos + n
  done

let read t ~addr ~len =
  check t addr len "read";
  let b = Bytes.create len in
  iter_pieces ~addr ~len (fun i off pos n ->
      if is_slice t i then Bytes.blit_string t.slices.(i) (t.offsets.(i) + off) b pos n
      else if is_owned t i then Bytes.blit t.owned.(i) off b pos n
      else Bytes.fill b pos n '\000');
  Bytes.unsafe_to_string b

(* the byte and the eight bytes at offset [off] of page [i] *)
let byte t i off =
  if is_slice t i then String.unsafe_get t.slices.(i) (t.offsets.(i) + off)
  else if is_owned t i then Bytes.unsafe_get t.owned.(i) off
  else '\000'

let word t i off =
  if is_slice t i then String.get_int64_ne t.slices.(i) (t.offsets.(i) + off)
  else if is_owned t i then Bytes.get_int64_ne t.owned.(i) off
  else 0L

(* [n] bytes of page [i] from [off] equal those of [s] from [pos],
   compared eight bytes at a time and then one by one *)
let equal_piece t i off s pos n =
  let k = ref 0 in
  while !k + 8 <= n && Int64.equal (word t i (off + !k)) (String.get_int64_ne s (pos + !k)) do
    k := !k + 8
  done;
  while !k < n && byte t i (off + !k) = s.[pos + !k] do
    incr k
  done;
  !k = n

let equal_range t ~addr s =
  let len = String.length s in
  check t addr len "equal_range";
  let rec go pos =
    pos >= len
    ||
    let a = addr + pos in
    let off = a mod page_size in
    let n = min (len - pos) (page_size - off) in
    equal_piece t (a / page_size) off s pos n && go (pos + n)
  in
  go 0

let source t ~addr ~len =
  check t addr len "source";
  if len = 0 then None
  else begin
    let first = addr / page_size and last = (addr + len - 1) / page_size in
    let s = t.slices.(first) in
    (* an address [a] on a page of the range reads [s.[a + shift]] *)
    let shift = t.offsets.(first) - (first * page_size) in
    let rec continues i =
      i > last
      || (t.slices.(i) == s && t.offsets.(i) - (i * page_size) = shift && continues (i + 1))
    in
    if is_slice t first && continues (first + 1) then Some (s, addr + shift) else None
  end

(* a whole aligned page of [s] becomes a slice of it; any other piece is
   copied into the page's own bytes *)
let write t ~addr s =
  let len = String.length s in
  check t addr len "write";
  iter_pieces ~addr ~len (fun i off pos n ->
      if n = page_size then begin
        t.owned.(i) <- Bytes.empty;
        t.slices.(i) <- s;
        t.offsets.(i) <- pos
      end
      else Bytes.blit_string s pos (owned_page t i) off n)

let get t addr = Char.code (byte t (addr / page_size) (addr mod page_size))
let set t addr v = Bytes.set (owned_page t (addr / page_size)) (addr mod page_size) (Char.chr v)

let read_byte t addr =
  check t addr 1 "read_byte";
  get t addr

let write_byte t addr v =
  check t addr 1 "write_byte";
  set t addr (v land 0xff)

let read_u16_le t addr =
  check t addr 2 "read_u16_le";
  get t addr lor (get t (addr + 1) lsl 8)

let write_u16_le t addr v =
  check t addr 2 "write_u16_le";
  set t addr (v land 0xff);
  set t (addr + 1) ((v lsr 8) land 0xff)

(* a slice zeroed whole becomes unwritten, one zeroed in part is copied
   out first; an owned page is filled in place *)
let zero t ~addr ~len =
  check t addr len "zero";
  iter_pieces ~addr ~len (fun i off _ n ->
      if is_slice t i && n = page_size then t.slices.(i) <- ""
      else if is_slice t i || is_owned t i then Bytes.fill (owned_page t i) off n '\000')

let page_of_addr addr = addr / page_size

let pages_of_range ~addr ~len =
  if len <= 0 then invalid_arg "Memory.pages_of_range: empty range";
  (page_of_addr addr, page_of_addr (addr + len - 1))

(* A match must start with the pattern's first byte. When that byte is
   not zero, no match starts in an unwritten page, so those pages are
   skipped whole; the rest of a candidate is compared byte by byte
   through [get], which reads across page boundaries and reads
   unwritten pages as zeros. *)
let find_pattern t pattern =
  let plen = String.length pattern in
  if plen = 0 then None
  else begin
    let first = Char.code pattern.[0] in
    let limit = size t - plen in
    let rec rest a k = k = plen || (get t (a + k) = Char.code pattern.[k] && rest a (k + 1)) in
    let rec scan a =
      let i = a / page_size in
      if a > limit then None
      else if first <> 0 && a mod page_size = 0 && not (is_slice t i || is_owned t i) then
        scan (a + page_size)
      else if get t a = first && rest a 1 then Some a
      else scan (a + 1)
    in
    scan 0
  end
