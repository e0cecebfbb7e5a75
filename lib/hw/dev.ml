module Event = Flicker_verify.Event

type t = { bits : Bytes.t; pages : int; mutable notify : (Event.t -> unit) option }

let create ~pages =
  if pages <= 0 then invalid_arg "Dev.create: need at least one page";
  { bits = Bytes.make ((pages + 7) / 8) '\000'; pages; notify = None }

let set_notify t f = t.notify <- Some f
let notice t c = match t.notify with Some f -> f c | None -> ()

let check t page =
  if page < 0 || page >= t.pages then invalid_arg "Dev: page out of range"

let set t page v =
  check t page;
  let byte = Char.code (Bytes.get t.bits (page / 8)) in
  let mask = 1 lsl (page mod 8) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.set t.bits (page / 8) (Char.chr byte)

let is_page_protected t page =
  check t page;
  Char.code (Bytes.get t.bits (page / 8)) land (1 lsl (page mod 8)) <> 0

let iter_range t ~addr ~len f =
  if len > 0 then begin
    let first, last = Memory.pages_of_range ~addr ~len in
    for page = first to min last (t.pages - 1) do
      f page
    done
  end

let protect_range t ~addr ~len =
  iter_range t ~addr ~len (fun p -> set t p true);
  if len > 0 then notice t (Event.Dev_protect { addr; len })

let unprotect_range t ~addr ~len =
  iter_range t ~addr ~len (fun p -> set t p false);
  if len > 0 then notice t (Event.Dev_unprotect { addr; len })

let clear t =
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
  notice t Event.Dev_clear

let allows t ~addr ~len =
  if len <= 0 then true
  else begin
    let first, last = Memory.pages_of_range ~addr ~len in
    (* pages beyond the bitmap are permanently protected (fail closed) *)
    let rec go p = p > last || (p < t.pages && not (is_page_protected t p) && go (p + 1)) in
    go first
  end

let protected_pages t =
  List.filter (is_page_protected t) (List.init t.pages Fun.id)
