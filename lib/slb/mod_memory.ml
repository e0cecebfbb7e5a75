type block = { off : int; size : int; mutable free : bool }
type t = { buf : Bytes.t; mutable blocks : block list (* sorted by offset *) }

let create ~size =
  if size <= 0 then invalid_arg "Mod_memory.create: non-positive size";
  { buf = Bytes.make size '\000'; blocks = [ { off = 0; size; free = true } ] }

(* first fit with split *)
let malloc t n =
  if n < 0 then invalid_arg "Mod_memory.malloc: negative size";
  let want = max n 1 in
  let rec fit = function
    | [] -> None
    | b :: rest ->
        if b.free && b.size >= want then Some (b, rest) else fit rest
  in
  match fit t.blocks with
  | None -> None
  | Some (b, _) ->
      b.free <- false;
      if b.size > want then begin
        let leftover = { off = b.off + want; size = b.size - want; free = true } in
        let shrunk = { b with size = want; free = false } in
        t.blocks <-
          List.concat_map
            (fun blk -> if blk == b then [ shrunk; leftover ] else [ blk ])
            t.blocks;
        Some shrunk.off
      end
      else Some b.off

let find_allocated t off =
  List.find_opt (fun b -> b.off = off && not b.free) t.blocks

let coalesce t =
  let rec merge = function
    | a :: b :: rest when a.free && b.free ->
        merge ({ off = a.off; size = a.size + b.size; free = true } :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  t.blocks <- merge t.blocks

let free t off =
  match find_allocated t off with
  | None -> invalid_arg "Mod_memory.free: not an allocated block"
  | Some b ->
      (* wipe on free: PAL heaps hold secrets *)
      Bytes.fill t.buf b.off b.size '\000';
      t.blocks <-
        List.map (fun blk -> if blk == b then { blk with free = true } else blk) t.blocks;
      coalesce t

let read t ~off ~len =
  match List.find_opt (fun b -> (not b.free) && off >= b.off && off + len <= b.off + b.size) t.blocks with
  | Some _ -> Bytes.sub_string t.buf off len
  | None -> invalid_arg "Mod_memory.read: outside any allocated block"

let write t ~off data =
  let len = String.length data in
  match List.find_opt (fun b -> (not b.free) && off >= b.off && off + len <= b.off + b.size) t.blocks with
  | Some _ -> Bytes.blit_string data 0 t.buf off len
  | None -> invalid_arg "Mod_memory.write: outside any allocated block"

let block_size t off =
  Option.map (fun b -> b.size) (find_allocated t off)

let realloc t off n =
  match find_allocated t off with
  | None -> invalid_arg "Mod_memory.realloc: not an allocated block"
  | Some b ->
      if n <= b.size then Some off
      else begin
        match malloc t n with
        | None -> None
        | Some noff ->
            Bytes.blit t.buf b.off t.buf noff b.size;
            free t off;
            Some noff
      end

let allocated_bytes t =
  List.fold_left (fun acc b -> if b.free then acc else acc + b.size) 0 t.blocks
