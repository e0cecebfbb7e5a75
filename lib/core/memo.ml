module Sha1 = Flicker_crypto.Sha1

type stats = { hits : int; misses : int; bytes_saved : int }

let limit = 1024

(* A key is inserted only when it is absent, so the order queue holds
   exactly the table's keys. *)
module Make (K : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (K)

  type 'v t = {
    run : K.t -> 'v;
    table : ('v * int) Tbl.t;  (* key -> (verdict, bytes cost) *)
    order : K.t Queue.t;  (* insertion order, oldest first *)
    mutable hits : int;
    mutable misses : int;
    mutable saved : int;
  }

  let create run =
    { run; table = Tbl.create 64; order = Queue.create (); hits = 0; misses = 0; saved = 0 }

  let find m key =
    match Tbl.find_opt m.table key with
    | Some (verdict, cost) ->
        m.hits <- m.hits + 1;
        m.saved <- m.saved + cost;
        verdict
    | None ->
        m.misses <- m.misses + 1;
        let before = Sha1.bytes_hashed () in
        let verdict = m.run key in
        let cost = Sha1.bytes_hashed () - before in
        if Tbl.length m.table >= limit then Tbl.remove m.table (Queue.take m.order);
        Tbl.replace m.table key (verdict, cost);
        Queue.add key m.order;
        verdict

  let stats m = { hits = m.hits; misses = m.misses; bytes_saved = m.saved }
end

let hash_prefix seed s =
  let h = ref seed in
  for i = 0 to min 8 (String.length s) - 1 do
    h := (!h * 31) + Char.code s.[i]
  done;
  !h land max_int
