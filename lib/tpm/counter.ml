type counter = { label : string; mutable value : int }
type t = { counters : (int, counter) Hashtbl.t; mutable next_handle : int }

let create () = { counters = Hashtbl.create 4; next_handle = 1 }

let create_counter t ~label =
  let handle = t.next_handle in
  t.next_handle <- handle + 1;
  Hashtbl.replace t.counters handle { label; value = 0 };
  handle

let with_counter t handle f =
  match Hashtbl.find_opt t.counters handle with
  | None -> Error Tpm_types.Bad_index
  | Some c -> Ok (f c)

let increment t ~handle =
  with_counter t handle (fun c ->
      c.value <- c.value + 1;
      c.value)

let read t ~handle = with_counter t handle (fun c -> c.value)
