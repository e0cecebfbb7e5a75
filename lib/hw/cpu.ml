type role = Bsp | Ap
type run_state = Running | Descheduled | Wait_for_sipi
type mode = Long_mode | Flat_protected
type segment = { base : int; limit : int }

type core = {
  id : int;
  role : role;
  mutable run_state : run_state;
  mutable ring : int;
  mutable interrupts_enabled : bool;
  mutable mode : mode;
  mutable paging_enabled : bool;
  mutable cr3 : int;
  mutable cs : segment;
  mutable ds : segment;
  mutable ss : segment;
  mutable debug_enabled : bool;
}

type t = core array

let make_core id role =
  let seg = { base = 0; limit = max_int } in
  {
    id;
    role;
    run_state = Running;
    ring = 0;
    interrupts_enabled = true;
    mode = Long_mode;
    paging_enabled = true;
    cr3 = 0;
    cs = seg;
    ds = seg;
    ss = seg;
    debug_enabled = true;
  }

let create ~cores =
  if cores < 1 then invalid_arg "Cpu.create: need at least one core";
  Array.init cores (fun i -> make_core i (if i = 0 then Bsp else Ap))

let bsp t = t.(0)
let aps t = List.tl (Array.to_list t)
let all t = Array.to_list t

let flat_segment size = { base = 0; limit = size - 1 }

let segment_contains seg ~addr ~len =
  len >= 0 && addr >= 0 && (len = 0 || addr + len - 1 <= seg.limit)

let all_aps_parked t =
  List.for_all (fun c -> c.run_state = Wait_for_sipi) (aps t)
