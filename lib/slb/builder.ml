module Memory = Flicker_hw.Memory

type flavor = Slb_image.flavor = Standard | Optimized

type image = Slb_image.t = private {
  flavor : flavor;
  bytes : string;
  measured_length : int;
  pal_region_off : int;
  pal_region_len : int;
}

let build ?(flavor = Standard) pal =
  let held = match flavor with Standard -> pal.Pal.standard | Optimized -> pal.Pal.optimized in
  match held with Ok image -> image | Error msg -> invalid_arg msg

let initialize image ~slb_base =
  let b = Bytes.of_string image.bytes in
  Slb_core.patch b ~slb_base;
  Bytes.unsafe_to_string b

let pal_code_in_memory ~flavor memory ~slb_base =
  if slb_base < 0 || slb_base + Layout.slb_size > Memory.size memory then
    Error "window outside memory"
  else
    let code off len = Ok (Memory.read memory ~addr:(slb_base + off) ~len) in
    match flavor with
    | Optimized ->
        (* the inner header right after the measured stub carries the
           PAL length *)
        let len = Memory.read_u16_le memory (slb_base + Slb_core.stub_size) in
        let off = Slb_core.stub_size + 2 in
        if off + len > Layout.slb_size then Error "corrupt inner header" else code off len
    | Standard ->
        let measured = Memory.read_u16_le memory slb_base in
        let off = Layout.header_size + Slb_core.core_size in
        if measured < off || measured > Layout.pal_region_end then
          Error "corrupt SLB header"
        else code off (measured - off)

let slb_sizes pal =
  let std = build ~flavor:Standard pal in
  let opt = build ~flavor:Optimized pal in
  (std.measured_length, opt.measured_length)
