module Memory = Flicker_hw.Memory

type flavor = Slb_image.flavor = Standard | Optimized

type image = Slb_image.t = private {
  flavor : flavor;
  bytes : string;
  measured_length : int;
  pal_region_off : int;
  pal_region_len : int;
  memo : Slb_image.memo option Atomic.t;
}

let linked ~flavor pal =
  match flavor with Standard -> pal.Pal.standard | Optimized -> pal.Pal.optimized

let build ?(flavor = Standard) pal =
  match linked ~flavor pal with Ok image -> image | Error msg -> invalid_arg msg

let initialize image ~slb_base =
  let b = Bytes.of_string image.bytes in
  Slb_core.patch b ~slb_base;
  Bytes.unsafe_to_string b

let holds_pal_code ~flavor memory ~slb_base code =
  let len = String.length code in
  slb_base >= 0
  && slb_base + Layout.slb_size <= Memory.size memory
  &&
  let off, named, limit =
    match flavor with
    | Optimized ->
        (* the inner header right after the measured stub carries the
           PAL length *)
        ( Slb_core.stub_size + 2,
          Memory.read_u16_le memory (slb_base + Slb_core.stub_size),
          Layout.slb_size )
    | Standard ->
        (* the SLB header's length covers the header, the core and the PAL *)
        let off = Layout.header_size + Slb_core.core_size in
        (off, Memory.read_u16_le memory slb_base - off, Layout.pal_region_end)
  in
  named = len && off + len <= limit && Memory.equal_range memory ~addr:(slb_base + off) code

let slb_sizes pal =
  let std = build ~flavor:Standard pal in
  let opt = build ~flavor:Optimized pal in
  (std.measured_length, opt.measured_length)
