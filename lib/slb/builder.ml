type flavor = Standard | Optimized

type image = {
  flavor : flavor;
  bytes : string;
  measured_length : int;
  pal_region_off : int;
  pal_region_len : int;
}

let le16 v = String.init 2 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

let header ~length ~entry = le16 length ^ le16 entry

let pad_to size s =
  if String.length s > size then invalid_arg "Builder: image larger than the SLB window";
  s ^ String.make (size - String.length s) '\000'

let build ?(flavor = Standard) pal =
  let pal_code = pal.Pal.code in
  match flavor with
  | Standard ->
      let measured_length =
        Layout.header_size + Slb_core.core_size + String.length pal_code
      in
      if measured_length > Layout.pal_region_end then
        invalid_arg "Builder.build: PAL too large for the standard SLB";
      let body =
        header ~length:measured_length ~entry:Layout.header_size
        ^ Slb_core.code ^ pal_code
      in
      {
        flavor;
        bytes = pad_to Layout.slb_size body;
        measured_length;
        pal_region_off = Layout.header_size + Slb_core.core_size;
        pal_region_len = String.length pal_code;
      }
  | Optimized ->
      (* inner header: u16 PAL length right after the measured stub *)
      let pal_region_off = Slb_core.stub_size + 2 in
      if pal_region_off + String.length pal_code > Layout.pal_region_end then
        invalid_arg "Builder.build: PAL too large for the optimized SLB";
      if String.length pal_code > 0xFFFF then
        invalid_arg "Builder.build: PAL exceeds the inner length field";
      let body =
        header ~length:Slb_core.stub_size ~entry:Layout.header_size
        ^ Slb_core.stub_code
        ^ le16 (String.length pal_code)
        ^ pal_code
      in
      {
        flavor;
        bytes = pad_to Layout.slb_size body;
        measured_length = Slb_core.stub_size;
        pal_region_off;
        pal_region_len = String.length pal_code;
      }

let initialize image ~slb_base =
  let b = Bytes.of_string image.bytes in
  Slb_core.patch b ~slb_base;
  Bytes.unsafe_to_string b

let read_le16 s off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8)

let pal_code_of_window ~flavor window =
  if String.length window <> Layout.slb_size then
    Error "window must be exactly 64 KB"
  else
    match flavor with
    | Optimized ->
        (* the inner header right after the measured stub carries the
           PAL length *)
        let inner_len = read_le16 window Slb_core.stub_size in
        let off = Slb_core.stub_size + 2 in
        if off + inner_len > String.length window then Error "corrupt inner header"
        else Ok (String.sub window off inner_len)
    | Standard ->
        let measured = read_le16 window 0 in
        let off = Layout.header_size + Slb_core.core_size in
        if measured < off || measured > Layout.pal_region_end then
          Error "corrupt SLB header"
        else Ok (String.sub window off (measured - off))

let slb_sizes pal =
  let std = build ~flavor:Standard pal in
  let opt = build ~flavor:Optimized pal in
  (std.measured_length, opt.measured_length)
