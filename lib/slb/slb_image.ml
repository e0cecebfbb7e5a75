type flavor = Standard | Optimized

type memo = { slb_base : int; initialized : string; measured : string; window : string }

type t = {
  flavor : flavor;
  bytes : string;
  measured_length : int;
  pal_region_off : int;
  pal_region_len : int;
  memo : memo option Atomic.t;
}

let le16 v = String.init 2 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))
let header ~length ~entry = le16 length ^ le16 entry

(* the parts laid end to end from offset 0, zero-padded to the window *)
let window parts =
  let b = Bytes.make Layout.slb_size '\000' in
  ignore
    (List.fold_left
       (fun off s ->
         Bytes.blit_string s 0 b off (String.length s);
         off + String.length s)
       0 parts);
  Bytes.unsafe_to_string b

(* where the PAL region starts; the optimized flavor's inner header is
   the u16 PAL length right after the measured stub *)
let pal_region_off = function
  | Standard -> Layout.header_size + Slb_core.core_size
  | Optimized -> Slb_core.stub_size + 2

let capacity flavor = Layout.pal_region_end - pal_region_off flavor

let link flavor pal_code =
  let pal_region_off = pal_region_off flavor in
  let pal_region_len = String.length pal_code in
  if pal_region_len > capacity flavor then
    Error
      (match flavor with
      | Standard -> "Builder.build: PAL too large for the standard SLB"
      | Optimized -> "Builder.build: PAL too large for the optimized SLB")
  else
    let measured_length, parts =
      match flavor with
      | Standard ->
          let measured_length = pal_region_off + pal_region_len in
          ( measured_length,
            [ header ~length:measured_length ~entry:Layout.header_size; Slb_core.code; pal_code ] )
      | Optimized ->
          ( Slb_core.stub_size,
            [
              header ~length:Slb_core.stub_size ~entry:Layout.header_size;
              Slb_core.stub_code;
              le16 pal_region_len;
              pal_code;
            ] )
    in
    Ok
      {
        flavor;
        bytes = window parts;
        measured_length;
        pal_region_off;
        pal_region_len;
        memo = Atomic.make None;
      }
