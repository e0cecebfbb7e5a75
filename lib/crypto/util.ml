let hex_digit n = "0123456789abcdef".[n]

let to_hex s =
  let b = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let v = Char.code c in
      Bytes.set b (2 * i) (hex_digit (v lsr 4));
      Bytes.set b ((2 * i) + 1) (hex_digit (v land 0xf)))
    s;
  Bytes.unsafe_to_string b

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Util.of_hex: non-hex character"

let of_hex h =
  let n = String.length h in
  if n mod 2 <> 0 then invalid_arg "Util.of_hex: odd length";
  String.init (n / 2) (fun i ->
      Char.chr ((hex_value h.[2 * i] lsl 4) lor hex_value h.[(2 * i) + 1]))

let xor a b =
  if String.length a <> String.length b then
    invalid_arg "Util.xor: length mismatch";
  String.init (String.length a) (fun i ->
      Char.chr (Char.code a.[i] lxor Char.code b.[i]))

let constant_time_equal a b =
  if String.length a <> String.length b then false
  else begin
    let acc = ref 0 in
    for i = 0 to String.length a - 1 do
      acc := !acc lor (Char.code a.[i] lxor Char.code b.[i])
    done;
    !acc = 0
  end

let be32_of_int v =
  String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff))

(* one unboxed load, masked to keep the value unsigned; allocates
   nothing, as every field decoder reads its headers through it *)
let int_of_be32 s off = Int32.to_int (String.get_int32_be s off) land 0xffff_ffff

let be16_of_int v =
  String.init 2 (fun i -> Char.chr ((v lsr (8 * (1 - i))) land 0xff))

let int_of_be16 s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]

let chunks n s =
  if n <= 0 then invalid_arg "Util.chunks: non-positive size";
  let len = String.length s in
  let rec go off acc =
    if off >= len then List.rev acc
    else
      let take = min n (len - off) in
      go (off + take) (String.sub s off take :: acc)
  in
  go 0 []

let pad_left c n s =
  let len = String.length s in
  if len >= n then s else String.make (n - len) c ^ s

let zeroize b = Bytes.fill b 0 (Bytes.length b) '\000'

let field s = be32_of_int (String.length s) ^ s
let encode_fields fields = String.concat "" (List.map field fields)

let decode_fields s =
  let rec go off acc =
    if off = String.length s then Ok (List.rev acc)
    else if off + 4 > String.length s then Error "truncated field header"
    else begin
      let len = int_of_be32 s off in
      if len < 0 || off + 4 + len > String.length s then Error "truncated field"
      else go (off + 4 + len) (String.sub s (off + 4) len :: acc)
    end
  in
  go 0 []
