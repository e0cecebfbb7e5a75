(* DigestInfo prefixes from RFC 3447 section 9.2, binding the hash
   algorithm identity into the signature. *)
let digest_info_prefix = function
  | Hash.SHA1 -> Util.of_hex "3021300906052b0e03021a05000414"
  | Hash.SHA256 -> Util.of_hex "3031300d060960864801650304020105000420"
  | Hash.MD5 -> Util.of_hex "3020300c06082a864886f70d020505000410"

let max_message_bytes pub = Rsa.key_bytes pub - 11

let encrypt rng pub msg =
  let k = Rsa.key_bytes pub in
  if String.length msg > k - 11 then invalid_arg "Pkcs1.encrypt: message too long";
  let ps_len = k - 3 - String.length msg in
  (* PS must be nonzero random bytes *)
  let ps =
    String.init ps_len (fun _ ->
        let rec nonzero () =
          let b = Prng.byte rng in
          if b = 0 then nonzero () else b
        in
        Char.chr (nonzero ()))
  in
  let em = "\x00\x02" ^ ps ^ "\x00" ^ msg in
  let c = Rsa.encrypt_raw pub (Bignum.of_bytes_be em) in
  Bignum.to_bytes_be ~pad_to:k c

let decrypt key ciphertext =
  let k = Rsa.key_bytes key.Rsa.pub in
  if String.length ciphertext <> k then Error "ciphertext length mismatch"
  else begin
    let m = Rsa.decrypt_raw key (Bignum.of_bytes_be ciphertext) in
    let em = Bignum.to_bytes_be ~pad_to:k m in
    if String.length em < 11 || em.[0] <> '\x00' || em.[1] <> '\x02' then
      Error "bad padding"
    else begin
      match String.index_from_opt em 2 '\x00' with
      | None -> Error "bad padding"
      | Some sep when sep < 10 -> Error "bad padding" (* PS must be >= 8 bytes *)
      | Some sep -> Ok (String.sub em (sep + 1) (String.length em - sep - 1))
    end
  end

let emsa_encode alg k msg =
  let t = digest_info_prefix alg ^ Hash.digest alg msg in
  if k < String.length t + 11 then invalid_arg "Pkcs1.sign: key too small for digest";
  "\x00\x01" ^ String.make (k - String.length t - 3) '\xff' ^ "\x00" ^ t

let sign key alg msg =
  let k = Rsa.key_bytes key.Rsa.pub in
  let em = emsa_encode alg k msg in
  Bignum.to_bytes_be ~pad_to:k (Rsa.decrypt_raw key (Bignum.of_bytes_be em))

let verify pub alg ~msg ~signature =
  let k = Rsa.key_bytes pub in
  if String.length signature <> k then false
  else begin
    let s = Bignum.of_bytes_be signature in
    if Bignum.compare s pub.Rsa.n >= 0 then false
    else begin
      let em = Bignum.to_bytes_be ~pad_to:k (Rsa.encrypt_raw pub s) in
      match emsa_encode alg k msg with
      | expected -> Util.constant_time_equal em expected
      | exception Invalid_argument _ -> false
    end
  end
