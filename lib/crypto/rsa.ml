type public = { n : Bignum.t; e : Bignum.t }

type private_key = {
  pub : public;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;
  dq : Bignum.t;
  qinv : Bignum.t;
}

let generate rng ~bits =
  if bits < 16 then invalid_arg "Rsa.generate: modulus too small";
  let open Bignum in
  let e_big = of_int 65537 in
  let p_bits = (bits + 1) / 2 in
  let q_bits = bits - p_bits in
  let rec attempt () =
    let p = Primality.generate_prime rng ~bits:p_bits in
    let q = Primality.generate_prime rng ~bits:q_bits in
    if equal p q then attempt ()
    else begin
      let n = mul p q in
      if bit_length n <> bits then attempt ()
      else begin
        let p1 = sub p one and q1 = sub q one in
        let phi = mul p1 q1 in
        match mod_inverse e_big phi with
        | None -> attempt ()
        | Some d ->
            (match mod_inverse q p with
            | None -> attempt () (* impossible for distinct primes, but be safe *)
            | Some qinv ->
                {
                  pub = { n; e = e_big };
                  d;
                  p;
                  q;
                  dp = rem d p1;
                  dq = rem d q1;
                  qinv;
                })
      end
    end
  in
  attempt ()

let key_bytes pub = (Bignum.bit_length pub.n + 7) / 8

let public_equal a b = a == b || (Bignum.equal a.n b.n && Bignum.equal a.e b.e)

let encrypt_raw pub m =
  if Bignum.compare m pub.n >= 0 then invalid_arg "Rsa.encrypt_raw: message too large";
  Bignum.mod_pow ~base:m ~exp:pub.e ~modulus:pub.n

let decrypt_raw key c =
  if Bignum.compare c key.pub.n >= 0 then invalid_arg "Rsa.decrypt_raw: ciphertext too large";
  let open Bignum in
  (* CRT: m1 = c^dp mod p, m2 = c^dq mod q, h = qinv*(m1-m2) mod p *)
  let m1 = mod_pow ~base:(rem c key.p) ~exp:key.dp ~modulus:key.p in
  let m2 = mod_pow ~base:(rem c key.q) ~exp:key.dq ~modulus:key.q in
  let diff = if compare m1 m2 >= 0 then sub m1 m2 else sub (add m1 key.p) (rem m2 key.p) in
  let h = rem (mul key.qinv diff) key.p in
  add m2 (mul h key.q)

(* keys are Util.encode_fields lists of big-endian integers; the
   encoders join Util.field strings themselves, so a key on the signing
   path is encoded without building the list encode_fields takes *)
let fields_of_string s =
  match Util.decode_fields s with
  | Ok fields -> fields
  | Error msg -> invalid_arg ("Rsa: " ^ msg)

let public_to_string pub =
  Util.field (Bignum.to_bytes_be pub.n) ^ Util.field (Bignum.to_bytes_be pub.e)

let public_of_string s =
  match fields_of_string s with
  | [ n; e ] -> { n = Bignum.of_bytes_be n; e = Bignum.of_bytes_be e }
  | _ -> invalid_arg "Rsa.public_of_string: malformed"

let private_to_string key =
  String.concat ""
    (List.map
       (fun v -> Util.field (Bignum.to_bytes_be v))
       [ key.pub.n; key.pub.e; key.d; key.p; key.q; key.dp; key.dq; key.qinv ])

let private_of_string s =
  match List.map Bignum.of_bytes_be (fields_of_string s) with
  | [ n; e; d; p; q; dp; dq; qinv ] -> { pub = { n; e }; d; p; q; dp; dq; qinv }
  | _ -> invalid_arg "Rsa.private_of_string: malformed"
