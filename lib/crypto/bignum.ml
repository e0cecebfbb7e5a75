(* Little-endian arrays of 30-bit limbs. With B = 2^30, a product of two
   limbs is below 2^60, and every intermediate sum in this module stays
   under 2^62 (OCaml's native int holds up to 2^62 - 1), so no boxed
   arithmetic is needed anywhere; each kernel states its own bound.
   Values are normalized: no trailing zero limbs, and zero is the empty
   array. *)

let limb_bits = 30
let base = 1 lsl limb_bits
let mask = base - 1

type t = int array

let zero : t = [||]
let is_zero a = Array.length a = 0

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int v =
  if v < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs v acc = if v = 0 then List.rev acc else limbs (v lsr limb_bits) ((v land mask) :: acc) in
  Array.of_list (limbs v [])

let one = of_int 1
let two = of_int 2

let to_int a =
  let n = Array.length a in
  if n * limb_bits > 62 && n > 0 then begin
    (* may still fit: check the top limbs *)
    let v = ref 0 in
    for i = n - 1 downto 0 do
      if !v > (max_int - a.(i)) lsr limb_bits then failwith "Bignum.to_int: overflow";
      v := (!v lsl limb_bits) lor a.(i)
    done;
    !v
  end
  else begin
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl limb_bits) lor a.(i)
    done;
    !v
  end

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0
let is_even a = Array.length a = 0 || a.(0) land 1 = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  r.(n) <- !carry;
  normalize r

let sub a b =
  let la = Array.length a and lb = Array.length b in
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

(* A row term [r.(i+j) + a.(i)*b.(j) + carry] is at most
   (B-1) + (B-1)^2 + (B-1) = B^2 - 1 < 2^60, so every carry stays below B. *)
let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let p = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- p land mask;
        carry := p lsr limb_bits
      done;
      r.(i + lb) <- r.(i + lb) + !carry
    done;
    normalize r
  end

let add_int a v = add a (of_int v)
let mul_int a v = mul a (of_int v)

(* Division of the limb array [a] by a single positive limb-sized int,
   returning the quotient array (not normalized) and the remainder. The
   remainder stays below [d < B], so [cur] is below 2^60. *)
let divmod_small a d =
  if d <= 0 then raise Division_by_zero;
  let n = Array.length a in
  let q = Array.make n 0 in
  let r = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, !r)

(* [(x + y) mod d] for [x, y < d], without forming a value above [d]: the
   plain sum overflows once [d] passes [max_int / 2]. *)
let add_mod x y d = if x >= d - y then x - (d - y) else x + y

let rem_int a d =
  if d <= 0 then raise Division_by_zero;
  if d < base then begin
    (* one-limb modulus: [r < d < 2^30], so [r*2^30 + limb] is below 2^60 *)
    let r = ref 0 in
    for i = Array.length a - 1 downto 0 do
      r := ((!r lsl limb_bits) lor a.(i)) mod d
    done;
    !r
  end
  else begin
    (* Modulus wider than one limb: (r*2^30 + limb) may overflow, so
       double-and-reduce bit by bit. Each limb is below [d] here. *)
    let r = ref 0 in
    for i = Array.length a - 1 downto 0 do
      for _ = 1 to limb_bits do
        r := add_mod !r !r d
      done;
      r := add_mod !r a.(i) d
    done;
    !r
  end

let shift_left a bits =
  if bits < 0 then invalid_arg "Bignum.shift_left";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land mask);
      r.(i + limb_shift + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let shift_right a bits =
  if bits < 0 then invalid_arg "Bignum.shift_right";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let n = la - limb_shift in
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= la then 0
          else (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + width top 0
  end

let test_bit a i =
  let limb = i / limb_bits and bit = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr bit) land 1 = 1

(* Knuth Algorithm D. After normalization the divisor's top limb is at
   least 2^29, so [top] (two limbs) is below 2^60 and [qhat] below 2^31.
   The test [qhat*v.(n-2) > (rhat lsl 30) lor u] compares two values
   below 2^61: [rhat < B] whenever it is evaluated. A multiply-subtract
   term [qhat*v.(i) + carry] stays below 2^61 + 2^31. *)
let divmod a b =
  let lb = Array.length b in
  if lb = 0 then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if lb = 1 then begin
    let q, r = divmod_small a b.(0) in
    (q, of_int r)
  end
  else begin
    (* Normalize so the top limb of the divisor is >= base/2. *)
    let shift =
      let rec go v acc = if v >= base / 2 then acc else go (v lsl 1) (acc + 1) in
      go b.(lb - 1) 0
    in
    let u_arr = shift_left a shift and v_arr = shift_left b shift in
    let n = Array.length v_arr in
    let m = Array.length u_arr - n in
    (* Working copy of the dividend with one extra high limb. *)
    let u = Array.make (Array.length u_arr + 1) 0 in
    Array.blit u_arr 0 u 0 (Array.length u_arr);
    let v = v_arr in
    let q = Array.make (m + 1) 0 in
    for j = m downto 0 do
      let top = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
      let qhat = ref (top / v.(n - 1)) and rhat = ref (top mod v.(n - 1)) in
      let continue = ref true in
      while !continue do
        if
          !qhat >= base
          || (n >= 2 && !qhat * v.(n - 2) > (!rhat lsl limb_bits) lor u.(j + n - 2))
        then begin
          decr qhat;
          rhat := !rhat + v.(n - 1);
          if !rhat >= base then continue := false
        end
        else continue := false
      done;
      (* u[j..j+n] -= qhat * v *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr limb_bits;
        let d = u.(j + i) - (p land mask) - !borrow in
        if d < 0 then begin
          u.(j + i) <- d + base;
          borrow := 1
        end
        else begin
          u.(j + i) <- d;
          borrow := 0
        end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add the divisor back. *)
        u.(j + n) <- d + base;
        decr qhat;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(j + i) + v.(i) + !carry in
          u.(j + i) <- s land mask;
          carry := s lsr limb_bits
        done;
        u.(j + n) <- (u.(j + n) + !carry) land mask
      end
      else u.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub u 0 n) in
    (normalize q, shift_right r shift)
  end

let rem a b = snd (divmod a b)

(* Montgomery arithmetic modulo an odd [m] of [n] limbs, with R = 2^(30n).
   Values in Montgomery form are fixed-width arrays of [n] limbs holding
   [x*R mod m], always below [m]. *)

(* [-m0^-1 mod 2^30] for odd [m0], by Newton's iteration: [m0] is its own
   inverse mod 8 and each step doubles the number of correct low bits, so
   four steps give 3 -> 48 >= 30 bits (three would give only 24).
   Products wrap mod 2^63, which keeps the low 30 bits exact. *)
let neg_inv_limb m0 =
  let x = ref m0 in
  for _ = 1 to 4 do
    x := !x * (2 - (m0 * !x)) land mask
  done;
  (base - !x) land mask

(* [r <- a*b*R^-1 mod m] by CIOS with the multiply and reduce rows fused:
   each row adds [a*b.(i) + u*m] to the accumulator [t] (n+1 limbs of
   scratch), where [u] makes its low limb zero, and shifts it down one
   limb. A row term [t.(j) + a.(j)*b.(i) + u*m.(j) + c] is at most
   (B-1) + 2(B-1)^2 + (2B-1) < 2B^2 = 2^61 when the carry [c] is below
   2B, and its carry out is then below 2B again; so carries propagate
   within the row and no term reaches 2^62. [t] ends below 2m, and one
   conditional subtraction reduces it. [r] may alias [a] or [b]: it is
   written only after the last row. The lengths are checked once here,
   so every index in the rows is in range and skips the bounds check.
   @raise Invalid_argument if [m] is empty or [t], [a], [b] or [r] is
   too short. *)
let mont_mul m minv t a b r =
  let n = Array.length m in
  if
    n = 0
    || Array.length t < n + 1
    || Array.length a < n
    || Array.length b < n
    || Array.length r < n
  then invalid_arg "Bignum.mont_mul";
  Array.fill t 0 (n + 1) 0;
  for i = 0 to n - 1 do
    let bi = Array.unsafe_get b i in
    let s = Array.unsafe_get t 0 + (Array.unsafe_get a 0 * bi) in
    let u = (s land mask) * minv land mask in
    let c = ref ((s + (u * Array.unsafe_get m 0)) lsr limb_bits) in
    for j = 1 to n - 1 do
      let s =
        Array.unsafe_get t j + (Array.unsafe_get a j * bi) + (u * Array.unsafe_get m j) + !c
      in
      Array.unsafe_set t (j - 1) (s land mask);
      c := s lsr limb_bits
    done;
    let s = Array.unsafe_get t n + !c in
    Array.unsafe_set t (n - 1) (s land mask);
    Array.unsafe_set t n (s lsr limb_bits)
  done;
  let i = ref (n - 1) in
  while !i >= 0 && t.(!i) = m.(!i) do
    decr i
  done;
  if t.(n) > 0 || !i < 0 || t.(!i) > m.(!i) then begin
    let borrow = ref 0 in
    for j = 0 to n - 1 do
      let d = t.(j) - m.(j) - !borrow in
      r.(j) <- d land mask;
      borrow := if d < 0 then 1 else 0
    done
  end
  else Array.blit t 0 r 0 n

(* Window width for an exponent of [nbits] bits. Short exponents such as
   e = 65537 go bit by bit, where a table would cost more than it saves. *)
let window_bits nbits =
  if nbits <= 32 then 1 else if nbits <= 128 then 3 else if nbits <= 512 then 4 else 5

(* Bits [pos, pos+w) of [e] as an int. *)
let window e pos w =
  let d = ref 0 in
  for j = w - 1 downto 0 do
    d := (!d lsl 1) lor if test_bit e (pos + j) then 1 else 0
  done;
  !d

(* Left-to-right fixed-window exponentiation in Montgomery form. *)
let mont_pow b exp m =
  let n = Array.length m in
  let minv = neg_inv_limb m.(0) in
  let widen v =
    let r = Array.make n 0 in
    Array.blit v 0 r 0 (Array.length v);
    r
  in
  let t = Array.make (n + 1) 0 in
  let x = widen (rem (shift_left b (limb_bits * n)) m) in
  let nbits = bit_length exp in
  let w = window_bits nbits in
  (* table.(i) = b^i in Montgomery form; entry 0 is never read *)
  let table = Array.make (1 lsl w) x in
  for i = 2 to (1 lsl w) - 1 do
    let r = Array.make n 0 in
    mont_mul m minv t table.(i - 1) x r;
    table.(i) <- r
  done;
  let windows = (nbits + w - 1) / w in
  (* the top window holds the exponent's top bit, so it is nonzero *)
  let acc = Array.copy table.(window exp ((windows - 1) * w) w) in
  for k = windows - 2 downto 0 do
    for _ = 1 to w do
      mont_mul m minv t acc acc acc
    done;
    let d = window exp (k * w) w in
    if d > 0 then mont_mul m minv t acc table.(d) acc
  done;
  mont_mul m minv t acc (widen one) acc;
  normalize acc

let mod_pow ~base:b ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else if is_zero exp then one
  else if not (is_even modulus) then mont_pow b exp modulus
  else begin
    (* Montgomery reduction needs an odd modulus: square-and-multiply *)
    let b = rem b modulus in
    let result = ref one and acc = ref b in
    let nbits = bit_length exp in
    for i = 0 to nbits - 1 do
      if test_bit exp i then result := rem (mul !result !acc) modulus;
      if i < nbits - 1 then acc := rem (mul !acc !acc) modulus
    done;
    !result
  end

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

(* Extended Euclid over naturals, tracking the sign of the Bezout
   coefficient for [a] explicitly. *)
let mod_inverse a m =
  if is_zero m then invalid_arg "Bignum.mod_inverse: zero modulus";
  let a = rem a m in
  if is_zero a then None
  else begin
    (* Invariants: r0 = x0*a (mod m), r1 = x1*a (mod m), with signs s0, s1. *)
    let rec go r0 x0 s0 r1 x1 s1 =
      if is_zero r1 then
        if equal r0 one then
          Some (if s0 >= 0 then rem x0 m else sub m (rem x0 m))
        else None
      else begin
        let q, r2 = divmod r0 r1 in
        (* x2 = x0 - q*x1 with sign bookkeeping *)
        let qx1 = mul q x1 in
        let x2, s2 =
          if s0 = s1 then
            if compare x0 qx1 >= 0 then (sub x0 qx1, s0) else (sub qx1 x0, -s0)
          else (add x0 qx1, s0)
        in
        go r1 x1 s1 r2 x2 s2
      end
    in
    match go m zero 1 a one 1 with
    | Some x when is_zero x -> Some zero
    | other -> other
  end

(* Byte [k] (from the least significant end) covers bits [8k, 8k+8), which
   start at bit [8k mod 30] of limb [8k / 30] and spill into the next limb
   when that offset is above 22. The offset is always even, so the
   offsets that spill are 24, 26 and 28. *)
let of_bytes_be s =
  let len = String.length s in
  let r = Array.make (((8 * len) + limb_bits - 1) / limb_bits) 0 in
  for k = 0 to len - 1 do
    let byte = Char.code s.[len - 1 - k] in
    let limb = 8 * k / limb_bits and off = 8 * k mod limb_bits in
    r.(limb) <- r.(limb) lor ((byte lsl off) land mask);
    if off > limb_bits - 8 then r.(limb + 1) <- r.(limb + 1) lor (byte lsr (limb_bits - off))
  done;
  normalize r

let to_bytes_be ?(pad_to = 0) a =
  let nbytes = max pad_to ((bit_length a + 7) / 8) in
  let n = Array.length a in
  String.init nbytes (fun i ->
      let k = nbytes - 1 - i in
      let limb = 8 * k / limb_bits and off = 8 * k mod limb_bits in
      if limb >= n then '\000'
      else begin
        let hi =
          if off > limb_bits - 8 && limb + 1 < n then a.(limb + 1) lsl (limb_bits - off) else 0
        in
        Char.chr (((a.(limb) lsr off) lor hi) land 0xff)
      end)

let of_hex h =
  let h = if String.length h mod 2 = 1 then "0" ^ h else h in
  of_bytes_be (Util.of_hex h)

let to_hex a = if is_zero a then "00" else Util.to_hex (to_bytes_be a)

let of_decimal_string s =
  if String.length s = 0 then invalid_arg "Bignum.of_decimal_string: empty";
  let r = ref zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> r := add_int (mul_int !r 10) (Char.code c - Char.code '0')
      | _ -> invalid_arg "Bignum.of_decimal_string: non-digit")
    s;
  !r

let to_decimal_string a =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go v =
      if not (is_zero v) then begin
        let q, r = divmod_small v 10 in
        Buffer.add_char buf (Char.chr (Char.code '0' + r));
        go q
      end
    in
    go a;
    let s = Buffer.contents buf in
    String.init (String.length s) (fun i -> s.[String.length s - 1 - i])
  end

let random_bits rand nbits =
  if nbits <= 0 then zero
  else begin
    let nbytes = (nbits + 7) / 8 in
    let v = of_bytes_be (rand nbytes) in
    let excess = (nbytes * 8) - nbits in
    if excess = 0 then v else shift_right v excess
  end

let random_below rand n =
  if is_zero n then invalid_arg "Bignum.random_below: zero bound";
  let nbits = bit_length n in
  let rec draw () =
    let v = random_bits rand nbits in
    if compare v n < 0 then v else draw ()
  in
  draw ()
