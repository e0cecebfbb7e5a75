open Flicker_crypto
module B = Bignum

let dec = B.of_decimal_string
let check_dec msg expected v = Alcotest.(check string) msg expected (B.to_decimal_string v)

let test_of_to_int () =
  Alcotest.(check int) "small" 42 (B.to_int (B.of_int 42));
  Alcotest.(check int) "zero" 0 (B.to_int B.zero);
  Alcotest.(check int) "large" max_int (B.to_int (B.of_int max_int));
  Alcotest.check_raises "negative" (Invalid_argument "Bignum.of_int: negative")
    (fun () -> ignore (B.of_int (-1)))

let test_compare () =
  Alcotest.(check bool) "lt" true (B.compare (B.of_int 3) (B.of_int 5) < 0);
  Alcotest.(check bool) "gt" true (B.compare (dec "100000000000000000000") (B.of_int 5) > 0);
  Alcotest.(check bool) "eq" true (B.equal (dec "123") (B.of_int 123))

let test_add_sub () =
  check_dec "add" "10000000000000000000000000000"
    (B.add (dec "9999999999999999999999999999") B.one);
  check_dec "sub" "9999999999999999999999999999"
    (B.sub (dec "10000000000000000000000000000") B.one);
  check_dec "sub to zero" "0" (B.sub (dec "12345") (dec "12345"));
  Alcotest.check_raises "negative result"
    (Invalid_argument "Bignum.sub: negative result") (fun () ->
      ignore (B.sub B.one B.two))

let test_mul () =
  check_dec "mul" "121932631137021795226185032733622923332237463801111263526900"
    (B.mul
       (dec "123456789012345678901234567890")
       (dec "987654321098765432109876543210"));
  check_dec "mul zero" "0" (B.mul B.zero (dec "999999999999"));
  check_dec "mul one" "999999999999" (B.mul B.one (dec "999999999999"))

let test_divmod () =
  let a = dec "987654321098765432109876543210987654321" in
  let b = dec "123456789012345678901" in
  let q, r = B.divmod a b in
  Alcotest.(check bool) "r < b" true (B.compare r b < 0);
  check_dec "reconstruct" (B.to_decimal_string a) (B.add (B.mul q b) r);
  let q2, r2 = B.divmod (B.of_int 17) (B.of_int 5) in
  Alcotest.(check int) "q" 3 (B.to_int q2);
  Alcotest.(check int) "r" 2 (B.to_int r2);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

(* Knuth D's add-back step, expected values from python3's [a // b] and
   [a % b]. 2^52+1 (26-bit limbs) and 2^60+1 (30-bit) are three-limb
   divisors with an empty middle limb; D3's two-limb test already gets
   their [qhat] right. The add-back runs on Hacker's Delight's case
   scaled to each width: dividend limbs [3; 0; B/2; 0] over divisor limbs
   [1; 0; B/8], i.e. 2^77+3 over 2^75+1 and 2^89+3 over 2^87+1, where the
   first [qhat] is one too large and the divisor is added back. *)
let test_divmod_knuth_addback () =
  let pow2_plus k c = B.add (B.shift_left B.one k) (B.of_int c) in
  List.iter
    (fun (a, b, quotient, remainder) ->
      let q, r = B.divmod a b in
      let msg = Printf.sprintf "%s / %s" (B.to_hex a) (B.to_hex b) in
      check_dec "reconstruct addback" (B.to_decimal_string a) (B.add (B.mul q b) r);
      Alcotest.(check bool) "r < b" true (B.compare r b < 0);
      Alcotest.(check string) (msg ^ " quotient") quotient (B.to_hex q);
      Alcotest.(check string) (msg ^ " remainder") remainder (B.to_hex r))
    [
      (B.sub (B.shift_left B.one 104) B.one, pow2_plus 52 1, "0fffffffffffff", "00");
      (B.sub (B.shift_left B.one 120) B.one, pow2_plus 60 1, "0fffffffffffffff", "00");
      (pow2_plus 77 3, pow2_plus 75 1, "03", "08000000000000000000");
      (pow2_plus 89 3, pow2_plus 87 1, "03", "8000000000000000000000");
    ]

let test_rem_int () =
  Alcotest.(check int) "small" 2 (B.rem_int (B.of_int 17) 5);
  Alcotest.(check int) "big" 1
    (B.rem_int (dec "1000000000000000000000000000001") 10);
  (* wide modulus path (d >= 2^26) *)
  let d = (1 lsl 40) + 123 in
  let a = dec "123456789012345678901234567890" in
  let _, r = B.divmod a (B.of_int d) in
  Alcotest.(check int) "wide" (B.to_int r) (B.rem_int a d);
  (* divisors above 2^61, where doubling a remainder overflows an int *)
  let a = dec "123456789012345678901234567890123456789" in
  List.iter
    (fun d ->
      let _, r = B.divmod a (B.of_int d) in
      Alcotest.(check int) (Printf.sprintf "divisor %d" d) (B.to_int r) (B.rem_int a d))
    [ (1 lsl 61) + 3; max_int - 10; max_int ]

let test_shifts () =
  check_dec "shl" "1024" (B.shift_left B.one 10);
  check_dec "shr" "1" (B.shift_right (B.of_int 1024) 10);
  check_dec "shr to zero" "0" (B.shift_right (B.of_int 1024) 11);
  let v = dec "123456789012345678901234567890" in
  check_dec "shl/shr roundtrip" (B.to_decimal_string v)
    (B.shift_right (B.shift_left v 77) 77)

let test_bits () =
  Alcotest.(check int) "bit_length 0" 0 (B.bit_length B.zero);
  Alcotest.(check int) "bit_length 1" 1 (B.bit_length B.one);
  Alcotest.(check int) "bit_length 255" 8 (B.bit_length (B.of_int 255));
  Alcotest.(check int) "bit_length 2^100" 101 (B.bit_length (B.shift_left B.one 100));
  Alcotest.(check bool) "test_bit" true (B.test_bit (B.of_int 5) 2);
  Alcotest.(check bool) "test_bit false" false (B.test_bit (B.of_int 5) 1)

let test_mod_pow () =
  (* Fermat: 7^560 = 1 mod 561 is a Carmichael special; also real prime *)
  check_dec "carmichael" "1"
    (B.mod_pow ~base:(B.of_int 7) ~exp:(B.of_int 560) ~modulus:(B.of_int 561));
  check_dec "fermat" "1"
    (B.mod_pow ~base:(B.of_int 2) ~exp:(B.of_int 102) ~modulus:(B.of_int 103));
  check_dec "zero exp" "1"
    (B.mod_pow ~base:(dec "987654321") ~exp:B.zero ~modulus:(dec "1000003"));
  check_dec "mod one" "0" (B.mod_pow ~base:(B.of_int 5) ~exp:(B.of_int 5) ~modulus:B.one);
  (* 2^1000 mod a large modulus, checked against a Python-computed value *)
  check_dec "big modpow" "351847868703573052863291"
    (B.mod_pow ~base:B.two ~exp:(B.of_int 1000)
       ~modulus:(dec "604462909807314587353111"))

let hex = B.of_hex
let check_hex msg expected v = Alcotest.(check string) msg expected (B.to_hex v)

(* Expected values from python3, one row at a time:
     python3 -c 'print(hex(pow(B, E, M)))'
   with B, E and M the row's base, exponent and modulus as 0x literals.
   Each base is 64 bits wider than its modulus; each x is a full-width
   exponent. *)
let test_mod_pow_known () =
  List.iter
    (fun (bits, m, b, x, pow_e, pow_x) ->
      let m = hex m and b = hex b in
      check_hex (Printf.sprintf "%d-bit e=65537" bits) pow_e
        (B.mod_pow ~base:b ~exp:(B.of_int 65537) ~modulus:m);
      check_hex (Printf.sprintf "%d-bit full exponent" bits) pow_x
        (B.mod_pow ~base:b ~exp:(hex x) ~modulus:m))
    [
      ( 256,
        "fcdbaa28cd9040a22708af41056dd45851cf55dde1529b72d97be23492f6c555",
        "8e20ee5e986bd2b053d4caea5987557ee71d56155c046b711ca728f797e05b12b9f2263e64789cf9",
        "b11f57211e45631451cab9ff02a653f7967edbe698d1d4a3757da76e7b02794a",
        "c07088fde882acb97baa580135bb5ba98b01dc13c3e5b7d59aaf77608246da33",
        "e11ad6c24ac5587222cfba5c17c153d27af35d36dd503c8ed6f954b5a8e1675f" );
      ( 512,
        "fd6d574e66b4b34392adde75ad77ff33657b33c91c503235d0a9039c3dd1c18a\
         4c35c40e6aefa612dc987cf3322ac5527c43037c441d98f0fe27414f07d1ff9d",
        "ebae5773d7714a1dda7458aeb2f1a6aaf8cf152478b366adf4c224fa2d5ea677\
         84a2b3a74450d0e678df473c47e40fcdecf82bbad693518beb2dbfcbb4287cf3\
         a114334ff897fe99",
        "e9b531b1b1c58c85c66eeb6117a05d6b97552c55a77a9d3eef3f351ef219b254\
         92da43c14d2cdcbd2bee590554b5fea92c32ed9fda46441d6f8b039032186832",
        "bf4cb9fc71c2809565c11e9c8bedf01aafbe98978934ab66909fba707e2f43ba\
         091dad60595c5101654e461de7bffae02c583ced1d0b6122d6ce04d2d75a8dca",
        "d48c4dcc2c0a00e55b8fab2d40bb2c196efeca91a2e4fe6f783a3454c5f71227\
         113b18915f4925546d7a44d9b6c8cccff24a1b13ac04761bc720a4b3de2c2f90" );
      ( 1024,
        "eda55ce6fd4aa6e1e12af0c3c9ba6983d28c600c27f23433fb17f319ba58fea6\
         ed091ab1bc54dd8c8728fe1fd5eaa347cb566fa20a41e4c412b56510201276db\
         12af1e404bfef392ab635e19aea31b398a7e79272c739b6acc86c92522cfec8d\
         d8d8064364864eec4947014253890d21269c95693e5be992f2eb09a93f47f26b",
        "b2d01896e97f658096f752f410096c8c292765c7ef1f5d15b5810de071924a02\
         cc3cebd83890c0aa2dd03a7b74ee872e70dd635aeb1ebaca7a7e17b02f81e955\
         86993fdb357d886d14bfad59e435622ed3a7e0456e61d57a73820b8f30654074\
         d96c1907e7434e0bbe02eb0048c154bd48707f045a3f2447c022cec3691538ff\
         df1393bdf779324c",
        "e4910acc41ebe2b03d0b83ba0180255bd899e7fd754f1a74418b658a980358c4\
         8784fe0ad0f0ace3428c1c87949369556b1d2602a5a93f7e4504b2d36ec97ad8\
         8fc5d69955b9c9005a146d7df5a2631a64141ab73cb996db88ae70bf56df2e83\
         f77c9820426d507fb5ba4d1e23ef49cbeb6760aff1710d010c964f48696b3903",
        "685e0e75111beda273acfdb2bbb4ecbba42d8113007c6665111ab1f2b2f30086\
         e6efee60841136b4f7f3ae485d22ad4e2de386fc504f15a77b344d7fa38363f0\
         f22ea5df0c721bf4ff29664dfab2c54a200cde25c2e61d64e7be15951faa60d0\
         3ef8a5bf0ec1b6cb8e161fd659149949b9d5afd1d45668cf43c4ec96dee3661e",
        "09507f0549c07e5228ba90d610a581439d23dafcd9f26ac01d938c3fb395568a\
         84d7f22952fa895726b78594f5eb41132e71b16365deb97d4451633f80ab832f\
         3b88f2be21f3998cae3b1170293e2d429a87c313bf165435de9422017b675d88\
         d4213ae2e4cadda824324c90c0edf343d465334da304c28247930a913cb1c410" );
    ]

(* Edge inputs, expected values from python3's pow as above. 3^2 mod 9
   reaches zero from nonzero factors, so a Montgomery product can come
   out equal to the modulus and must still be reduced. 2^30-5 is a
   one-limb modulus; 2^120-1 has four limbs of 2^30-1, so products land
   in [m, 2m) and take the final subtraction. The 0x3fffffb and 2^104-1
   rows aimed at the same edges for 26-bit limbs and stay as they were. *)
let test_mod_pow_edges () =
  let b = hex "8e20ee5e986bd2b053d4caea5987557ee71d56155c046b711ca7" in
  let x = hex "b11f57211e45631451cab9ff02a6" in
  let ones = B.sub (B.shift_left B.one 104) B.one in
  let ones30 = B.sub (B.shift_left B.one 120) B.one in
  let pow2 k = B.shift_left B.one k in
  List.iter
    (fun (msg, base, exp, modulus, expected) ->
      check_hex msg expected (B.mod_pow ~base ~exp ~modulus))
    [
      ("mod 1", B.of_int 5, B.of_int 5, B.one, "00");
      ("mod 1, exp 0", B.zero, B.zero, B.one, "00");
      ("mod 3", B.two, B.of_int 5, B.of_int 3, "02");
      ("mod 3, exp 0", B.of_int 7, B.zero, B.of_int 3, "01");
      ("mod 3, base 3", B.of_int 3, B.of_int 9, B.of_int 3, "00");
      ("zero divisor", B.of_int 3, B.two, B.of_int 9, "00");
      ("one limb, e=65537", b, B.of_int 65537, hex "3fffffb", "02a9c17f");
      ("one limb, full exponent", b, x, hex "3fffffb", "fd4c18");
      ("one limb, exp 2^40", b, pow2 40, hex "3fffffb", "da91e5");
      ("all-ones limbs", b, x, ones, "31cb35a3ef1dd9f25b7c3a16a0");
      ("all-ones limbs, e=65537", b, B.of_int 65537, ones, "b41bc3356f70fbc8456fc1c8da");
      ("all-ones limbs, base m-1", B.sub ones B.one, x, ones, "01");
      ("all-ones limbs, exp 2^100", b, pow2 100, ones, "9de563c022f71dfa5db13edf71");
      ("exp 1", b, B.one, ones, "15766d45b5c1e80c58403c0701");
      ("exp 0", b, B.zero, ones, "01");
      ("base 0", B.zero, x, ones, "00");
      ("base = modulus", ones, x, ones, "00");
      ("30-bit one limb, e=65537", b, B.of_int 65537, hex "3ffffffb", "1d344622");
      ("30-bit one limb, full exponent", b, x, hex "3ffffffb", "39d54186");
      ("30-bit one limb, exp 2^40", b, pow2 40, hex "3ffffffb", "29767266");
      ("30-bit all-ones limbs", b, x, ones30, "dbd50e4933b22e6a1ec3d51360ba0b");
      ("30-bit all-ones limbs, e=65537", b, B.of_int 65537, ones30, "03f655df08d2f71f2ee419fd665184");
      ("30-bit all-ones limbs, base m-1", B.sub ones30 B.one, x, ones30, "01");
      ("30-bit all-ones limbs, exp 2^100", b, pow2 100, ones30, "f78f331802e0042093e87b63f8cf7a");
      ("30-bit exp 1", b, B.one, ones30, "ea5987560d080bb4adc7d71bc4f171");
      ("30-bit base = modulus", ones30, x, ones30, "00");
    ]

let test_mod_pow_reference () =
  (* independent check against repeated multiplication *)
  let m = B.of_int 1000003 in
  let naive b e =
    let r = ref B.one in
    for _ = 1 to e do
      r := B.rem (B.mul !r b) m
    done;
    !r
  in
  List.iter
    (fun (b, e) ->
      Alcotest.(check string) "matches naive"
        (B.to_decimal_string (naive (B.of_int b) e))
        (B.to_decimal_string
           (B.mod_pow ~base:(B.of_int b) ~exp:(B.of_int e) ~modulus:m)))
    [ (2, 100); (12345, 77); (999999, 3) ]

let test_gcd_modinv () =
  check_dec "gcd" "6" (B.gcd (B.of_int 48) (B.of_int 18));
  check_dec "gcd coprime" "1" (B.gcd (B.of_int 17) (B.of_int 31));
  (match B.mod_inverse (B.of_int 3) (B.of_int 11) with
  | Some inv -> Alcotest.(check int) "3^-1 mod 11" 4 (B.to_int inv)
  | None -> Alcotest.fail "inverse exists");
  (match B.mod_inverse (B.of_int 4) (B.of_int 8) with
  | Some _ -> Alcotest.fail "no inverse for gcd>1"
  | None -> ());
  let m = dec "170141183460469231731687303715884105727" (* 2^127-1, prime *) in
  let a = dec "123456789012345678901234567890" in
  match B.mod_inverse a m with
  | None -> Alcotest.fail "inverse mod prime exists"
  | Some inv -> check_dec "a * a^-1 = 1" "1" (B.rem (B.mul a inv) m)

let test_bytes_roundtrip () =
  let v = dec "123456789012345678901234567890" in
  Alcotest.(check string) "bytes" (B.to_decimal_string v)
    (B.to_decimal_string (B.of_bytes_be (B.to_bytes_be v)));
  Alcotest.(check int) "padded length" 32 (String.length (B.to_bytes_be ~pad_to:32 v));
  Alcotest.(check string) "zero encoding" "" (B.to_bytes_be B.zero);
  Alcotest.(check string) "hex" "0102" (B.to_hex (B.of_int 258))

let test_decimal_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Bignum.of_decimal_string: empty")
    (fun () -> ignore (B.of_decimal_string ""));
  Alcotest.check_raises "non-digit"
    (Invalid_argument "Bignum.of_decimal_string: non-digit") (fun () ->
      ignore (B.of_decimal_string "12a3"))

let test_random () =
  let rng = Prng.create ~seed:"bignum-random" in
  let rand = Prng.bytes rng in
  for _ = 1 to 50 do
    let v = B.random_bits rand 65 in
    Alcotest.(check bool) "within 2^65" true (B.bit_length v <= 65)
  done;
  let bound = dec "1000000000000000000000" in
  for _ = 1 to 50 do
    let v = B.random_below rand bound in
    Alcotest.(check bool) "below bound" true (B.compare v bound < 0)
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Bignum.random_below: zero bound") (fun () ->
      ignore (B.random_below rand B.zero))

(* The Bignum of 26-bit limbs that ran before the 30-bit rewrite, kept
   as the reference the differential properties compare against: the
   same schoolbook multiplication, Knuth Algorithm D, one-limb and
   double-and-reduce [rem_int], CIOS Montgomery multiplication with
   checked indexing, and byte codecs, at another limb width. Only the
   functions the properties call are kept. *)
module Reference = struct
  let limb_bits = 26
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

  let compare a b =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then Stdlib.compare la lb
    else begin
      let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
      go (la - 1)
    end

  let equal a b = compare a b = 0
  let is_even a = Array.length a = 0 || a.(0) land 1 = 0

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

  let add_mod x y d = if x >= d - y then x - (d - y) else x + y

  let rem_int a d =
    if d <= 0 then raise Division_by_zero;
    if d < base then begin
      let r = ref 0 in
      for i = Array.length a - 1 downto 0 do
        r := ((!r lsl limb_bits) lor a.(i)) mod d
      done;
      !r
    end
    else begin
      (* Modulus wider than one limb: (r*2^26 + limb) may overflow, so
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

  let neg_inv_limb m0 =
    let x = ref m0 in
    for _ = 1 to 4 do
      x := !x * (2 - (m0 * !x)) land mask
    done;
    (base - !x) land mask

  let mont_mul m minv t a b r =
    let n = Array.length m in
    Array.fill t 0 (n + 1) 0;
    for i = 0 to n - 1 do
      let bi = b.(i) in
      let s = t.(0) + (a.(0) * bi) in
      let u = (s land mask) * minv land mask in
      let c = ref ((s + (u * m.(0))) lsr limb_bits) in
      for j = 1 to n - 1 do
        let s = t.(j) + (a.(j) * bi) + (u * m.(j)) + !c in
        t.(j - 1) <- s land mask;
        c := s lsr limb_bits
      done;
      let s = t.(n) + !c in
      t.(n - 1) <- s land mask;
      t.(n) <- s lsr limb_bits
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

  let window_bits nbits =
    if nbits <= 32 then 1 else if nbits <= 128 then 3 else if nbits <= 512 then 4 else 5

  let window e pos w =
    let d = ref 0 in
    for j = w - 1 downto 0 do
      d := (!d lsl 1) lor if test_bit e (pos + j) then 1 else 0
    done;
    !d

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
end

(* qcheck generator: random bignum from decimal digits *)
let gen_bignum =
  QCheck.Gen.(
    map
      (fun digits ->
        let s = String.concat "" (List.map string_of_int digits) in
        dec (if s = "" then "0" else s))
      (list_size (int_range 1 30) (int_range 0 9)))

let arb_bignum = QCheck.make ~print:B.to_decimal_string gen_bignum

let prop_add_comm =
  QCheck.Test.make ~name:"addition commutes" ~count:300 (QCheck.pair arb_bignum arb_bignum)
    (fun (a, b) -> B.equal (B.add a b) (B.add b a))

let prop_mul_distributes =
  QCheck.Test.make ~name:"multiplication distributes" ~count:200
    (QCheck.triple arb_bignum arb_bignum arb_bignum) (fun (a, b, c) ->
      B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))

let prop_divmod =
  QCheck.Test.make ~name:"divmod reconstructs" ~count:300
    (QCheck.pair arb_bignum arb_bignum) (fun (a, b) ->
      QCheck.assume (not (B.is_zero b));
      let q, r = B.divmod a b in
      B.equal a (B.add (B.mul q b) r) && B.compare r b < 0)

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip" ~count:300 arb_bignum (fun v ->
      B.equal v (B.of_bytes_be (B.to_bytes_be v)))

let prop_decimal_roundtrip =
  QCheck.Test.make ~name:"decimal roundtrip" ~count:300 arb_bignum (fun v ->
      B.equal v (dec (B.to_decimal_string v)))

let prop_shift =
  QCheck.Test.make ~name:"shift left is *2^k" ~count:200
    (QCheck.pair arb_bignum (QCheck.int_range 0 80)) (fun (v, k) ->
      B.equal (B.shift_left v k) (B.mul v (B.mod_pow ~base:B.two ~exp:(B.of_int k) ~modulus:(B.shift_left B.one 200))))

(* Reference exponentiation: right-to-left square-and-multiply with a
   full division after every product. *)
let ref_mod_pow b e m =
  if B.equal m B.one then B.zero
  else begin
    let b = B.rem b m in
    let result = ref B.one and acc = ref b in
    let nbits = B.bit_length e in
    for i = 0 to nbits - 1 do
      if B.test_bit e i then result := B.rem (B.mul !result !acc) m;
      if i < nbits - 1 then acc := B.rem (B.mul !acc !acc) m
    done;
    !result
  end

(* A value of exactly [bits] bits; zero when [bits = 0]. *)
let gen_exact_bits bits st =
  let rand n = String.init n (fun _ -> Char.chr (Random.State.int st 256)) in
  if bits = 0 then B.zero
  else B.add (B.shift_left B.one (bits - 1)) (B.random_bits rand (bits - 1))

let arb_mod_pow =
  let gen =
    QCheck.Gen.(
      int_range 1 1100 >>= fun mbits ->
      int_range 0 600 >>= fun ebits ->
      int_range 0 (2 * mbits) >>= fun bbits st ->
      (gen_exact_bits bbits st, gen_exact_bits ebits st, gen_exact_bits mbits st))
  in
  QCheck.make gen ~print:(fun (b, e, m) ->
      Printf.sprintf "base=%s exp=%s modulus=%s" (B.to_hex b) (B.to_hex e) (B.to_hex m))

let prop_mod_pow =
  QCheck.Test.make ~name:"mod_pow = square-and-multiply" ~count:200 arb_mod_pow
    (fun (b, e, m) -> B.equal (B.mod_pow ~base:b ~exp:e ~modulus:m) (ref_mod_pow b e m))

(* Reference decoding: one shift-and-add per byte. *)
let ref_of_bytes s =
  let r = ref B.zero in
  String.iter (fun c -> r := B.add_int (B.shift_left !r 8) (Char.code c)) s;
  !r

(* 0-160 bytes, some with leading zero bytes; the fixed lengths sit at and
   around limb boundaries (13 bytes = 4 limbs of 26 bits and 26 bytes = 8;
   15 bytes = 4 limbs of 30 bits and 30 bytes = 8) and at RSA widths. *)
let arb_be_bytes =
  let gen =
    QCheck.Gen.(
      frequency
        [
          (3, int_range 0 160);
          (2, oneofl [ 12; 13; 14; 15; 16; 25; 26; 27; 29; 30; 31; 32; 64; 128 ]);
        ]
      >>= fun n ->
      int_range 0 3 >>= fun zeros ->
      map (String.mapi (fun i c -> if i < zeros then '\000' else c)) (string_size (return n)))
  in
  QCheck.make gen ~print:Util.to_hex

let prop_bytes_reference =
  QCheck.Test.make ~name:"bytes vs shift-and-add" ~count:300 arb_be_bytes (fun s ->
      let v = B.of_bytes_be s in
      B.equal v (ref_of_bytes s) && B.to_bytes_be ~pad_to:(String.length s) v = s)

(* Widths one bit either side of a multiple of 26 or 30 bits, where a
   value's top limb is nearly full or nearly empty in one of the two
   representations, up to [max] bits. *)
let limb_edge_widths max =
  List.init 40 (fun i -> i + 1)
  |> List.concat_map (fun k -> [ (26 * k) - 1; 26 * k; (26 * k) + 1; (30 * k) - 1; 30 * k; (30 * k) + 1 ])
  |> List.filter (fun w -> w <= max)
  |> List.sort_uniq compare

let gen_width max = QCheck.Gen.(frequency [ (3, oneofl (limb_edge_widths max)); (1, int_range 1 max) ])

(* Big-endian bytes of a value of exactly [w] bits: random below the top
   bit, or all ones, so every limb is full. *)
let gen_value w =
  QCheck.Gen.(
    frequency [ (3, return false); (1, return true) ] >>= fun ones st ->
    let nbytes = (w + 7) / 8 in
    let top = w - (8 * (nbytes - 1)) in
    String.init nbytes (fun i ->
        if i = 0 then Char.chr ((1 lsl (top - 1)) lor if ones then (1 lsl (top - 1)) - 1 else Random.State.int st (1 lsl (top - 1)))
        else if ones then '\255'
        else Char.chr (Random.State.int st 256)))

let gen_edge_value max = QCheck.Gen.(gen_width max >>= gen_value)

(* [v] and [rv] hold the same value: their encodings match. *)
let same_bytes v rv = B.to_bytes_be v = Reference.to_bytes_be rv

let edge_test ~name ~count gen print f =
  QCheck.Test.make ~name ~count (QCheck.make gen ~print) f

let print_hex2 (a, b) = Printf.sprintf "a=%s b=%s" (Util.to_hex a) (Util.to_hex b)

let prop_mul_reference =
  edge_test ~name:"mul = 26-bit reference" ~count:300
    QCheck.Gen.(pair (gen_edge_value 700) (gen_edge_value 700))
    print_hex2
    (fun (a, b) ->
      same_bytes
        (B.mul (B.of_bytes_be a) (B.of_bytes_be b))
        (Reference.mul (Reference.of_bytes_be a) (Reference.of_bytes_be b)))

let prop_divmod_reference =
  edge_test ~name:"divmod = 26-bit reference" ~count:300
    QCheck.Gen.(pair (gen_edge_value 1200) (gen_edge_value 700))
    print_hex2
    (fun (a, b) ->
      let q, r = B.divmod (B.of_bytes_be a) (B.of_bytes_be b) in
      let rq, rr = Reference.divmod (Reference.of_bytes_be a) (Reference.of_bytes_be b) in
      same_bytes q rq && same_bytes r rr)

(* divisors of every width up to 62 bits, so both the one-limb path and
   the double-and-reduce path run at each limb width *)
let prop_rem_int_reference =
  edge_test ~name:"rem_int = 26-bit reference" ~count:300
    QCheck.Gen.(
      pair (gen_edge_value 700)
        (oneofl (List.init 62 (fun i -> i + 1)) >>= fun w ->
         gen_value w >|= fun d -> String.fold_left (fun acc c -> (acc lsl 8) lor Char.code c) 0 d))
    (fun (a, d) -> Printf.sprintf "a=%s d=%d" (Util.to_hex a) d)
    (fun (a, d) -> B.rem_int (B.of_bytes_be a) d = Reference.rem_int (Reference.of_bytes_be a) d)

let prop_shifts_reference =
  edge_test ~name:"shifts = 26-bit reference" ~count:300
    QCheck.Gen.(pair (gen_edge_value 700) (gen_width 400))
    (fun (a, k) -> Printf.sprintf "a=%s k=%d" (Util.to_hex a) k)
    (fun (a, k) ->
      let v = B.of_bytes_be a and rv = Reference.of_bytes_be a in
      same_bytes (B.shift_left v k) (Reference.shift_left rv k)
      && same_bytes (B.shift_right v k) (Reference.shift_right rv k))

(* Both codecs round-trip the bytes, with leading zeros and padding, and
   the two decoded values agree bit by bit: [test_bit] reads the limbs
   directly, so a decoder and an encoder wrong in matching ways show. *)
let prop_bytes_codec_reference =
  edge_test ~name:"byte codecs = 26-bit reference" ~count:300
    QCheck.Gen.(pair (gen_edge_value 1200) (int_range 0 3))
    (fun (a, pad) -> Printf.sprintf "a=%s pad=%d" (Util.to_hex a) pad)
    (fun (a, pad) ->
      let s = String.make pad '\000' ^ a in
      let pad_to = String.length s in
      let v = B.of_bytes_be s and rv = Reference.of_bytes_be s in
      B.to_bytes_be ~pad_to v = s
      && Reference.to_bytes_be ~pad_to rv = s
      && B.bit_length v = Reference.bit_length rv
      && List.for_all (fun i -> B.test_bit v i = Reference.test_bit rv i) (List.init (B.bit_length v) Fun.id))

let prop_mod_pow_reference =
  edge_test ~name:"mod_pow = 26-bit reference" ~count:200
    QCheck.Gen.(
      gen_edge_value 1100 >>= fun m ->
      bool >>= fun odd ->
      let last = Char.code m.[String.length m - 1] in
      let m =
        String.mapi
          (fun i c ->
            if i < String.length m - 1 then c
            else Char.chr (if odd then last lor 1 else last land lnot 1))
          m
      in
      triple (gen_edge_value 1200) (gen_edge_value 300) (return m))
    (fun (b, e, m) ->
      Printf.sprintf "base=%s exp=%s modulus=%s" (Util.to_hex b) (Util.to_hex e) (Util.to_hex m))
    (fun (b, e, m) ->
      QCheck.assume (not (B.is_zero (B.of_bytes_be m)));
      same_bytes
        (B.mod_pow ~base:(B.of_bytes_be b) ~exp:(B.of_bytes_be e) ~modulus:(B.of_bytes_be m))
        (Reference.mod_pow ~base:(Reference.of_bytes_be b) ~exp:(Reference.of_bytes_be e)
           ~modulus:(Reference.of_bytes_be m)))

let () =
  Alcotest.run "bignum"
    [
      ( "bignum",
        [
          Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "divmod" `Quick test_divmod;
          Alcotest.test_case "divmod add-back" `Quick test_divmod_knuth_addback;
          Alcotest.test_case "rem_int" `Quick test_rem_int;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "bit ops" `Quick test_bits;
          Alcotest.test_case "mod_pow" `Quick test_mod_pow;
          Alcotest.test_case "mod_pow vs naive" `Quick test_mod_pow_reference;
          Alcotest.test_case "mod_pow known answers" `Quick test_mod_pow_known;
          Alcotest.test_case "mod_pow edge inputs" `Quick test_mod_pow_edges;
          Alcotest.test_case "gcd / modinv" `Quick test_gcd_modinv;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "decimal errors" `Quick test_decimal_errors;
          Alcotest.test_case "random draws" `Quick test_random;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_add_comm;
            prop_mul_distributes;
            prop_divmod;
            prop_bytes_roundtrip;
            prop_decimal_roundtrip;
            prop_shift;
            prop_mod_pow;
            prop_bytes_reference;
          ] );
      ( "reference",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_mul_reference;
            prop_divmod_reference;
            prop_rem_int_reference;
            prop_shifts_reference;
            prop_bytes_codec_reference;
            prop_mod_pow_reference;
          ] );
    ]
