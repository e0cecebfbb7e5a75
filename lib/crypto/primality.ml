let small_primes =
  let limit = 1000 in
  let sieve = Array.make (limit + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to limit do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j <= limit do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  List.filter (fun i -> sieve.(i)) (List.init (limit + 1) Fun.id)

let passes_trial_division n =
  List.for_all
    (fun p ->
      let r = Bignum.rem_int n p in
      r <> 0 || Bignum.equal n (Bignum.of_int p))
    small_primes

(* One Miller-Rabin round with witness a: n-1 = d * 2^s with d odd. *)
let miller_rabin_round n d s a =
  let open Bignum in
  let n_minus_1 = sub n one in
  let x = mod_pow ~base:a ~exp:d ~modulus:n in
  if equal x one || equal x n_minus_1 then true
  else begin
    let rec square_up x i =
      if i >= s - 1 then false
      else begin
        let x = rem (mul x x) n in
        if equal x n_minus_1 then true else square_up x (i + 1)
      end
    in
    square_up x 0
  end

let is_probably_prime rng n =
  let open Bignum in
  if compare n two < 0 then false
  else if equal n two then true
  else if is_even n then false
  else if not (passes_trial_division n) then false
  else begin
    let n_minus_1 = sub n one in
    (* factor out powers of two *)
    let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
    let d, s = split n_minus_1 0 in
    let bound = sub n (of_int 3) in
    let rec rounds_left k =
      if k = 0 then true
      else begin
        let a = add (random_below (Prng.bytes rng) (add bound one)) two in
        if miller_rabin_round n d s a then rounds_left (k - 1) else false
      end
    in
    (* n >= 5 here, so the witness range [2, n-2] is non-empty *)
    rounds_left 20
  end

let generate_prime rng ~bits =
  if bits < 3 then invalid_arg "Primality.generate_prime: need at least 3 bits";
  let open Bignum in
  let top = shift_left one (bits - 1) in
  let rec try_candidate () =
    let r = random_bits (Prng.bytes rng) (bits - 1) in
    (* force the top bit (exact width) and the low bit (odd) *)
    let candidate = add (add top r) (if is_even (add top r) then one else zero) in
    let candidate = if bit_length candidate > bits then sub candidate two else candidate in
    if is_probably_prime rng candidate then candidate else try_candidate ()
  in
  try_candidate ()
