(** Primality testing and random prime generation for RSA key generation. *)

val is_probably_prime : Prng.t -> Bignum.t -> bool
(** Miller–Rabin with trial division by small primes first: 20 rounds
    (error probability below 4^-20). *)

val generate_prime : Prng.t -> bits:int -> Bignum.t
(** A random probable prime of exactly [bits] bits (top bit set, odd).
    @raise Invalid_argument if [bits < 3]. *)

val small_primes : int list
(** The primes below 1000, used for trial division and in tests. *)
