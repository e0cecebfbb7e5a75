(** Arbitrary-precision natural numbers.

    The RSA implementation needs multi-precision arithmetic and no bignum
    library is available in the sealed environment, so this module provides
    one from scratch: little-endian arrays of 30-bit limbs, with schoolbook
    multiplication, Knuth Algorithm D division, and Montgomery
    multiplication for exponentiation modulo an odd number. All values are
    non-negative; subtraction of a larger value raises. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int : t -> int
(** @raise Failure if the value does not fit in an OCaml [int]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_even : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val mul : t -> t -> t
val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. @raise Division_by_zero. *)

val rem : t -> t -> t

val add_int : t -> int -> t
val rem_int : t -> int -> int
(** Remainder by a positive int (any up to [max_int]), computed without
    allocation of a full quotient. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
val bit_length : t -> int
(** Number of significant bits; [bit_length zero = 0]. *)

val test_bit : t -> int -> bool

val mod_pow : base:t -> exp:t -> modulus:t -> t
(** Modular exponentiation. An odd modulus (every RSA, Miller-Rabin and
    ElGamal modulus) takes left-to-right windowed exponentiation over
    Montgomery multiplication, with the window width set by the exponent's
    length: bit by bit up to 32 bits (e = 65537), 4 bits for a 256-bit
    exponent. An even modulus takes square-and-multiply with a division
    after every product.
    @raise Division_by_zero if [modulus] is zero. *)

val gcd : t -> t -> t

val mod_inverse : t -> t -> t option
(** [mod_inverse a m] is [Some x] with [a*x = 1 (mod m)] when
    [gcd a m = 1], otherwise [None]. *)

val of_bytes_be : string -> t
(** Interpret a big-endian byte string as a natural number, in time linear
    in its length. *)

val to_bytes_be : ?pad_to:int -> t -> string
(** Minimal big-endian encoding, optionally left-padded with zero bytes to
    [pad_to] bytes, in time linear in its length. The encoding of [zero]
    without padding is [""]. *)

val of_hex : string -> t
val to_hex : t -> string

val of_decimal_string : string -> t
(** @raise Invalid_argument on non-digit characters or empty input. *)

val to_decimal_string : t -> string

val random_bits : (int -> string) -> int -> t
(** [random_bits rand nbits] draws a uniformly random value below
    [2^nbits] using [rand n], a source of [n] random bytes. *)

val random_below : (int -> string) -> t -> t
(** [random_below rand n] draws a uniformly random value in [[0, n)] by
    rejection sampling. @raise Invalid_argument if [n] is zero. *)
