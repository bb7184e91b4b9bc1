(** Arbitrary-precision natural numbers.

    Built from scratch (no Zarith) to support the TPM's RSA operations.
    Values are immutable. Only naturals are represented; subtraction of a
    larger value from a smaller one raises.

    Internal representation: little-endian array of 31-bit limbs, with no
    most-significant zero limb (canonical form). Below, [n] is the limb
    count of the larger operand (a 2048-bit value has 67 limbs).

    Costs: conversions, comparison, addition, subtraction and shifts are
    O(n); [mul] is schoolbook O(n²); [divmod] is short division (O(n)) for
    a one-limb divisor and Knuth's Algorithm D (O(m·(n - m + 1))) for an
    m-limb divisor; [mod_pow] with an odd modulus is Montgomery
    exponentiation, O(n²) per exponent bit with no allocation in the
    loop. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** Raises [Invalid_argument] on negative input. *)

val to_int_opt : t -> int option
(** [None] if the value exceeds [max_int]. *)

val of_bytes_be : string -> t
(** Big-endian byte-string decoding; leading zero bytes are accepted.
    Linear in the string length. *)

val to_bytes_be : ?pad_to:int -> t -> string
(** Big-endian encoding with no leading zero byte, or left-zero-padded to
    exactly [pad_to] bytes. Raises [Invalid_argument] if the value does not
    fit in [pad_to] bytes. Linear in the output length. *)

val of_hex : string -> t
(** Parses a hexadecimal string (no prefix, case-insensitive).
    Raises [Invalid_argument] on non-hex characters. Linear. *)

val to_hex : t -> string
(** Lowercase, no leading zeros; ["0"] for zero. Linear. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val bit_length : t -> int
(** Number of significant bits; [0] for zero. *)

val test_bit : t -> int -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** Raises [Invalid_argument] if the result would be negative. *)

val mul : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. Raises [Division_by_zero].
    Short division when [b] has one limb, Knuth's Algorithm D otherwise. *)

val rem_int : t -> int -> int
(** [rem_int a d] is [a mod d] for a one-limb divisor [0 < d < 2³¹],
    by short division without allocation. Raises [Invalid_argument] for
    any other [d]. *)

val div : t -> t -> t
val rem : t -> t -> t

val mod_sub : t -> t -> m:t -> t
val mod_mul : t -> t -> m:t -> t

val mod_pow : base:t -> exp:t -> m:t -> t
(** Modular exponentiation. Uses [mont_pow] when [m] is odd, and plain
    square-and-multiply with division otherwise. Raises
    [Division_by_zero] if [m] is zero. *)

type mont
(** Montgomery context for one odd modulus m of k limbs: m, k,
    -m⁻¹ mod 2³¹ and R² mod m with R = 2^(31k). Immutable once built, so
    one context may be shared across domains. *)

val mont : t -> mont
(** [mont m] precomputes the context (one division). Raises
    [Invalid_argument] unless [m] is odd and above one. *)

val mont_pow : mont -> base:t -> exp:t -> t
(** [mont_pow (mont m) ~base ~exp] equals [mod_pow ~base ~exp ~m]. Left-
    to-right square-and-multiply, over 4-bit windows when [exp] has more
    than 64 bits, on a fixed-width, in-place CIOS Montgomery product; the
    buffers are allocated once per call. *)

val gcd : t -> t -> t

val mod_inverse : t -> m:t -> t option
(** Multiplicative inverse modulo [m], or [None] if it does not exist. *)

val of_random_bits : (int -> bytes) -> int -> t
(** [of_random_bits gen bits] draws a uniformly random value in
    [\[0, 2^bits)] using [gen n] to obtain [n] random bytes. *)

val pp : Format.formatter -> t -> unit
(** Hexadecimal rendering. *)
