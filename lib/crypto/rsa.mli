(** RSA, from scratch, for the TPM model.

    Provides key generation (Miller–Rabin), PKCS#1 v1.5 signatures with a
    SHA-1 DigestInfo (what a v1.2 TPM's Quote produces), and PKCS#1 v1.5
    type-2 encryption (used for Seal blobs). Sizes up to 2048 bits are
    practical with the [Bignum] substrate.

    This is a faithful-mechanism model, not hardened production crypto: no
    blinding, no constant-time guarantees — the "hardware" it runs inside is
    itself simulated. *)

type public = private {
  n : Bignum.t;
  e : Bignum.t;
  n_ctx : Bignum.mont option;  (** [None] unless [n] is odd and above one *)
}
(** Built only by [public] or [of_primes], so the Montgomery context for
    [n], which [verify] and [encrypt] use, always matches [n]. *)

val public : n:Bignum.t -> e:Bignum.t -> public

type private_key = private {
  pub : public;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;  (** d mod (p-1) *)
  dq : Bignum.t;  (** d mod (q-1) *)
  qinv : Bignum.t;  (** q⁻¹ mod p *)
  p_ctx : Bignum.mont;
  q_ctx : Bignum.mont;
}
(** Every field is computed eagerly by [of_primes], so a key shared across
    domains is never mutated. [sign] and [decrypt] compute c^d mod n by the
    Chinese remainder theorem: c^dp mod p and c^dq mod q, recombined with
    Garner's formula. For distinct primes p and q this is exactly
    [Bignum.mod_pow ~base:c ~exp:d ~m:n], at about a quarter of the
    cost. *)

val of_primes : ?e:int -> Bignum.t -> Bignum.t -> private_key option
(** [of_primes p q] is the key with modulus [p*q], public exponent [e]
    (default 65537) and d = e⁻¹ mod (p-1)(q-1). [None] if [p] or [q] is
    below 3 or even, if [p = q] or they share a factor, or if [e] has no
    inverse. Primality is not checked: CRT matches plain exponentiation
    only when [p] and [q] are prime. *)

val generate : ?e:int -> bits:int -> Drbg.t -> private_key
(** [generate ~bits drbg] creates a key with a modulus of exactly [bits]
    bits ([bits >= 32]). The default public exponent is 65537. Prime
    pairs are drawn until their product has [bits] bits and [of_primes]
    accepts them. *)

val key_bytes : public -> int
(** Modulus length in bytes. *)

val sign : private_key -> string -> string
(** [sign key msg] is a PKCS#1 v1.5 signature over SHA-1([msg]), of length
    [key_bytes key.pub]. *)

val verify : public -> msg:string -> signature:string -> bool

val encrypt : public -> Drbg.t -> string -> string
(** PKCS#1 v1.5 type-2 encryption. The plaintext must be at most
    [key_bytes pub - 11] bytes; raises [Invalid_argument] otherwise. *)

val decrypt : private_key -> string -> string option
(** [None] if the padding is invalid (wrong key or corrupted blob). *)

val max_plaintext : public -> int
(** Largest payload [encrypt] accepts. *)

val is_probable_prime : Bignum.t -> rounds:int -> Drbg.t -> bool
(** Miller–Rabin with the given number of random rounds (plus small-prime
    trial division). Exposed for tests. *)
