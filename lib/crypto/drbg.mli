(** Deterministic random bit generator.

    A simplified HMAC-DRBG (in the spirit of NIST SP 800-90A) built on
    HMAC-SHA256. The TPM's GetRandom command and RSA key generation draw
    from an instance of this generator, so the whole platform's
    cryptographic randomness is reproducible from the instantiation seed —
    which is what makes the simulated experiments repeatable.

    The key K is held prepared ({!Hmac.prepare_sha256}): its pads are
    hashed once each time K changes, not once per MAC, so a draw of up
    to 32 bytes costs eight SHA-256 compressions. *)

type t

val create : seed:string -> t
(** Instantiate from arbitrary seed material. *)

val generate : t -> int -> bytes
(** [generate t n] produces [n] fresh pseudo-random bytes and advances the
    state, writing them straight into the result. *)

val generate_string : t -> int -> string

val reseed : t -> string -> unit
(** Mix additional entropy into the state. *)
