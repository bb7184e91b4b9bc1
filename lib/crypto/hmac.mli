(** HMAC (RFC 2104) over the hashes in this library.

    The TPM uses HMAC-SHA1 for authorization sessions; the DRBG uses
    HMAC-SHA256 internally. Both go through one code path: a key is
    prepared once, absorbing the key's inner and outer pads into two hash
    contexts, and each MAC under it starts from copies of those. *)

type key
(** A prepared key. Immutable: MACs under one key may run in any order. *)

val prepare_sha256 : string -> key

val mac : key -> string -> string
(** [mac (prepare_sha256 k) msg] is [sha256 ~key:k msg], without
    hashing the key pads again. *)

val sha1 : key:string -> string -> string
(** [sha1 ~key msg] is HMAC-SHA1(key, msg), 20 bytes: the key is
    prepared, then applied once. *)

val sha256 : key:string -> string -> string
(** [sha256 ~key msg] is HMAC-SHA256(key, msg), 32 bytes: the key is
    prepared, then applied once. *)

val equal_constant_time : string -> string -> bool
(** Comparison that does not leak the position of the first mismatch.
    The simulation has no real timing side channel, but model code that
    verifies MACs uses this for fidelity. *)
