(** SHA-256 (FIPS 180-4), implemented from scratch.

    Not used by the TPM v1.2 model (which is SHA-1 based per the spec), but
    provided for the DRBG and for sealed-blob integrity tags where we are
    free to use a modern hash. *)

val digest_size : int
(** 32 bytes. *)

val digest : string -> string
val digest_bytes : bytes -> string
val hex : string -> string

type ctx
(** Streaming interface. *)

val init : unit -> ctx
val update : ctx -> string -> unit

val finalize : ctx -> string
(** May be called once; the context must not be reused afterwards. *)

val copy : ctx -> ctx
(** An independent context in the same state, so that a common prefix
    (an HMAC key pad) is absorbed once and finished many times. *)
