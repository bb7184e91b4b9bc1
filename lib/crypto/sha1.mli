(** SHA-1 (RFC 3174), implemented from scratch.

    SHA-1 is the hash the TPM v1.2 specification mandates for PCR extension
    and PAL measurement, which is why the paper (and this reproduction) use
    it. Collisions are known today; we reproduce the paper's mechanism, not
    its cryptographic advice. *)

val digest_size : int
(** 20 bytes. *)

val digest : string -> string
(** [digest msg] is the 20-byte SHA-1 digest of [msg]. *)

val digest_bytes : bytes -> string

val hex : string -> string
(** [hex msg] is the lowercase hex rendering of [digest msg]. *)

type ctx
(** Streaming interface, used by the TPM's TPM_HASH_START/DATA/END command
    sequence which receives a PAL a few bytes per bus transaction. *)

val init : unit -> ctx
val update : ctx -> string -> unit
val finalize : ctx -> string
(** May be called once; the context must not be reused afterwards. *)

val copy : ctx -> ctx
(** An independent context in the same state (see {!Sha256.copy}). *)
