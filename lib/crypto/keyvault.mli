(** Process-wide cache of deterministic RSA keys.

    Every key is derived from its label: [(label, bits)] seeds an
    HMAC-DRBG and {!Rsa.generate} draws the key from it, so keys for
    distinct labels are independent and a given label always yields the
    same key.

    The keys a simulated machine needs at start-up are precomputed in
    [Embedded_keys]: the Privacy CA at 2048 bits, the SRK and AIK of
    every TPM vendor at 2048 and 512 bits (the sizes of full-fidelity
    and [Machine.low_fidelity] machines), and [vtpm:0] … [vtpm:63] at
    512 bits. {!get} rebuilds those from their stored primes; any other
    key is generated once per process. [tools/gen_keys.exe] rebuilds the
    table from {!generate}. *)

val get : label:string -> bits:int -> Rsa.private_key
(** The key for [(label, bits)]: from the table if it is there, otherwise
    generated on first use; cached for the rest of the process either
    way. *)

val generate : label:string -> bits:int -> Rsa.private_key
(** Derive the key for [(label, bits)] afresh from its labelled seed,
    bypassing the table and the cache. [get] returns the same key. *)
