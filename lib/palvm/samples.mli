(** Shipped PALVM example programs.

    Small, honest PALs used by the examples, the CLI's [analyze]
    subcommand and the [@analyze] build alias: each must run correctly
    under {!Vm} {e and} come back clean (no error findings) from
    [Sea_analysis] — they are the regression corpus for "our own images
    pass our own linter". *)

val seal_echo : string
(** Reads the input, seals it, outputs the sealed blob. *)

val xor_checksum : string
(** Loops over the input bytes and outputs a 4-byte XOR checksum — the
    shipped example of a loop. Its trip count is provable by the
    analyzer's counter-pattern inference, so its certificate carries a
    finite WCET well under the fuel ceiling. *)

val random_nonce : string
(** Generates 16 random bytes, seals them, outputs only the sealed
    blob — the raw nonce never leaves the PAL. *)

val all : (string * string) list
(** [(name, image)] for every sample above. *)

val pal : name:string -> code:string -> Sea_core.Pal.t
(** Wrap a sample as a launchable PAL ({!Vm.to_pal}). *)
