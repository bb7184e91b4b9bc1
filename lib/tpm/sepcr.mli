(** Secure-execution PCRs — the paper's proposed TPM extension (§5.4).

    A bank of additional resettable PCRs, each of which can be dynamically
    bound to one executing PAL. The bank size limits how many PALs can
    execute concurrently (§5.4.1: "the number of sePCRs present in a TPM
    establishes the limit for the number of concurrently executing PALs").

    Each sePCR is in one of three states (§5.4.3):
    - [Free]: available for allocation by SLAUNCH.
    - [Exclusive]: bound to a PAL (executing or context-switched out). Only
      the owning CPU — on behalf of that PAL — may extend, read, seal or
      unseal against it.
    - [Quote]: the PAL has terminated; untrusted code may generate a
      TPM_Quote over it, after which it transitions to [Free].

    Owner identity is the CPU that executed the SLAUNCH; the hardware
    (CPU + memory controller) keeps the handle with the SECB, so the TPM
    only needs to match the requesting CPU against the binding. *)

type handle
(** Opaque sePCR handle; travels in the SECB and is returned to untrusted
    code for quote generation. Handles need not be secret (§5.4.2). *)

type state = Free | Exclusive | Quote

type bank

val create : size:int -> bank
(** All sePCRs initially [Free]. *)

val size : bank -> int
val free_count : bank -> int
val state : bank -> handle -> state
val handle_to_int : handle -> int
val handle_of_int : bank -> int -> handle option
(** Untrusted code supplies handles as integers (PAL output); this
    validates the range. *)

val allocate : bank -> owner:int -> handle option
(** Bind a free sePCR to a PAL being launched on CPU [owner]: resets the
    register to zeroes and moves it to [Exclusive]. [None] when no sePCR is
    free — SLAUNCH must then fail (§5.4.1). *)

val extend : bank -> handle -> owner:int -> string -> (string, string) result
(** Extend, permitted only in [Exclusive] state by the bound owner.
    Returns the new value or an access-control error. *)

val read : bank -> handle -> owner:int -> (string, string) result
(** Read, same access rule as {!extend}. *)

val value_unchecked : bank -> handle -> string
(** Internal TPM access for quote/seal paths that enforce their own state
    rules. *)

val rebind : bank -> handle -> owner:int -> new_owner:int -> (unit, string) result
(** Resume on a different CPU: the SECB carries the handle and SLAUNCH
    re-binds it to the resuming CPU (§5.3.1: "the PAL may execute on a
    different CPU each time it is resumed"). *)

val release_for_quote : bank -> handle -> owner:int -> (unit, string) result
(** SFREE path: [Exclusive] → [Quote] (§5.4.3). *)

val skill : bank -> handle -> (unit, string) result
(** SKILL path (§5.5): extend with the well-known SKILL constant, then
    [Exclusive] → [Free]. *)

val finish_quote : bank -> handle -> (unit, string) result
(** After a successful quote: [Quote] → [Free] (TPM_SEPCR_Free). *)
