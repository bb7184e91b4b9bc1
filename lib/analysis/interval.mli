(** Interval abstract domain over the VM's 32-bit registers.

    A value is a closed range [\[lo, hi\]] with
    [0 <= lo <= hi <= 0xFFFFFFFF]. Arithmetic that may wrap modulo 2{^32}
    goes to {!top} rather than modelling the wrap — the analyzer only
    needs addresses, and a wrapped address is "could be anywhere". *)

type t = private { lo : int; hi : int }

val max32 : int
val top : t
val const : int -> t
(** Masked to 32 bits. *)

val make : lo:int -> hi:int -> t
(** Clamped to [\[0, max32\]]; [invalid_arg] if [lo > hi] after clamping. *)

val is_const : t -> bool
val equal : t -> t -> bool

val join : t -> t -> t
(** Convex hull. *)

val widen : t -> t -> t
(** [widen old next]: any bound that grew jumps to its extreme, ensuring
    the dataflow fixpoint terminates. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val add_const : t -> int -> t
(** [add_const v k] — the addressing-mode case [reg + imm]. *)

val to_string : t -> string
