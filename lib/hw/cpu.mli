(** One CPU core.

    Tracks only what the execution model needs: what the core is currently
    doing and whether interrupts are enabled. Architectural register state
    that crosses context switches is snapshotted into the SECB
    ({!Secb.cpu_snapshot}); it has no behavioural content in the model. *)

type status =
  | Idle  (** Halted — the state SKINIT requires of all other cores. *)
  | Legacy  (** Running the untrusted OS / applications. *)
  | In_pal of int  (** Executing the PAL owned by SECB [id]. *)

type t = {
  id : int;
  mutable status : status;
  mutable interrupts_enabled : bool;
}

val create : id:int -> t
(** Fresh core, [Legacy] with interrupts enabled. *)
