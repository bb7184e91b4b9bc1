(** The PAL life cycle of Figure 6, as an explicit state machine.

    Used by {!Slaunch_session} to track each PAL and by property tests to
    check that no illegal transition is reachable. [Protect] and [Measure]
    are transient inside SLAUNCH; they appear here because the paper's
    figure names them and the tests assert the path taken. *)

type state =
  | Start  (** SECB allocated, nothing launched. *)
  | Protect  (** Pages being claimed in the access-control table. *)
  | Measure  (** TPM measuring the PAL (first launch only). *)
  | Execute  (** Running on some CPU. *)
  | Suspend  (** Preempted or yielded; pages inaccessible to all. *)
  | Done  (** SFREE'd or SKILL'ed; resources returned to the OS. *)

type event =
  | Ev_slaunch_first
  | Ev_protected
  | Ev_measured
  | Ev_slaunch_resume
  | Ev_yield  (** SYIELD or preemption-timer expiry. *)
  | Ev_sfree
  | Ev_skill

val step : state -> event -> (state, string) result
(** The transition relation of Figure 6; illegal combinations are
    errors. *)

val is_terminal : state -> bool
val to_string : state -> string
val pp : Format.formatter -> state -> unit
