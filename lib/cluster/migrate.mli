(** Sealed-state PAL failover between fleet machines — the paper's
    §5.4 sePCR seal/unseal run as a real migration protocol.

    A resident SLAUNCH PAL on a failed machine is moved to a survivor:

    + {b SYIELD} — the source resident parks in [Suspend];
    + {b seal} — its hand-off state is TPM-sealed bound to the sePCR
      measurement chain, then the source resident is SKILLed (from this
      instant the blob {e is} the PAL — exactly-once hinges on the
      seal-then-SKILL ordering);
    + {b transfer} — the blob crosses the lossy {!Link} under bounded
      {!Sea_fault.Retry} backoff;
    + {b unseal + resume} — the survivor SLAUNCHes the same code
      identity (its sePCR then carries the same measurement chain), the
      TPM unseals the blob against it, and the PAL resumes warm.

    A transfer the retries cannot save is {e torn}: the target's
    already-claimed pages and sePCR are backed out exactly like a failed
    first SLAUNCH (PR 3's backout), and the PAL is cold re-launched
    without its state. A crashed source never runs the live protocol —
    failover falls back to the pre-crash durable checkpoint when one
    survived, else a cold re-launch. The invariant either way: the PAL
    ends resident on {e exactly one} machine. *)

type outcome = Warm  (** Sealed state resumed on the survivor. *)
             | Cold  (** Re-launched without state. *)

type result_t = {
  outcome : outcome;
  torn : bool;
      (** A mid-protocol failure forced a target claim backout before
          the cold re-launch. *)
  link_retries : int;  (** Link re-transmissions burned. *)
  target : Sea_core.Slaunch_session.t;
      (** The live resident on the target, suspended; the caller owns
          it ({!dispose} when done). *)
}

val failover :
  source:Sea_hw.Machine.t ->
  target:Sea_hw.Machine.t ->
  link:Link.t ->
  ?source_alive:bool ->
  ?blob_available:bool ->
  ?preemption_timer:Sea_sim.Time.t ->
  tenant:string ->
  kind_name:string ->
  Sea_core.Pal.t ->
  unit ->
  (result_t, string) result
(** Fail one resident over. [source_alive] (default true) selects the
    live protocol — a partitioned machine still seals and ships; false
    models a crash, where [blob_available] decides whether the durable
    pre-crash checkpoint survived. [preemption_timer] (default 10 ms)
    governs the SLAUNCH slices that park residents in [Suspend].
    [Error] only when even the cold re-launch cannot claim the target
    (e.g. no proposed hardware). *)

val dispose : result_t -> unit
(** SKILL and release the target resident. *)

val respawn :
  target:Sea_hw.Machine.t ->
  backend:Sea_core.Backend.t ->
  ?preemption_timer:Sea_sim.Time.t ->
  tenant:string ->
  kind_name:string ->
  Sea_core.Pal.t ->
  unit ->
  (Sea_core.Backend.instance, string) result
(** Kill-and-respawn rebalancing (the autoscaler's spread policy): no
    state moves — a fresh resident of [pal] launches on the target
    through [backend] (a real cold SLAUNCH on proposed hardware, the
    software loader under SFI), parked in [Suspend] for the caller to
    hand to the target's server. [Error] when the launch cannot claim
    the target. *)
