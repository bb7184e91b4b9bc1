(** Low Pin Count (LPC) bus timing model.

    The TPM sits on the LPC bus behind the south bridge (Figure 1 of the
    paper). The bus runs at 33 MHz with a 4-bit data path; its theoretical
    ceiling is 16.67 MB/s, so transferring a 64 KB PAL takes at least
    3.8 ms. Real transfers are slower: each transaction carries a small
    payload (the TPM_HASH_DATA command sends 1–4 bytes) wrapped in framing
    cycles, and the slave device may stall the bus with "long wait"
    sync cycles — the paper identifies exactly this TPM-induced stall as the
    dominant cost of SKINIT (§4.3.1).

    The model is therefore: a transaction moves [data_bytes_per_txn] bytes
    and costs [base_cycles_per_txn] bus cycles plus whatever wait the
    attached device inserts. With the default configuration and zero device
    wait, 64 KB takes 8.8 ms — matching the TPM-less Tyan n3600R row of
    Table 1. *)

type config = {
  cycle : Sea_sim.Time.t;  (** One bus clock period (30 ns at 33 MHz). *)
  data_bytes_per_txn : int;  (** Payload bytes per transaction (4). *)
  base_cycles_per_txn : int;
      (** Framing + data + turnaround cycles per transaction with a
          wait-free device. *)
}

val default_config : config
(** 33 MHz, 4 bytes per transaction, 18 cycles per transaction — calibrated
    so that a 64 KB wait-free transfer costs 8.85 ms (Table 1, Tyan row
    measured 8.82 ms). *)

type t

val create : ?config:config -> Sea_sim.Engine.t -> t

val config : t -> config

val set_faults : t -> Sea_fault.Fault.t option -> unit
(** Install (or remove, with [None]) a fault plan. When installed, each
    non-empty {!transfer} may suffer an injected [Lpc_stall]: extra
    long-wait sync time beyond the configured device wait, drawn from
    the plan's deterministic stream. No plan — the default — means the
    timing model is exactly the fault-free one. *)

val transaction_time : t -> device_wait:Sea_sim.Time.t -> Sea_sim.Time.t
(** Duration of one transaction against a device inserting [device_wait]
    of sync stall. *)

val transfer_time :
  t -> device_wait:Sea_sim.Time.t -> bytes:int -> Sea_sim.Time.t
(** Total duration of moving [bytes] across the bus, one transaction per
    [data_bytes_per_txn] chunk (the final partial chunk still costs a full
    transaction). Zero bytes cost zero time. *)

val transfer : t -> device_wait:Sea_sim.Time.t -> bytes:int -> unit
(** Perform the transfer: advances the engine clock by {!transfer_time} and
    records traffic statistics. *)

val batch_transfer_time :
  t -> device_wait:Sea_sim.Time.t -> chunks:int list -> Sea_sim.Time.t
(** Duration of moving several logical command payloads in {e one}
    coalesced burst: the payload bytes are packed across command
    boundaries, so the whole batch pays [ceil (total / data_bytes_per_txn)]
    transactions — per byte actually moved — instead of each chunk paying
    its own final-partial-transaction framing. Always at most
    [sum (transfer_time chunk)]; equal when every chunk is a multiple of
    [data_bytes_per_txn]. Non-positive chunks contribute nothing. *)

val total_bytes : t -> int
(** Cumulative payload bytes moved over this bus instance. *)

val total_transactions : t -> int

val peak_bandwidth_bytes_per_s : config -> float
(** Theoretical ceiling implied by the configuration (≈16.67 MB/s for the
    default when only data cycles are counted). *)
