open Sea_sim

type config = {
  cycle : Time.t;
  data_bytes_per_txn : int;
  base_cycles_per_txn : int;
}

let default_config = { cycle = Time.ns 30; data_bytes_per_txn = 4; base_cycles_per_txn = 18 }

type t = {
  config : config;
  engine : Engine.t;
  mutable total_bytes : int;
  mutable total_transactions : int;
  mutable faults : Sea_fault.Fault.t option;
}

let create ?(config = default_config) engine =
  { config; engine; total_bytes = 0; total_transactions = 0; faults = None }

let set_faults t plan = t.faults <- plan

let config t = t.config

let transaction_time t ~device_wait =
  Time.add (Time.scale t.config.cycle t.config.base_cycles_per_txn) device_wait

let transactions_for t bytes =
  (bytes + t.config.data_bytes_per_txn - 1) / t.config.data_bytes_per_txn

let transfer_time t ~device_wait ~bytes =
  if bytes <= 0 then Time.zero
  else Time.scale (transaction_time t ~device_wait) (transactions_for t bytes)

let transfer t ~device_wait ~bytes =
  Sea_trace.Trace.with_span t.engine ~cat:"lpc"
    ~args:(fun () -> [ ("bytes", Sea_trace.Trace.Int (max 0 bytes)) ])
    "transfer"
    (fun () ->
      let d = transfer_time t ~device_wait ~bytes in
      Engine.advance t.engine d;
      (match t.faults with
      | Some plan when bytes > 0 && Sea_fault.Fault.fires plan Lpc_stall ->
          (* The slave holds the bus in long-wait sync beyond its configured
             device wait: pure extra latency, the transfer still completes. *)
          let extra = Sea_fault.Fault.stall plan ~base:d in
          Sea_trace.Trace.instant t.engine ~cat:"fault"
            ~args:(fun () ->
              [ ("stall_ns", Sea_trace.Trace.Int (Time.to_ns extra)) ])
            "lpc-stall";
          Engine.advance t.engine extra
      | _ -> ());
      t.total_bytes <- t.total_bytes + max 0 bytes;
      t.total_transactions <-
        t.total_transactions + transactions_for t (max 0 bytes));
  Sea_trace.Trace.count t.engine "lpc.bytes" (max 0 bytes)

let batch_bytes chunks =
  List.fold_left (fun acc b -> acc + max 0 b) 0 chunks

let batch_transfer_time t ~device_wait ~chunks =
  transfer_time t ~device_wait ~bytes:(batch_bytes chunks)

let total_bytes t = t.total_bytes
let total_transactions t = t.total_transactions

let peak_bandwidth_bytes_per_s config =
  (* Two data nibbles per cycle on the 4-bit bus: 2 bytes would take one
     cycle each way; the conventional 16.67 MB/s figure is bytes per two
     cycles. We report payload per transaction over transaction time with
     zero framing, i.e. the data-cycle-only ceiling. *)
  let data_cycles = config.data_bytes_per_txn * 2 in
  float_of_int config.data_bytes_per_txn
  /. (float_of_int data_cycles *. Time.to_s config.cycle)
