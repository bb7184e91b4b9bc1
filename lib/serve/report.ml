open Sea_sim

type row = {
  tenant : string;
  weight : int;
  offered : int;
  completed : int;
  shed : int;
  timed_out : int;
  failed : int;
  latency_ms : Stats.t;
  queue_high_water : int;
}

type vtpm_stats = {
  instances : int;
  extends : int;
  seals : int;
  unseals : int;
  resets : int;
}

type t = {
  mode : string;
  machine : string;
  cores : int;
  discipline : string;
  depth : int;
  cost_budget : int option;
  cost_shed : int;
  window : Time.t;
  rows : row list;
  aggregate : row;
  pal_busy : Time.t;
  legacy_utilization : float;
  stalled : Time.t;
  stall_ms : Stats.t;
  cold_starts : int;
  warm_hits : int;
  evictions : int;
  sepcr_waits : int;
  sepcr_wait_ms : Stats.t;
  faults_injected : (string * int) list;
  fault_stall : Time.t;
  retries : int;
  retry_give_ups : int;
  breaker_shed : int;
  breaker_transitions : int;
  degraded : Time.t;
  recoveries : int;
  vtpm : vtpm_stats option;
}

let window_s t = Time.to_ms t.window /. 1000.

(* --- row merge: a server's aggregate row, and the fleet row --- *)

let merge_rows ~tenant rows =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  {
    tenant;
    weight = sum (fun r -> r.weight);
    offered = sum (fun r -> r.offered);
    completed = sum (fun r -> r.completed);
    shed = sum (fun r -> r.shed);
    timed_out = sum (fun r -> r.timed_out);
    failed = sum (fun r -> r.failed);
    latency_ms = Stats.merge (List.map (fun r -> r.latency_ms) rows);
    queue_high_water =
      List.fold_left (fun acc r -> Stdlib.max acc r.queue_high_water) 0 rows;
  }

let row_consistent row =
  row.offered = row.completed + row.shed + row.timed_out + row.failed

let goodput_per_s t row =
  let s = window_s t in
  if s <= 0. then 0. else float_of_int row.completed /. s

let robustness_active t =
  t.retries > 0 || t.retry_give_ups > 0 || t.breaker_shed > 0
  || t.breaker_transitions > 0 || t.recoveries > 0
  || List.exists (fun (_, c) -> c > 0) t.faults_injected
  || Time.compare t.fault_stall Time.zero > 0
  || Time.compare t.degraded Time.zero > 0

let pp_row t fmt row =
  Format.fprintf fmt "%-14s %3d %7d %7d %6d %8d %5d %9.2f  %a %6d"
    row.tenant row.weight row.offered row.completed row.shed row.timed_out
    row.failed (goodput_per_s t row) Stats.pp_percentiles row.latency_ms
    row.queue_high_water

(* The vTPM line appears only when a multiplexer was in front of the
   hardware TPM, so non-vTPM reports render exactly as before it existed.
   Only batch-size-invariant counters appear here: flush and
   batch-occupancy counts live in the trace ("vtpm" category), keeping
   the render byte-identical for any anchor batch size. The
   cost-admission line appears only under the cost discipline, so
   fifo/weighted reports render exactly as before it existed. *)
let pp_vtpm_and_cost fmt (vtpm, cost_budget, cost_shed) =
  Option.iter
    (fun v ->
      Format.fprintf fmt
        "@,vtpm: %d instances  extends %d  seals %d  unseals %d  resets %d"
        v.instances v.extends v.seals v.unseals v.resets)
    vtpm;
  Option.iter
    (fun b ->
      Format.fprintf fmt "@,cost admission: budget %d us/tenant  cost shed %d"
        b cost_shed)
    cost_budget

let pp fmt t =
  Format.fprintf fmt
    "@[<v>serve: %s on %s  cores %d  queue %s depth %d  window %a@,"
    t.mode t.machine t.cores t.discipline t.depth Time.pp t.window;
  Format.fprintf fmt
    "%-14s %3s %7s %7s %6s %8s %5s %9s  %-24s %6s@," "tenant" "w" "offered"
    "served" "shed" "timedout" "fail" "goodput/s" "latency (ms)" "q-hwm";
  List.iter (fun row -> Format.fprintf fmt "%a@," (pp_row t) row) t.rows;
  Format.fprintf fmt "%a@," (pp_row t) t.aggregate;
  Format.fprintf fmt
    "PAL cores busy %a  legacy CPU %.1f%%  platform stalled %a (%d stalls, %a)@,"
    Time.pp t.pal_busy
    (100. *. t.legacy_utilization)
    Time.pp t.stalled (Stats.count t.stall_ms) Stats.pp_percentiles t.stall_ms;
  Format.fprintf fmt
    "PAL launches: %d cold, %d warm  evictions %d  sePCR waits %d (%a)"
    t.cold_starts t.warm_hits t.evictions t.sepcr_waits Stats.pp_percentiles
    t.sepcr_wait_ms;
  pp_vtpm_and_cost fmt (t.vtpm, t.cost_budget, t.cost_shed);
  (* The robustness lines appear only when something robustness-related
     actually happened, so fault-free reports render exactly as before
     this machinery existed. *)
  if robustness_active t then begin
    let injected = List.filter (fun (_, c) -> c > 0) t.faults_injected in
    Format.fprintf fmt "@,faults injected: %s  injected bus stall %a"
      (if injected = [] then "none"
       else
         String.concat ", "
           (List.map (fun (k, c) -> Printf.sprintf "%s %d" k c) injected))
      Time.pp t.fault_stall;
    Format.fprintf fmt
      "@,retries %d (gave up %d)  breaker shed %d  breaker transitions %d  \
       degraded %a  recoveries %d"
      t.retries t.retry_give_ups t.breaker_shed t.breaker_transitions Time.pp
      t.degraded t.recoveries
  end;
  Format.fprintf fmt "@]"

let render t = Format.asprintf "%a" pp t
