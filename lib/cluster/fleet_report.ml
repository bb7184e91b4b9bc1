open Sea_sim
open Sea_serve

type machine_row = {
  index : int;
  tenants : int;
  report : Report.t option;
  lost : int;
}

type churn_stats = {
  failover : bool;
  crashes : int;
  partitions : int;
  heartbeat_misses : int;
  failovers : int;
  migrations : int;
  cold_restarts : int;
  torn_backouts : int;
  link_drops : int;
  link_retries : int;
  lost_requests : int;
  recovered : int;
}

type autoscale_stats = {
  as_policy : string;
  interval : Time.t;
  hot_threshold : float;
  ticks : int;
  hot_events : int;
  resizes : int;
  tenants_moved : int;
  warm_moves : int;
  cold_moves : int;
  respawns : int;
}

type t = {
  mode : string;
  hw : string;
  machines : int;
  idle : int;
  policy : string;
  discipline : string;
  depth : int;
  cost_budget : int option;
  cost_shed : int;
  window : Time.t;
  per_machine : machine_row list;
  fleet : Report.row;
  pal_busy : Time.t;
  stalled : Time.t;
  cold_starts : int;
  warm_hits : int;
  evictions : int;
  sepcr_waits : int;
  faults_injected : (string * int) list;
  retries : int;
  retry_give_ups : int;
  breaker_shed : int;
  breaker_transitions : int;
  recoveries : int;
  vtpm : Report.vtpm_stats option;
  churn : churn_stats option;
  autoscale : autoscale_stats option;
}

(* Requests black-holed while a machine was down are real offered load
   that failed: fold a row's [lost] into its accounting so the fleet
   invariant [offered = completed + shed + timed_out + failed] survives
   churn. Lost 0 (every churn-free run) leaves the row untouched. *)
let with_lost (row : Report.row) lost =
  if lost = 0 then row
  else { row with Report.offered = row.Report.offered + lost;
         failed = row.Report.failed + lost }

(* A machine that was down for its whole window has no report but still
   black-holed arrivals: account them through an empty row. *)
let down_row lost =
  {
    Report.tenant = "down";
    weight = 0;
    offered = lost;
    completed = 0;
    shed = 0;
    timed_out = 0;
    failed = lost;
    latency_ms = Stats.create ();
    queue_high_water = 0;
  }

let accounted_row row =
  match row.report with
  | Some r -> Some (with_lost r.Report.aggregate row.lost)
  | None -> if row.lost > 0 then Some (down_row row.lost) else None

(* Sum per-kind fault counts across reports, preserving the kind order
   of the first non-empty list (all reports emit Fault.all_kinds order). *)
let merge_fault_counts lists =
  match List.filter (fun l -> l <> []) lists with
  | [] -> []
  | first :: _ as nonempty ->
      List.map
        (fun (kind, _) ->
          ( kind,
            List.fold_left
              (fun acc l ->
                acc + (match List.assoc_opt kind l with Some c -> c | None -> 0))
              0 nonempty ))
        first

let merge ?churn ?autoscale ~policy rows =
  if rows = [] then invalid_arg "Fleet_report.merge: no machines";
  let reports = List.filter_map (fun r -> r.report) rows in
  if reports = [] then invalid_arg "Fleet_report.merge: every machine is idle";
  let first = List.hd reports in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let sum_time f =
    List.fold_left (fun acc r -> Time.add acc (f r)) Time.zero reports
  in
  {
    mode = first.Report.mode;
    hw = first.Report.machine;
    machines = List.length rows;
    idle =
      List.length
        (List.filter (fun r -> r.report = None && r.lost = 0) rows);
    policy;
    discipline = first.Report.discipline;
    depth = first.Report.depth;
    cost_budget = first.Report.cost_budget;
    cost_shed = sum (fun r -> r.Report.cost_shed);
    window =
      List.fold_left
        (fun acc r -> Time.max acc r.Report.window)
        Time.zero reports;
    per_machine = rows;
    fleet =
      Report.merge_rows ~tenant:"fleet" (List.filter_map accounted_row rows);
    pal_busy = sum_time (fun r -> r.Report.pal_busy);
    stalled = sum_time (fun r -> r.Report.stalled);
    cold_starts = sum (fun r -> r.Report.cold_starts);
    warm_hits = sum (fun r -> r.Report.warm_hits);
    evictions = sum (fun r -> r.Report.evictions);
    sepcr_waits = sum (fun r -> r.Report.sepcr_waits);
    faults_injected =
      merge_fault_counts
        (List.map (fun r -> r.Report.faults_injected) reports);
    retries = sum (fun r -> r.Report.retries);
    retry_give_ups = sum (fun r -> r.Report.retry_give_ups);
    breaker_shed = sum (fun r -> r.Report.breaker_shed);
    breaker_transitions = sum (fun r -> r.Report.breaker_transitions);
    recoveries = sum (fun r -> r.Report.recoveries);
    vtpm =
      (* Counters sum across machines; [instances] too — the fleet line
         reports the total vTPM population, each machine contributing
         its own multiplexer. *)
      (match List.filter_map (fun r -> r.Report.vtpm) reports with
      | [] -> None
      | stats ->
          let sumv f = List.fold_left (fun acc v -> acc + f v) 0 stats in
          Some
            {
              Report.instances = sumv (fun v -> v.Report.instances);
              extends = sumv (fun v -> v.Report.extends);
              seals = sumv (fun v -> v.Report.seals);
              unseals = sumv (fun v -> v.Report.unseals);
              resets = sumv (fun v -> v.Report.resets);
            });
    churn;
    autoscale;
  }

let window_s t = Time.to_ms t.window /. 1000.

let goodput_per_s t =
  let s = window_s t in
  if s <= 0. then 0. else float_of_int t.fleet.Report.completed /. s

let machine_goodput_per_s row =
  match row.report with
  | None -> 0.
  | Some r -> Report.goodput_per_s r r.Report.aggregate

let recovered_goodput_per_s t =
  match t.churn with
  | None -> 0.
  | Some c ->
      let s = window_s t in
      if s <= 0. then 0. else float_of_int c.recovered /. s

let robustness_active t =
  t.retries > 0 || t.retry_give_ups > 0 || t.breaker_shed > 0
  || t.breaker_transitions > 0 || t.recoveries > 0
  || List.exists (fun (_, c) -> c > 0) t.faults_injected

let pp_counts fmt ((row : Report.row), goodput) =
  Format.fprintf fmt "%7d %7d %6d %8d %5d %9.2f  %a" row.Report.offered
    row.Report.completed row.Report.shed row.Report.timed_out row.Report.failed
    goodput Stats.pp_percentiles row.Report.latency_ms

let pp fmt t =
  Format.fprintf fmt
    "@[<v>cluster: %s on %s  machines %d (%d idle)  policy %s  queue %s \
     depth %d  window %a@,"
    t.mode t.hw t.machines t.idle t.policy t.discipline t.depth Time.pp
    t.window;
  Format.fprintf fmt "%-8s %7s %7s %7s %6s %8s %5s %9s  %-24s@," "machine"
    "tenants" "offered" "served" "shed" "timedout" "fail" "goodput/s"
    "latency (ms)";
  List.iter
    (fun row ->
      match row.report with
      | None when row.lost = 0 ->
          Format.fprintf fmt "m%-7d %7s %s@," row.index "0" "idle"
      | None ->
          (* Down for its whole window: black-holed arrivals, an empty
             completion window, and an explicit n/a latency. *)
          Format.fprintf fmt
            "m%-7d %7d %7d %7d %6d %8d %5d %9.2f  %-24s@," row.index
            row.tenants row.lost 0 0 0 row.lost 0.0 "p50/p95/p99 n/a (down)"
      | Some r ->
          Format.fprintf fmt "m%-7d %7d %a@," row.index row.tenants pp_counts
            (with_lost r.Report.aggregate row.lost, machine_goodput_per_s row))
    t.per_machine;
  let total_tenants =
    List.fold_left (fun acc r -> acc + r.tenants) 0 t.per_machine
  in
  Format.fprintf fmt "%-8s %7d %a@," "fleet" total_tenants pp_counts
    (t.fleet, goodput_per_s t);
  Format.fprintf fmt "PAL cores busy %a  platform stalled %a@," Time.pp
    t.pal_busy Time.pp t.stalled;
  Format.fprintf fmt
    "PAL launches: %d cold, %d warm  evictions %d  sePCR waits %d"
    t.cold_starts t.warm_hits t.evictions t.sepcr_waits;
  Report.pp_vtpm_and_cost fmt (t.vtpm, t.cost_budget, t.cost_shed);
  (* The churn lines render only when a machine-fault plan drove the
     run, so churn-free fleet reports are byte-identical to the
     pre-churn layout. *)
  (match t.churn with
  | None -> ()
  | Some c ->
      Format.fprintf fmt
        "@,churn: crashes %d  partitions %d  heartbeat misses %d  lost \
         requests %d"
        c.crashes c.partitions c.heartbeat_misses c.lost_requests;
      Format.fprintf fmt
        "@,failover: %s  tenants moved %d  migrations %d warm / %d cold (%d \
         torn)  link drops %d (retries %d)"
        (if c.failover then "on" else "off")
        c.failovers c.migrations c.cold_restarts c.torn_backouts c.link_drops
        c.link_retries;
      if c.failover then
        Format.fprintf fmt "@,recovered goodput: %.2f req/s on survivors"
          (recovered_goodput_per_s t));
  (* The autoscale lines render only when a controller drove the run,
     so every non-autoscaled fleet report keeps its historical bytes. *)
  (match t.autoscale with
  | None -> ()
  | Some a ->
      Format.fprintf fmt
        "@,autoscale: policy %s  interval %a  hot %.2fx  ticks %d  hot \
         events %d  resizes %d"
        a.as_policy Time.pp a.interval a.hot_threshold a.ticks a.hot_events
        a.resizes;
      Format.fprintf fmt
        "@,rebalance: tenants moved %d  migrations %d warm / %d cold  \
         respawns %d"
        a.tenants_moved a.warm_moves a.cold_moves a.respawns);
  if robustness_active t then begin
    let injected = List.filter (fun (_, c) -> c > 0) t.faults_injected in
    Format.fprintf fmt "@,faults injected: %s"
      (if injected = [] then "none"
       else
         String.concat ", "
           (List.map (fun (k, c) -> Printf.sprintf "%s %d" k c) injected));
    Format.fprintf fmt
      "@,retries %d (gave up %d)  breaker shed %d  breaker transitions %d  \
       recoveries %d"
      t.retries t.retry_give_ups t.breaker_shed t.breaker_transitions
      t.recoveries
  end;
  Format.fprintf fmt "@]"

let render t = Format.asprintf "%a" pp t
