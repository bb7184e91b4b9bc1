(* Tests for the fleet layer: routing policies, shard-count determinism
   (the load-bearing property: the merged report is byte-identical on 1
   and 4 domains), per-machine seed independence, the merge invariants,
   and the CLI-facing config validation. *)

open Sea_sim
open Sea_serve
open Sea_cluster

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let machine_config = Sea_hw.Machine.low_fidelity Sea_hw.Machine.hp_dc5750

let serve_config ?faults ?discipline ~mode () =
  Server.config ~queue_depth:8 ?faults ?discipline ~mode ~duration:(Time.s 1.)
    ()

let run_fleet ?seed ?(machines = 4) ?(shards = 1) ?(policy = Router.Round_robin)
    ?faults ?discipline ?(mode = Server.Proposed) ?(tenants = 8) ?(rate = 40.)
    () =
  let machine_config =
    match mode with
    | Server.Current | Server.Sfi -> machine_config
    | Server.Proposed -> Sea_hw.Machine.proposed_variant machine_config
  in
  let cfg = Cluster.config ~shards ~policy ~machines () in
  Cluster.run ?seed cfg ~machine_config
    ~serve:(serve_config ?faults ?discipline ~mode ())
    (Workload.preset ~tenants (`Open rate))

let run_fleet_exn ?seed ?machines ?shards ?policy ?faults ?discipline ?mode
    ?tenants ?rate () =
  match
    run_fleet ?seed ?machines ?shards ?policy ?faults ?discipline ?mode
      ?tenants ?rate ()
  with
  | Ok fr -> fr
  | Error e -> Alcotest.fail ("fleet run failed: " ^ e)

(* --- routing --- *)

let tenant name rate =
  {
    Workload.name;
    weight = 1;
    mix = [ (Workload.Ssh_auth, 1) ];
    process = Workload.Open_loop { rate_per_s = rate };
    deadline = None;
    shape = Workload.Steady;
  }

let test_router_round_robin () =
  let tenants = List.init 7 (fun i -> tenant (Printf.sprintf "t%d" i) 1.) in
  let a = Router.assign Router.Round_robin ~machines:3 tenants in
  check
    Alcotest.(array int)
    "i mod machines"
    [| 0; 1; 2; 0; 1; 2; 0 |]
    a

let test_router_hash_by_name () =
  let tenants = List.init 12 (fun i -> tenant (Printf.sprintf "t%d" i) 1.) in
  let a = Router.assign Router.Hash_tenant ~machines:4 tenants in
  Array.iter (fun m -> checkb "in range" true (m >= 0 && m < 4)) a;
  (* A tenant's home depends on its name alone, not its list position. *)
  let shuffled = List.rev tenants in
  let b = Router.assign Router.Hash_tenant ~machines:4 shuffled in
  List.iteri
    (fun i t ->
      let j =
        let rec find k = function
          | [] -> Alcotest.fail "tenant lost in shuffle"
          | t' :: _ when t'.Workload.name = t.Workload.name -> k
          | _ :: rest -> find (k + 1) rest
        in
        find 0 shuffled
      in
      checki (t.Workload.name ^ " stable under reorder") a.(i) b.(j))
    tenants;
  (* Consistent: growing the fleet only moves tenants, never reshuffles
     the ones whose machine survives — every tenant that moves moves to
     the new machine or stays put. *)
  let c = Router.assign Router.Hash_tenant ~machines:5 tenants in
  List.iteri
    (fun i _ ->
      checkb "move only to the new machine" true (c.(i) = a.(i) || c.(i) = 4))
    tenants

let test_router_least_loaded () =
  (* One heavy tenant followed by light ones: the heavy one claims a
     machine alone; the light ones spread over the remaining machines. *)
  let tenants =
    tenant "heavy" 100. :: List.init 4 (fun i -> tenant (Printf.sprintf "l%d" i) 1.)
  in
  let a = Router.assign Router.Least_loaded ~machines:2 tenants in
  checki "heavy claims machine 0" 0 a.(0);
  check
    Alcotest.(array int)
    "lights all land on the other machine"
    [| 0; 1; 1; 1; 1 |]
    a

let test_router_cost_weighted () =
  (* Four tenants at the same offered rate, but one's mix is the
     certificate-expensive KV kind: cost weighting gives it a machine
     alone, while rate-only least-loaded sees four equal tenants and
     alternates them. *)
  let mix name kind =
    {
      Workload.name;
      weight = 1;
      mix = [ (kind, 1) ];
      process = Workload.Open_loop { rate_per_s = 1. };
      deadline = None;
      shape = Workload.Steady;
    }
  in
  let tenants =
    [
      mix "kv" Workload.Kv_update;
      mix "s0" Workload.Ssh_auth;
      mix "s1" Workload.Ssh_auth;
      mix "s2" Workload.Ssh_auth;
    ]
  in
  let a = Router.assign Router.Cost_weighted ~machines:2 tenants in
  check
    Alcotest.(array int)
    "expensive mix claims a machine alone"
    [| 0; 1; 1; 1 |]
    a;
  checkb "differs from rate-only least-loaded" true
    (Router.assign Router.Least_loaded ~machines:2 tenants <> a)

let test_router_rejects_no_machines () =
  Alcotest.check_raises "machines < 1"
    (Invalid_argument "Router.assign: machines must be positive") (fun () ->
      ignore (Router.assign Router.Round_robin ~machines:0 [ tenant "t" 1. ]))

(* --- determinism across shard counts --- *)

let test_shard_determinism () =
  List.iter
    (fun mode ->
      let r1 = run_fleet_exn ~shards:1 ~mode () in
      let r4 = run_fleet_exn ~shards:4 ~mode () in
      checks
        (Server.mode_name mode ^ ": shards=1 = shards=4")
        (Fleet_report.render r1) (Fleet_report.render r4))
    [ Server.Current; Server.Proposed; Server.Sfi ]

let test_shard_determinism_with_faults () =
  let faults = Sea_fault.Fault.spec ~seed:13 ~rate:0.05 () in
  let r1 = run_fleet_exn ~shards:1 ~faults () in
  let r3 = run_fleet_exn ~shards:3 ~faults () in
  checks "fault schedules shard-independent" (Fleet_report.render r1)
    (Fleet_report.render r3)

let test_cost_shard_determinism () =
  (* The load-bearing property extended to the cost-aware pair: with
     cost-weighted routing and cost-budget admission, shards 1 and 4
     still merge to a byte-identical fleet report, and the budget
     surfaces in it. *)
  let go shards =
    run_fleet_exn ~seed:5L ~shards ~policy:Router.Cost_weighted
      ~discipline:(Admission.Cost 4_000_000) ()
  in
  let r1 = go 1 and r4 = go 4 in
  checks "cost-aware fleet is shard-independent" (Fleet_report.render r1)
    (Fleet_report.render r4);
  checkb "fleet report surfaces the budget" true
    (r1.Fleet_report.cost_budget = Some 4_000_000)

let test_repeatable_and_seed_sensitive () =
  let a = run_fleet_exn ~seed:5L () and b = run_fleet_exn ~seed:5L () in
  checks "same seed, same fleet report" (Fleet_report.render a)
    (Fleet_report.render b);
  let c = run_fleet_exn ~seed:6L () in
  checkb "different seed, different fleet report" true
    (Fleet_report.render a <> Fleet_report.render c)

let test_machine_seed_independence () =
  (* Growing the fleet must not disturb the machines that already
     existed: with round-robin and a tenant count that keeps machine 0's
     share fixed, machine 0's report is the same in a 2-machine and a
     4-machine fleet (its engine stream depends only on (seed, 0)). *)
  let share_of fr i =
    match List.nth fr.Fleet_report.per_machine i with
    | { Fleet_report.report = Some r; _ } -> Report.render r
    | _ -> Alcotest.fail "machine unexpectedly idle"
  in
  (* Hash routing keeps most tenants put when the fleet grows by one
     machine; any machine whose tenant share is literally unchanged must
     then produce a byte-identical report in both fleets. *)
  let tenants = List.init 8 (fun i -> tenant (Printf.sprintf "t%d" i) 4.) in
  let run machines =
    let cfg = Cluster.config ~policy:Router.Hash_tenant ~machines () in
    match
      Cluster.run ~seed:9L cfg
        ~machine_config:(Sea_hw.Machine.proposed_variant machine_config)
        ~serve:(serve_config ~mode:Server.Proposed ())
        tenants
    with
    | Ok fr -> fr
    | Error e -> Alcotest.fail e
  in
  let small = run 4 and large = run 5 in
  let a4 = Router.assign Router.Hash_tenant ~machines:4 tenants in
  let a5 = Router.assign Router.Hash_tenant ~machines:5 tenants in
  let shares a m =
    List.filteri (fun i _ -> a.(i) = m) tenants
    |> List.map (fun t -> t.Workload.name)
  in
  let compared = ref 0 in
  for m = 0 to 3 do
    if shares a4 m = shares a5 m && shares a4 m <> [] then begin
      incr compared;
      checks
        (Printf.sprintf "machine %d unchanged by fleet growth" m)
        (share_of small m) (share_of large m)
    end
  done;
  (* At least one machine's share survives 4 -> 5 growth with this
     population; if the ring constants ever change such that none does,
     this fails loudly instead of the test silently passing. *)
  checkb "at least one machine share survived fleet growth" true
    (!compared > 0)

(* --- merge invariants --- *)

let test_merge_invariants () =
  let fr = run_fleet_exn ~machines:3 ~tenants:7 () in
  let f = fr.Fleet_report.fleet in
  let per_machine_sum field =
    List.fold_left
      (fun acc row ->
        match row.Fleet_report.report with
        | None -> acc
        | Some r -> acc + field r.Report.aggregate)
      0 fr.Fleet_report.per_machine
  in
  checki "offered sums" f.Report.offered
    (per_machine_sum (fun a -> a.Report.offered));
  checki "completed sums" f.Report.completed
    (per_machine_sum (fun a -> a.Report.completed));
  checki "shed sums" f.Report.shed (per_machine_sum (fun a -> a.Report.shed));
  checkb "fleet row consistent" true (Report.row_consistent f);
  (* Exact cross-machine percentiles: the fleet sample count is the sum
     of the machine sample counts. *)
  checki "latency samples concatenate"
    (Stats.count f.Report.latency_ms)
    (List.fold_left
       (fun acc row ->
         match row.Fleet_report.report with
         | None -> acc
         | Some r -> acc + Stats.count r.Report.aggregate.Report.latency_ms)
       0 fr.Fleet_report.per_machine);
  (* The window is the slowest machine's window. *)
  checkb "window is max" true
    (List.for_all
       (fun row ->
         match row.Fleet_report.report with
         | None -> true
         | Some r -> Time.compare r.Report.window fr.Fleet_report.window <= 0)
       fr.Fleet_report.per_machine)

let test_idle_machines_render () =
  (* More machines than tenants: the extras are idle but still listed. *)
  let fr = run_fleet_exn ~machines:6 ~tenants:2 ~rate:8. () in
  checki "six rows" 6 (List.length fr.Fleet_report.per_machine);
  checki "four idle" 4 fr.Fleet_report.idle;
  checkb "idle rendered" true
    (let s = Fleet_report.render fr in
     let rec count i acc =
       match String.index_from_opt s i 'i' with
       | Some j when j + 4 <= String.length s && String.sub s j 4 = "idle" ->
           count (j + 4) (acc + 1)
       | Some j -> count (j + 1) acc
       | None -> acc
     in
     count 0 0 >= 4)

(* --- validation (the CLI-facing bugfix) --- *)

let test_config_validation () =
  Alcotest.check_raises "machines = 0"
    (Invalid_argument "--machines must be positive") (fun () ->
      ignore (Cluster.config ~machines:0 ()));
  Alcotest.check_raises "machines < 0"
    (Invalid_argument "--machines must be positive") (fun () ->
      ignore (Cluster.config ~machines:(-3) ()));
  Alcotest.check_raises "shards = 0"
    (Invalid_argument "--shards must be positive") (fun () ->
      ignore (Cluster.config ~shards:0 ~machines:2 ()));
  Alcotest.check_raises "shards > machines"
    (Invalid_argument "--shards must not exceed --machines (idle shards)")
    (fun () -> ignore (Cluster.config ~shards:4 ~machines:2 ()));
  let ok = Cluster.config ~shards:2 ~machines:2 () in
  checki "shards = machines allowed" 2 ok.Cluster.shards

let test_run_rejects_empty_and_retry () =
  let cfg = Cluster.config ~machines:2 () in
  Alcotest.check_raises "no tenants"
    (Invalid_argument "Cluster.run: no tenants") (fun () ->
      ignore
        (Cluster.run cfg ~machine_config
           ~serve:(serve_config ~mode:Server.Current ())
           []));
  let serve =
    Server.config ~queue_depth:8
      ~faults:(Sea_fault.Fault.spec ~seed:1 ~rate:0.01 ())
      ~retry:(Sea_fault.Retry.policy ())
      ~mode:Server.Current ~duration:(Time.s 1.) ()
  in
  match
    Cluster.run cfg ~machine_config ~serve (Workload.preset ~tenants:2 (`Open 2.))
  with
  | Ok _ -> Alcotest.fail "preset retry policy must be rejected"
  | Error e ->
      let contains_sub s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      checkb "error names retry" true (contains_sub e "retry")

(* --- churn: failure domains, detection, failover --- *)

(* The same widened seed band as the fault soak: SEA_FAULT_SEEDS in CI
   sweeps the migration-atomicity property across 8 seeds. *)
let churn_seeds =
  match Sys.getenv_opt "SEA_FAULT_SEEDS" with
  | None | Some "" -> [ 1; 2; 3 ]
  | Some s ->
      String.split_on_char ' ' s
      |> List.concat_map (String.split_on_char ',')
      |> List.filter_map int_of_string_opt

let proposed_config = Sea_hw.Machine.proposed_variant machine_config

let churn_fleet ?(machines = 4) ?(shards = 1) ?(mode = Server.Proposed)
    ?(failover = true) ?(link_loss = 0.) ?(mttf = 1.5) ?(mttr = 2.) ?partition
    ?(plan_seed = 1) ?(duration = 4.) ?(rate = 32.) ?trace () =
  let machine_config =
    match mode with
    | Server.Current | Server.Sfi -> machine_config
    | Server.Proposed -> proposed_config
  in
  let cfg = Cluster.config ~shards ~machines () in
  let serve =
    Server.config ~queue_depth:8 ~mode ~duration:(Time.s duration) ()
  in
  let plan =
    Sea_fault.Machine_fault.spec ~mttf:(Time.s mttf) ~mttr:(Time.s mttr)
      ?partition ~link_loss ~seed:plan_seed ()
  in
  let churn = Cluster.churn ~failover plan () in
  match
    Cluster.run ~seed:3L ?trace ~churn cfg ~machine_config ~serve
      (Workload.preset ~tenants:8 (`Open rate))
  with
  | Ok fr -> fr
  | Error e -> Alcotest.fail ("churn fleet run failed: " ^ e)

let test_churn_shard_determinism () =
  (* The load-bearing property survives churn: crashes, partitions,
     heartbeat detection, lossy migrations — the merged render must
     still be byte-identical across shard counts on all three modes. *)
  List.iter
    (fun mode ->
      let go shards =
        churn_fleet ~machines:6 ~shards ~mode ~link_loss:0.3
          ~partition:(Time.s 1.) ()
      in
      checks
        (Server.mode_name mode ^ ": churn shards 1 = 3")
        (Fleet_report.render (go 1))
        (Fleet_report.render (go 3)))
    [ Server.Current; Server.Proposed; Server.Sfi ]

let test_churn_quiet_plan_prefix () =
  let cfg = Cluster.config ~machines:4 () in
  let serve =
    Server.config ~queue_depth:8 ~mode:Server.Proposed ~duration:(Time.s 1.) ()
  in
  let tenants = Workload.preset ~tenants:8 (`Open 32.) in
  let plain =
    match
      Cluster.run ~seed:3L cfg ~machine_config:proposed_config ~serve tenants
    with
    | Ok fr -> Fleet_report.render fr
    | Error e -> Alcotest.fail e
  in
  (* An MTTF of ~3 hours against a 1 s window: the plan draws no outage,
     so the epoch path must reproduce the plain schedule exactly. *)
  let quiet =
    let plan = Sea_fault.Machine_fault.spec ~mttf:(Time.s 10_000.) () in
    match
      Cluster.run ~seed:3L ~churn:(Cluster.churn plan ()) cfg
        ~machine_config:proposed_config ~serve tenants
    with
    | Ok fr -> fr
    | Error e -> Alcotest.fail e
  in
  let quiet_render = Fleet_report.render quiet in
  checkb "quiet-churn render extends the plain render" true
    (String.length quiet_render > String.length plain
    && String.sub quiet_render 0 (String.length plain) = plain);
  (match quiet.Fleet_report.churn with
  | None -> Alcotest.fail "churn stats missing"
  | Some c ->
      checki "no crashes" 0 c.Fleet_report.crashes;
      checki "no lost requests" 0 c.Fleet_report.lost_requests)

let test_churn_counters_and_recovery () =
  (* A harsh plan on the proposed fleet: outages happen, the detector
     fires, tenants move, and sealed-state migrations run. *)
  let fr = churn_fleet ~machines:4 ~mttf:1. ~mttr:2. ~duration:4. () in
  match fr.Fleet_report.churn with
  | None -> Alcotest.fail "churn stats missing"
  | Some c ->
      checkb "outages happened" true (c.Fleet_report.crashes > 0);
      checkb "detector counted misses" true (c.Fleet_report.heartbeat_misses > 0);
      checkb "tenants moved" true (c.Fleet_report.failovers > 0);
      checkb "migrations ran" true
        (c.Fleet_report.migrations + c.Fleet_report.cold_restarts > 0);
      checkb "black-holed traffic is accounted" true
        (c.Fleet_report.lost_requests > 0);
      (* The fleet row still balances with lost requests folded in. *)
      let f = fr.Fleet_report.fleet in
      checki "offered = completed + shed + timed_out + failed"
        f.Report.offered
        (f.Report.completed + f.Report.shed + f.Report.timed_out
       + f.Report.failed);
      let render = Fleet_report.render fr in
      let contains_sub s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      checkb "churn line rendered" true (contains_sub render "churn: crashes");
      checkb "recovered goodput rendered" true
        (contains_sub render "recovered goodput")

let test_failover_beats_fail_in_place () =
  (* The bench headline at test scale: failover must recover strictly
     more completions than failing in place under the same plan. *)
  let completed failover =
    (churn_fleet ~machines:6 ~failover ~mttf:1. ~mttr:3. ~duration:4.
       ~rate:48. ())
      .Fleet_report.fleet.Report.completed
  in
  let on = completed true and off = completed false in
  checkb
    (Printf.sprintf "failover on (%d) > off (%d)" on off)
    true (on > off)

let test_down_machine_renders_na () =
  (* Satellite regression: a machine down for its whole window has an
     empty completion window — the fleet merge and render must show n/a
     instead of raising from the empty sample set. *)
  checkb "percentile_opt on empty is None" true
    (Stats.percentile_opt (Stats.create ()) 95. = None);
  let serving =
    match run_fleet ~machines:1 ~tenants:2 ~rate:8. () with
    | Ok fr -> (
        match (List.hd fr.Fleet_report.per_machine).Fleet_report.report with
        | Some r -> r
        | None -> Alcotest.fail "machine idle")
    | Error e -> Alcotest.fail e
  in
  let rows =
    [
      { Fleet_report.index = 0; tenants = 2; report = Some serving; lost = 0 };
      { Fleet_report.index = 1; tenants = 2; report = None; lost = 37 };
    ]
  in
  let churn_stats =
    {
      Fleet_report.failover = false;
      crashes = 1;
      partitions = 0;
      heartbeat_misses = 3;
      failovers = 0;
      migrations = 0;
      cold_restarts = 0;
      torn_backouts = 0;
      link_drops = 0;
      link_retries = 0;
      lost_requests = 37;
      recovered = 0;
    }
  in
  let fr = Fleet_report.merge ~churn:churn_stats ~policy:"round-robin" rows in
  let render = Fleet_report.render fr in
  let contains_sub s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  checkb "down row renders n/a" true (contains_sub render "n/a (down)");
  checki "lost requests fold into fleet offered" fr.Fleet_report.fleet.Report.offered
    (serving.Report.aggregate.Report.offered + 37);
  checki "lost requests fold into fleet failed" fr.Fleet_report.fleet.Report.failed
    (serving.Report.aggregate.Report.failed + 37);
  checkb "down machine is not idle" true (fr.Fleet_report.idle = 0)

let test_migration_atomicity () =
  (* The exactly-once property, swept across the fault-seed band and a
     ladder of link-loss rates: whatever the link does to the transfer,
     the PAL ends resident on exactly one machine — suspended on the
     target, with every source-side claim (pages, sePCR) released — and
     a torn transfer is always reported as a cold restart. *)
  let pal = Workload.resident_pal Workload.Ssh_auth in
  List.iter
    (fun seed ->
      List.iter
        (fun loss ->
          List.iter
            (fun source_alive ->
              let mk i =
                Sea_hw.Machine.create
                  ~engine:
                    (Engine.create ~seed:(Int64.of_int ((seed * 7) + i)) ())
                  proposed_config
              in
              let source = mk 0 and target = mk 1 in
              let bank m =
                match Sea_tpm.Tpm.sepcr_bank (Sea_hw.Machine.tpm_exn m) with
                | Some b -> b
                | None -> Alcotest.fail "no sePCR bank on proposed hw"
              in
              let free_sepcrs m = Sea_tpm.Sepcr.free_count (bank m) in
              let free_pages m =
                List.length m.Sea_hw.Machine.free_list
              in
              let s_sepcr = free_sepcrs source and s_pages = free_pages source in
              let t_sepcr = free_sepcrs target and t_pages = free_pages target in
              let link =
                Link.create ~loss
                  (Rng.create ~seed:(Int64.of_int ((seed * 31) + 5)) ())
              in
              let ctx =
                Printf.sprintf "seed %d loss %.1f alive %b" seed loss
                  source_alive
              in
              match
                Migrate.failover ~source ~target ~link ~source_alive
                  ~blob_available:(seed mod 2 = 0) ~tenant:"t" ~kind_name:"ssh"
                  pal ()
              with
              | Error e -> Alcotest.fail (ctx ^ ": resident on neither: " ^ e)
              | Ok r ->
                  (* Resident on the target, exactly once... *)
                  checkb (ctx ^ ": target suspended") true
                    (Sea_core.Slaunch_session.state r.Migrate.target
                    = Sea_core.Lifecycle.Suspend);
                  (* ...and nowhere on the source: every claim the
                     protocol made there is back out. *)
                  checki (ctx ^ ": source sePCRs restored") s_sepcr
                    (free_sepcrs source);
                  checki (ctx ^ ": source pages restored") s_pages
                    (free_pages source);
                  (if r.Migrate.torn then
                     checkb (ctx ^ ": torn implies cold") true
                       (r.Migrate.outcome = Migrate.Cold));
                  Migrate.dispose r;
                  checki (ctx ^ ": target sePCRs restored after dispose")
                    t_sepcr (free_sepcrs target);
                  checki (ctx ^ ": target pages restored after dispose")
                    t_pages (free_pages target))
            [ true; false ])
        [ 0.; 0.5; 0.9 ])
    churn_seeds

let test_churn_trace_gated () =
  (* Tracing must be observer-only: the same churn run with per-machine
     sinks installed renders byte-identically, and the sinks carry the
     churn category's events. *)
  let plain = churn_fleet ~machines:4 ~mttf:1. ~mttr:2. () in
  let sinks = Array.init 4 (fun _ -> Sea_trace.Trace.create ()) in
  let traced =
    churn_fleet ~machines:4 ~mttf:1. ~mttr:2. ~trace:(fun i -> sinks.(i)) ()
  in
  checks "render identical with tracing on"
    (Fleet_report.render plain)
    (Fleet_report.render traced);
  let all_json =
    String.concat "" (Array.to_list (Array.map Sea_trace.Trace.export_json sinks))
  in
  let contains_sub s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  checkb "heartbeat misses traced" true (contains_sub all_json "heartbeat-miss");
  checkb "migration spans traced" true (contains_sub all_json "migrate")

let test_churn_validation () =
  let plan = Sea_fault.Machine_fault.spec ~mttf:(Time.s 2.) () in
  Alcotest.check_raises "heartbeat must be positive"
    (Invalid_argument "Cluster.churn: heartbeat must be positive") (fun () ->
      ignore (Cluster.churn ~heartbeat:Time.zero plan ()));
  Alcotest.check_raises "dead_after must be >= 1"
    (Invalid_argument "Cluster.churn: dead_after must be >= 1") (fun () ->
      ignore (Cluster.churn ~dead_after:0 plan ()));
  Alcotest.check_raises "mttf must be positive"
    (Invalid_argument "Machine_fault.spec: mttf must be positive") (fun () ->
      ignore (Sea_fault.Machine_fault.spec ~mttf:Time.zero ()));
  (* Failover with a single machine has no survivor: Error, not a hang
     or a silent no-op. *)
  let cfg = Cluster.config ~machines:1 () in
  let serve =
    Server.config ~queue_depth:8 ~mode:Server.Proposed ~duration:(Time.s 1.) ()
  in
  match
    Cluster.run ~churn:(Cluster.churn plan ()) cfg
      ~machine_config:proposed_config ~serve
      (Workload.preset ~tenants:2 (`Open 8.))
  with
  | Ok _ -> Alcotest.fail "single-machine failover must be rejected"
  | Error e ->
      let contains_sub s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      checkb "error names the machine requirement" true
        (contains_sub e "at least 2 machines")

(* Black-holed load is counted from each tenant's own arrival train
   over the down interval, so however finely an observe-only controller
   cuts the window, the same requests are lost — even a 3.3 req/s
   tenant's, over 0.1 s epochs. *)
let test_lost_invariant_to_cuts () =
  let go autoscale =
    let cfg = Cluster.config ~machines:4 ~policy:Router.Hash_tenant () in
    let serve =
      Server.config ~queue_depth:8 ~mode:Server.Sfi ~duration:(Time.s 10.) ()
    in
    let plan =
      Sea_fault.Machine_fault.spec ~mttf:(Time.s 4.) ~mttr:(Time.s 2.) ()
    in
    match
      Cluster.run ~seed:1L ~churn:(Cluster.churn ~failover:false plan ())
        ?autoscale cfg ~machine_config ~serve
        (Workload.preset ~tenants:12 (`Open 40.))
    with
    | Ok fr -> (Option.get fr.Fleet_report.churn).Fleet_report.lost_requests
    | Error e -> Alcotest.fail e
  in
  let static interval =
    Some
      (Autoscale.config ~policy:Autoscale.Static ~interval:(Time.s interval) ())
  in
  let plain = go None in
  checkb "outages black-holed some load" true (plain > 0);
  List.iter
    (fun interval ->
      checki
        (Printf.sprintf "lost requests with a %.1f s controller" interval)
        plain (go (static interval)))
    [ 1.; 0.1 ]

(* --- autoscale --- *)

let contains_sub s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_autoscale_decide () =
  let cfg =
    Autoscale.config ~policy:Autoscale.Migrate ~interval:(Time.ms 250.)
      ~hot_threshold:2. ()
  in
  let weights = [| 32; 32; 32; 32 |] in
  let alive = [| true; true; true; true |] in
  (* One machine at 4x the others: hot, halved; the cold ones are
     already at full weight so they stay put. *)
  let d =
    Autoscale.decide cfg ~weights ~alive ~loads:[| 400.; 100.; 100.; 100. |]
  in
  check Alcotest.(list int) "hot machine detected" [ 0 ] d.Autoscale.hot;
  check Alcotest.(array int) "hot halved, full-weight cool untouched"
    [| 16; 32; 32; 32 |] d.Autoscale.weights;
  (* Inside the hysteresis band nothing changes. *)
  let d =
    Autoscale.decide cfg ~weights ~alive ~loads:[| 150.; 100.; 100.; 100. |]
  in
  check Alcotest.(array int) "hysteresis band is a no-op" weights
    d.Autoscale.weights;
  (* A shrunken machine regrows (doubling) only when cold. *)
  let d =
    Autoscale.decide cfg ~weights:[| 4; 32; 32; 32 |] ~alive
      ~loads:[| 10.; 200.; 200.; 200. |]
  in
  check Alcotest.(list int) "cooled machine listed" [ 0 ] d.Autoscale.cooled;
  check Alcotest.(array int) "cooled machine regrows" [| 8; 32; 32; 32 |]
    d.Autoscale.weights;
  (* min_weight floors the shrink. *)
  let floor_cfg =
    Autoscale.config ~policy:Autoscale.Migrate ~interval:(Time.ms 250.)
      ~hot_threshold:2. ~min_weight:8 ()
  in
  let d =
    Autoscale.decide floor_cfg ~weights:[| 8; 32; 32; 32 |] ~alive
      ~loads:[| 900.; 100.; 100.; 100. |]
  in
  check Alcotest.(array int) "min_weight floors the shrink"
    [| 8; 32; 32; 32 |] d.Autoscale.weights;
  (* Zero load everywhere: no decision at all. *)
  let d = Autoscale.decide cfg ~weights ~alive ~loads:[| 0.; 0.; 0.; 0. |] in
  check Alcotest.(array int) "zero mean is a no-op" weights d.Autoscale.weights;
  checkb "no hot or cooled on zero mean" true
    (d.Autoscale.hot = [] && d.Autoscale.cooled = []);
  (* Dead machines are invisible: excluded from the mean and never
     resized. *)
  let d =
    Autoscale.decide cfg ~weights ~alive:[| true; false; true; true |]
      ~loads:[| 500.; 10_000.; 100.; 100. |]
  in
  check Alcotest.(list int) "dead machine not detected" [ 0 ] d.Autoscale.hot;
  check Alcotest.(array int) "dead machine never resized"
    [| 16; 32; 32; 32 |] d.Autoscale.weights

(* Satellite regression for the ring-resize stability bound: resizing
   (or removing) ONE machine must move at most ~its own share of the
   tenants — pinned at <= 2/N — and every mover must come off the
   resized machine. Before the splitmix64 finalizer landed in
   [Router.ring_key], raw FNV-1a left each machine's points in a few
   tight clumps, so machine 0 owned one giant arc that survived any
   weight: resizes moved (almost) nothing and this bound held only
   vacuously; the companion check below (shrinking to weight 1 sheds
   most tenants) is what failed. *)
let test_ring_resize_stability () =
  let machines = 4 in
  let tenants =
    List.init 200 (fun i -> tenant (Printf.sprintf "tenant-%d.example" i) 1.)
  in
  let alive = List.init machines Fun.id in
  let place ?weights () =
    let ring = Router.make_ring ?weights alive in
    List.map (fun t -> Router.lookup ring t) tenants
  in
  let base = place () in
  let full = Array.make machines Router.virtual_points in
  (* Halving one machine's weight: movers only off that machine, total
     moved fraction <= 2/N. *)
  for m = 0 to machines - 1 do
    let weights = Array.copy full in
    weights.(m) <- Router.virtual_points / 2;
    let resized = place ~weights () in
    let moved = ref 0 in
    List.iter2
      (fun b r ->
        if b <> r then begin
          incr moved;
          checki (Printf.sprintf "mover left machine %d" m) m b
        end)
      base resized;
    checkb
      (Printf.sprintf "halving machine %d moved %d <= 2/N of 200" m !moved)
      true
      (float_of_int !moved <= 2. /. float_of_int machines *. 200.)
  done;
  (* Restoring the weight restores the placement exactly. *)
  let weights = Array.copy full in
  weights.(0) <- 1;
  weights.(0) <- Router.virtual_points;
  check Alcotest.(list int) "restore is exact" base (place ~weights ());
  (* The companion direction: shrinking to weight 1 must actually shed
     load — the machine keeps at most a ~1-point share of the ring. *)
  let weights = Array.copy full in
  weights.(0) <- 1;
  let kept =
    List.length (List.filter (fun h -> h = 0) (place ~weights ()))
  in
  let before = List.length (List.filter (fun h -> h = 0) base) in
  checkb
    (Printf.sprintf "weight 1 sheds load (%d -> %d tenants)" before kept)
    true
    (kept * 4 <= before);
  (* Removing a machine outright: same bound, same directionality. *)
  let survivors = [ 0; 1; 3 ] in
  let ring = Router.make_ring survivors in
  let moved = ref 0 in
  List.iter2
    (fun b t ->
      let r = Router.lookup ring t in
      if b <> r then begin
        incr moved;
        checki "mover came off the removed machine" 2 b
      end
      else checkb "survivor keeps home" true (b <> 2 || r <> 2))
    base tenants;
  checkb
    (Printf.sprintf "removal moved %d <= 2/N of 200" !moved)
    true
    (float_of_int !moved <= 2. /. float_of_int machines *. 200.)

(* A 12-tenant population with the flash crowd concentrated on the
   ring's most-loaded machine — the A12 bench scenario in miniature,
   reused by the determinism, counter and race tests below. *)
let hotspot_tenants ?(machines = 4) ?(rate = 120.) () =
  let name i = Printf.sprintf "t%d-ssh-auth" i in
  let probe =
    List.init 12 (fun i -> tenant (name i) 1.)
  in
  let ring = Router.make_ring (List.init machines Fun.id) in
  let counts = Array.make machines 0 in
  List.iter
    (fun t ->
      let m = Router.lookup ring t in
      counts.(m) <- counts.(m) + 1)
    probe;
  let hot = ref 0 in
  Array.iteri (fun m c -> if c > counts.(!hot) then hot := m) counts;
  let flash =
    Workload.Flash { at = Time.s 1.; width = Time.s 2.; spike = 6. }
  in
  List.map
    (fun t ->
      Workload.tenant ~name:t.Workload.name
        ~shape:
          (if Router.lookup ring t = !hot then flash else Workload.Steady)
        (Workload.Open_loop { rate_per_s = rate /. 12. }))
    probe

let auto_fleet ?(machines = 4) ?(shards = 1) ?(mode = Server.Proposed)
    ?(policy = Autoscale.Auto) ?churn ?(duration = 4.) ?(rate = 120.) () =
  let machine_config =
    match mode with
    | Server.Current | Server.Sfi -> machine_config
    | Server.Proposed -> proposed_config
  in
  let cfg =
    Cluster.config ~shards ~machines ~policy:Router.Hash_tenant ()
  in
  let serve =
    Server.config ~queue_depth:8 ~mode ~duration:(Time.s duration) ()
  in
  let autoscale =
    Autoscale.config ~policy ~interval:(Time.ms 250.) ~hot_threshold:1.8 ()
  in
  match
    Cluster.run ~seed:11L ?churn ~autoscale cfg ~machine_config ~serve
      (hotspot_tenants ~machines ~rate ())
  with
  | Ok fr -> fr
  | Error e -> Alcotest.fail ("autoscale fleet run failed: " ^ e)

let test_autoscale_shard_determinism () =
  (* The load-bearing gate with the controller on: every decision
     happens at an epoch barrier on the main domain, so the shard count
     is invisible — byte-identical renders on 1 and 4 domains, for the
     migrating and spreading backends alike. *)
  List.iter
    (fun (mode, policy) ->
      let a = auto_fleet ~shards:1 ~mode ~policy () in
      let b = auto_fleet ~shards:4 ~mode ~policy () in
      checks
        (Printf.sprintf "autoscale %s/%s shards 1 = 4"
           (Autoscale.policy_name policy)
           (Server.mode_name mode))
        (Fleet_report.render a) (Fleet_report.render b))
    [
      (Server.Proposed, Autoscale.Migrate);
      (Server.Proposed, Autoscale.Spread);
      (Server.Sfi, Autoscale.Auto);
    ];
  (* And composed with churn: barrier order is fixed, so failover plus
     rebalancing still shards invisibly. *)
  let plan =
    Sea_fault.Machine_fault.spec ~mttf:(Time.s 1.5) ~mttr:(Time.s 2.) ~seed:1
      ()
  in
  let churn () = Cluster.churn plan () in
  let a = auto_fleet ~shards:1 ~churn:(churn ()) () in
  let b = auto_fleet ~shards:4 ~churn:(churn ()) () in
  checks "autoscale + churn shards 1 = 4" (Fleet_report.render a)
    (Fleet_report.render b)

let test_autoscale_counters_and_render () =
  (* Proposed + migrate: the hot spot exists by construction, so the
     controller must tick, detect, resize and move warm. *)
  let fr = auto_fleet ~policy:Autoscale.Migrate () in
  let a =
    match fr.Fleet_report.autoscale with
    | Some a -> a
    | None -> Alcotest.fail "autoscale stats missing"
  in
  checkb "ticks fired" true (a.Fleet_report.ticks > 0);
  checkb "hot spot detected" true (a.Fleet_report.hot_events > 0);
  checkb "ring resized" true (a.Fleet_report.resizes > 0);
  checkb "tenants moved" true (a.Fleet_report.tenants_moved > 0);
  checkb "migrate policy moves warm, never respawns" true
    (a.Fleet_report.warm_moves > 0 && a.Fleet_report.respawns = 0);
  (* No churn in this run, so every ring move executes: exactly one PAL
     move per moved tenant (single-kind mixes). *)
  checki "every ring move is exactly one PAL move"
    a.Fleet_report.tenants_moved
    (a.Fleet_report.warm_moves + a.Fleet_report.cold_moves
   + a.Fleet_report.respawns);
  let render = Fleet_report.render fr in
  checkb "autoscale line renders" true (contains_sub render "autoscale:");
  checkb "rebalance line renders" true (contains_sub render "rebalance:");
  checkb "policy named" true (contains_sub render "policy migrate");
  (* SFI + auto: software isolation has no sePCR state to ship, so auto
     degrades every move to a 25 us respawn. *)
  let fr = auto_fleet ~mode:Server.Sfi ~policy:Autoscale.Auto () in
  let a = Option.get fr.Fleet_report.autoscale in
  checkb "sfi auto respawns, never migrates" true
    (a.Fleet_report.respawns > 0 && a.Fleet_report.warm_moves = 0);
  (* Static: samples and reports, but the ring never changes. *)
  let fr = auto_fleet ~policy:Autoscale.Static () in
  let a = Option.get fr.Fleet_report.autoscale in
  checkb "static detects but never acts" true
    (a.Fleet_report.hot_events > 0
    && a.Fleet_report.resizes = 0
    && a.Fleet_report.tenants_moved = 0);
  (* No controller, no lines. *)
  let plain = run_fleet_exn ~seed:11L () in
  checkb "no autoscale lines without a controller" true
    (not (contains_sub (Fleet_report.render plain) "autoscale:"))

let test_autoscale_crash_race () =
  (* Satellite property, swept across the fault-seed band (widened via
     SEA_FAULT_SEEDS in the CI fault soak): autoscale rebalancing
     racing machine crashes must keep the books exact — the merged
     fleet row satisfies offered = completed + shed + timed_out +
     failed with black-holed requests folded in — and every executed
     move is accounted exactly once (a tenant's resident PALs are warm-
     migrated, cold-restarted or respawned, never double-counted and
     never lost in between). *)
  List.iter
    (fun seed ->
      let plan =
        Sea_fault.Machine_fault.spec ~mttf:(Time.s 1.) ~mttr:(Time.s 1.5)
          ~seed ()
      in
      let fr = auto_fleet ~churn:(Cluster.churn plan ()) () in
      let f = fr.Fleet_report.fleet in
      let ctx = Printf.sprintf "seed %d" seed in
      checki
        (ctx ^ ": offered = completed + shed + timed_out + failed")
        f.Report.offered
        (f.Report.completed + f.Report.shed + f.Report.timed_out
       + f.Report.failed);
      let a = Option.get fr.Fleet_report.autoscale in
      let moves =
        a.Fleet_report.warm_moves + a.Fleet_report.cold_moves
        + a.Fleet_report.respawns
      in
      (* Single-kind mixes: a re-homed tenant carries exactly one
         resident PAL, so a PAL is never moved twice for one ring move
         — and a move whose source or target was down or dead is
         skipped entirely (the failover path owns those residents),
         never half-executed. *)
      checkb
        (Printf.sprintf "%s: PAL moves (%d) never exceed ring moves (%d)"
           ctx moves a.Fleet_report.tenants_moved)
        true
        (moves <= a.Fleet_report.tenants_moved);
      (* The same run is still deterministic under the race. *)
      let fr' = auto_fleet ~churn:(Cluster.churn plan ()) () in
      checks (ctx ^ ": race is deterministic") (Fleet_report.render fr)
        (Fleet_report.render fr');
      (* Today's hardware saturates under the same flash crowd, so a
         crash always finds requests queued. They die with the machine
         and are failed, on top of the black-holed arrivals; a crashed
         machine never serves its backlog. No fault plan is installed,
         so crashes are the only other source of failures. *)
      let fr =
        auto_fleet ~mode:Server.Current ~rate:12.
          ~churn:(Cluster.churn plan ()) ()
      in
      List.iter
        (fun row ->
          match row.Fleet_report.report with
          | None -> ()
          | Some r ->
              List.iter
                (fun (t : Report.row) ->
                  checkb
                    (Printf.sprintf "%s: m%d %s row consistent" ctx
                       row.Fleet_report.index t.Report.tenant)
                    true (Report.row_consistent t))
                (r.Report.aggregate :: r.Report.rows))
        fr.Fleet_report.per_machine;
      let f = fr.Fleet_report.fleet in
      checkb (ctx ^ ": current-hw fleet row consistent") true
        (Report.row_consistent f);
      let c = Option.get fr.Fleet_report.churn in
      checkb (ctx ^ ": crashes happened") true (c.Fleet_report.crashes > 0);
      checkb
        (Printf.sprintf "%s: crashes failed queued requests (%d failed, %d lost)"
           ctx f.Report.failed c.Fleet_report.lost_requests)
        true
        (f.Report.failed > c.Fleet_report.lost_requests))
    churn_seeds

let test_autoscale_validation () =
  let serve =
    Server.config ~queue_depth:8 ~mode:Server.Proposed ~duration:(Time.s 1.)
      ()
  in
  let autoscale = Autoscale.config () in
  let tenants = Workload.preset ~tenants:4 (`Open 8.) in
  (* Autoscaling needs the consistent-hash ring. *)
  (match
     Cluster.run ~autoscale
       (Cluster.config ~machines:4 ())
       ~machine_config:proposed_config ~serve tenants
   with
  | Ok _ -> Alcotest.fail "autoscale without hash routing must be rejected"
  | Error e -> checkb "error names hash routing" true (contains_sub e "hash"));
  (* ...and someone to rebalance onto. *)
  (match
     Cluster.run ~autoscale
       (Cluster.config ~machines:1 ~policy:Router.Hash_tenant ())
       ~machine_config:proposed_config ~serve tenants
   with
  | Ok _ -> Alcotest.fail "single-machine autoscale must be rejected"
  | Error e ->
      checkb "error names the machine requirement" true
        (contains_sub e "at least 2 machines"));
  Alcotest.check_raises "interval must be positive"
    (Invalid_argument "Autoscale.config: --scale-interval must be positive")
    (fun () -> ignore (Autoscale.config ~interval:Time.zero ()));
  Alcotest.check_raises "hot threshold must exceed 1"
    (Invalid_argument "Autoscale.config: --hot-threshold must exceed 1")
    (fun () -> ignore (Autoscale.config ~hot_threshold:1. ()))

(* Observing must not perturb: an observe-only controller cuts the
   window at every sampling tick, and the live servers pause at each
   cut instead of restarting, so the report is the uncontrolled one
   apart from the controller's own two lines. *)
let test_static_controller_observes_only () =
  let drop_controller_lines s =
    String.split_on_char '\n' s
    |> List.filter (fun l ->
           not (contains_sub l "autoscale:" || contains_sub l "rebalance:"))
    |> String.concat "\n"
  in
  List.iter
    (fun (mode, vtpm, rate) ->
      let machine_config =
        match mode with
        | Server.Proposed -> proposed_config
        | Server.Current | Server.Sfi -> machine_config
      in
      let go autoscale =
        let serve =
          Server.config ~queue_depth:8 ?vtpm ~mode ~duration:(Time.s 3.) ()
        in
        match
          Cluster.run ~seed:5L ?autoscale
            (Cluster.config ~machines:4 ~policy:Router.Hash_tenant ())
            ~machine_config ~serve
            (Workload.preset ~tenants:8 (`Open rate))
        with
        | Ok fr -> drop_controller_lines (Fleet_report.render fr)
        | Error e -> Alcotest.fail e
      in
      let plain = go None in
      List.iter
        (fun interval ->
          checks
            (Printf.sprintf "%s: static controller every %.2f s"
               (Server.mode_name mode) interval)
            plain
            (go
               (Some
                  (Autoscale.config ~policy:Autoscale.Static
                     ~interval:(Time.s interval) ()))))
        [ 1.; 0.25 ])
    [
      (Server.Current, Some 4, 4.);
      (Server.Proposed, None, 40.);
      (Server.Sfi, None, 40.);
    ]

let () =
  Alcotest.run "cluster"
    [
      ( "router",
        [
          Alcotest.test_case "round-robin" `Quick test_router_round_robin;
          Alcotest.test_case "hash by name" `Quick test_router_hash_by_name;
          Alcotest.test_case "least-loaded" `Quick test_router_least_loaded;
          Alcotest.test_case "cost-weighted" `Quick test_router_cost_weighted;
          Alcotest.test_case "rejects zero machines" `Quick
            test_router_rejects_no_machines;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "shards 1 = shards 4 (all modes)" `Quick
            test_shard_determinism;
          Alcotest.test_case "shard-independent fault schedules" `Quick
            test_shard_determinism_with_faults;
          Alcotest.test_case "cost-aware pair shard-independent" `Quick
            test_cost_shard_determinism;
          Alcotest.test_case "repeatable and seed-sensitive" `Quick
            test_repeatable_and_seed_sensitive;
          Alcotest.test_case "machine seeds independent of fleet size" `Quick
            test_machine_seed_independence;
        ] );
      ( "merge",
        [
          Alcotest.test_case "count invariants" `Quick test_merge_invariants;
          Alcotest.test_case "idle machines" `Quick test_idle_machines_render;
        ] );
      ( "validation",
        [
          Alcotest.test_case "config bounds" `Quick test_config_validation;
          Alcotest.test_case "empty tenants and preset retry" `Quick
            test_run_rejects_empty_and_retry;
        ] );
      ( "churn",
        [
          Alcotest.test_case "churn shards 1 = 3 (all modes)" `Quick
            test_churn_shard_determinism;
          Alcotest.test_case "quiet plan reproduces the plain render" `Quick
            test_churn_quiet_plan_prefix;
          Alcotest.test_case "counters and recovered goodput" `Quick
            test_churn_counters_and_recovery;
          Alcotest.test_case "failover beats failing in place" `Quick
            test_failover_beats_fail_in_place;
          Alcotest.test_case "down machine renders n/a" `Quick
            test_down_machine_renders_na;
          Alcotest.test_case "migration atomicity across seeds and loss"
            `Quick test_migration_atomicity;
          Alcotest.test_case "tracing is observer-only" `Quick
            test_churn_trace_gated;
          Alcotest.test_case "churn validation" `Quick test_churn_validation;
          Alcotest.test_case "lost requests independent of epoch cuts" `Quick
            test_lost_invariant_to_cuts;
        ] );
      ( "autoscale",
        [
          Alcotest.test_case "decide: thresholds and hysteresis" `Quick
            test_autoscale_decide;
          Alcotest.test_case "ring resize stability (<= 2/N)" `Quick
            test_ring_resize_stability;
          Alcotest.test_case "autoscale shards 1 = 4 (with churn)" `Quick
            test_autoscale_shard_determinism;
          Alcotest.test_case "counters and render" `Quick
            test_autoscale_counters_and_render;
          Alcotest.test_case "rebalance racing crashes across seeds" `Quick
            test_autoscale_crash_race;
          Alcotest.test_case "autoscale validation" `Quick
            test_autoscale_validation;
          Alcotest.test_case "static controller observes only" `Quick
            test_static_controller_observes_only;
        ] );
    ]
