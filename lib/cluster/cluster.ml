open Sea_sim
open Sea_serve
module Machine_fault = Sea_fault.Machine_fault

type config = {
  machines : int;
  shards : int;
  policy : Router.policy;
}

let config ?(shards = 1) ?(policy = Router.Round_robin) ~machines () =
  if machines < 1 then invalid_arg "--machines must be positive";
  if shards < 1 then invalid_arg "--shards must be positive";
  if shards > machines then
    invalid_arg "--shards must not exceed --machines (idle shards)";
  { machines; shards; policy }

type churn_config = {
  plan : Machine_fault.spec;
  failover : bool;
  heartbeat : Time.t;
  dead_after : int;
}

let churn ?(failover = true) ?(heartbeat = Time.ms 100.) ?(dead_after = 3)
    plan () =
  if Time.compare heartbeat Time.zero <= 0 then
    invalid_arg "Cluster.churn: heartbeat must be positive";
  if dead_after < 1 then invalid_arg "Cluster.churn: dead_after must be >= 1";
  { plan; failover; heartbeat; dead_after }

(* Force every lazily-built shared value (the per-kind application PALs,
   and under cost-aware admission their certificates) on the calling
   domain: concurrent [Lazy.force] of one suspension is unsafe under
   OCaml 5, and it keeps image analysis off the serving domains. *)
let prewarm ~serve () =
  List.iter
    (fun k ->
      ignore (Workload.pal k : Sea_core.Pal.t);
      ignore (Workload.resident_pal k : Sea_core.Pal.t);
      ignore (Workload.work k : Time.t);
      match serve.Server.discipline with
      | Admission.Cost _ -> ignore (Workload.static_cost k : int)
      | Admission.Fifo | Admission.Weighted -> ())
    Workload.kinds

(* --- the virtual-time heartbeat failure detector --- *)

(* One outage as the detector sees it. All instants are ticks of the
   heartbeat clock or outage endpoints, clamped to the serving horizon;
   everything below is integer arithmetic on Time.t nanoseconds, so the
   detection schedule is exact and wall-clock-free. *)
type outage_view = {
  ov_machine : int;
  ov_kind : Machine_fault.kind;
  ov_start : Time.t;
  ov_until : Time.t;  (** Actual recovery, clamped to the horizon. *)
  ov_detect : Time.t option;
      (** Instant the detector declares the machine dead (the
          [dead_after]'th consecutive missed heartbeat), when that
          happens before the machine recovers; [None] for blips the
          detector never promotes past suspicion. *)
  ov_heal : Time.t;
      (** First heartbeat tick at or after recovery: the machine is
          routed back from here (meaningful only under [ov_detect]). *)
  ov_misses : int;  (** Heartbeat ticks missed, capped at [dead_after]. *)
}

let view_outages ~churn:c ~duration outages_per_machine =
  let hb = Time.to_ns c.heartbeat in
  let tick_after t = ((Time.to_ns t / hb) + 1) * hb in
  let views = ref [] in
  Array.iteri
    (fun m outages ->
      List.iter
        (fun (o : Machine_fault.outage) ->
          if Time.compare o.start duration < 0 then begin
            let until = Time.min o.until duration in
            let first_miss = tick_after o.start in
            let raw_detect = first_miss + ((c.dead_after - 1) * hb) in
            let detect =
              (* The detector fires only if the machine is still silent
                 at the threshold tick and the run is still going. *)
              if raw_detect < Time.to_ns until && raw_detect < Time.to_ns duration
              then Some (Time.ns raw_detect)
              else None
            in
            let heal =
              Time.min duration
                (Time.ns (((Time.to_ns until + hb - 1) / hb) * hb))
            in
            let misses =
              if first_miss >= Time.to_ns until then 0
              else
                Stdlib.min c.dead_after
                  (((Time.to_ns until - first_miss) / hb) + 1)
            in
            views :=
              { ov_machine = m; ov_kind = o.kind; ov_start = o.start;
                ov_until = until; ov_detect = detect; ov_heal = heal;
                ov_misses = misses }
              :: !views
          end)
        outages)
    outages_per_machine;
  List.rev !views

(* Cut [0, duration) at every instant a machine's availability, the
   router's belief about it, the autoscaler's control loop or a
   workload shape changes. Within one epoch all of them are constant,
   so the live servers can each be advanced through it independently. *)
let epoch_bounds ?(extra = []) ~duration views =
  let add s t = if Time.compare t Time.zero > 0 && Time.compare t duration < 0 then t :: s else s in
  let instants =
    List.fold_left
      (fun acc v ->
        let acc = add acc v.ov_start in
        let acc = add acc v.ov_until in
        let acc =
          match v.ov_detect with Some d -> add (add acc d) v.ov_heal | None -> acc
        in
        acc)
      [] views
  in
  let instants = List.fold_left add instants extra in
  let sorted = List.sort_uniq Time.compare (Time.zero :: duration :: instants) in
  let rec pair = function
    | a :: (b :: _ as rest) -> (a, b) :: pair rest
    | _ -> []
  in
  pair sorted

let run ?(seed = 1L) ?trace ?churn:churn_cfg ?autoscale:auto_cfg cfg
    ~machine_config ~serve tenants =
  if tenants = [] then invalid_arg "Cluster.run: no tenants";
  let failover_on =
    match churn_cfg with Some c -> c.failover | None -> false
  in
  if Option.is_some serve.Server.retry then
    Error
      "cluster: leave the serve config's retry policy unset — retry \
       counters are per machine and each machine builds its own"
  else if Option.is_some auto_cfg && cfg.policy <> Router.Hash_tenant then
    Error
      "cluster: --autoscale needs --policy hash — ring resizing is \
       consistent-hash based"
  else if Option.is_some auto_cfg && cfg.machines < 2 then
    Error "cluster: --autoscale needs at least 2 machines"
  else if failover_on && cfg.machines < 2 then
    Error "cluster: --failover on needs at least 2 machines"
  else begin
    prewarm ~serve ();
    let n = cfg.machines in
    let assignment = Router.assign cfg.policy ~machines:n tenants in
    (* Everything seed-derived is carved out up front, in index order,
       so machine [i]'s streams depend only on (master seed, i). *)
    let engine_seeds = Array.map Rng.int64 (Rng.split_n (Rng.create ~seed ()) n) in
    let fault_specs =
      match serve.Server.faults with
      | None -> Array.make n None
      | Some spec ->
          let streams =
            Rng.split_n
              (Rng.create ~seed:(Int64.of_int spec.Sea_fault.Fault.seed) ())
              n
          in
          Array.map
            (fun s ->
              Some { spec with Sea_fault.Fault.seed = Rng.int s 0x3FFFFFFF })
            streams
    in
    (* Machines are built sequentially on this domain, by explicit loop
       ([Array.init] order is unspecified): construction touches
       process-wide state (key vault, TPM instance numbering) and must
       happen in a deterministic order. *)
    let machines = Array.make n None in
    for i = 0 to n - 1 do
      machines.(i) <-
        Some
          (Sea_hw.Machine.create
             ~engine:(Engine.create ~seed:engine_seeds.(i) ())
             machine_config)
    done;
    let machines = Array.map Option.get machines in
    let under_sink m f =
      match trace with
      | None -> f ()
      | Some sink_for -> Sea_trace.Trace.with_sink (sink_for m) f
    in
    (* [errors.(i)] is machine [i]'s first failure; a failed machine
       does no further work. *)
    let errors = Array.make n None in
    let shard_over f =
      let shard s =
        (* Machine i runs on shard (i mod shards); within a shard,
           machines run in increasing index order. Each machine touches
           only its own state, so the partition affects wall-clock
           only. *)
        let i = ref s in
        while !i < n do
          (if errors.(!i) = None then
             match under_sink !i (fun () -> f !i) with
             | Ok () -> ()
             | Error e -> errors.(!i) <- Some e
             | exception e ->
                 errors.(!i) <-
                   Some ("unexpected exception: " ^ Printexc.to_string e));
          i := !i + cfg.shards
        done
      in
      if cfg.shards = 1 then shard 0
      else begin
        let domains =
          List.init (cfg.shards - 1) (fun s ->
              Domain.spawn (fun () -> shard (s + 1)))
        in
        shard 0;
        List.iter Domain.join domains
      end
    in
    let duration = serve.Server.duration in
    let tenant_arr = Array.of_list tenants in
    let nt = Array.length tenant_arr in
    let name ti = tenant_arr.(ti).Workload.name in
    (* The whole fleet's outage schedule, detection instants and epoch
       cuts are precomputed from the plan's seed, the autoscale interval
       and the workload shapes alone — independent of workload
       execution and of the shard count. Without churn, autoscale or
       shapes the window is one epoch. *)
    let outages, views =
      match churn_cfg with
      | None -> (Array.make n [], [])
      | Some c ->
          let o = Machine_fault.plans c.plan ~duration ~machines:n in
          (o, view_outages ~churn:c ~duration o)
    in
    let ticks =
      match auto_cfg with
      | None -> []
      | Some a -> Autoscale.tick_instants a ~duration
    in
    let shape_instants =
      List.concat_map
        (fun (t : Workload.tenant) ->
          Workload.shape_instants ~duration t.Workload.shape)
        tenants
    in
    let epochs =
      epoch_bounds ~extra:(ticks @ shape_instants) ~duration views
    in
    (* Each tenant's rate during an epoch is its shape sampled at the
       last shape cut, never at a controller or churn cut, so the
       arrival process does not depend on those. *)
    let rates_at a =
      let at =
        List.fold_left
          (fun acc c -> if Time.compare c a <= 0 then Time.max acc c else acc)
          Time.zero shape_instants
      in
      Array.map (Workload.at_time at) tenant_arr
    in
    (* One live server per machine for the whole window. An idle one
       (the router sent it no tenants) serves only tenants routed to it
       later. *)
    let servers = Array.make n None in
    let rates0 = Array.to_list (rates_at Time.zero) in
    shard_over (fun i ->
        Server.create machines.(i)
          { serve with Server.faults = fault_specs.(i) }
          (List.filteri (fun ti _ -> assignment.(ti) = i) rates0)
        |> Result.map (fun s -> servers.(i) <- Some s));
    (* Every server exists once the epochs run: they run only while no
       machine has failed. *)
    let server i = Option.get servers.(i) in
    (* Streams for the churn layer's own draws (durable-blob survival)
       and the shared migration link, carved off the plan seed under a
       distinct label so they perturb neither the outage walk nor any
       engine stream. An autoscale-only run still needs the link
       (sealed-state rebalancing crosses it); it is lossless then,
       seeded off the master seed. *)
    let churn_rng =
      match churn_cfg with
      | Some c ->
          Rng.create
            ~seed:(Int64.add (Int64.of_int c.plan.Machine_fault.seed)
                     0x6368_75726eL)
            ()
      | None -> Rng.create ~seed:(Int64.add seed 0x6175_746fL) ()
    in
    let link =
      let loss =
        match churn_cfg with
        | Some c -> c.plan.Machine_fault.link_loss
        | None -> 0.
      in
      Link.create ~loss (Rng.split churn_rng)
    in
    let lost = Array.make n 0 in
    let served = Array.make n false in
    let base_prev = Array.copy assignment in
    let host_prev = Array.copy assignment in
    let failovers = ref 0 and migrations = ref 0 in
    let cold_restarts = ref 0 and torn = ref 0 in
    let link_retries = ref 0 and recovered = ref 0 in
    (* Autoscaler state: ring weights, each machine's offered count at
       the last control tick, and the stats counters. All of it lives on
       this domain and changes only at epoch barriers. *)
    let weights = Array.make n Router.virtual_points in
    let offered_at_tick = Array.make n 0 in
    let last_tick = ref Time.zero in
    let as_ticks = ref 0 and as_hot = ref 0 and as_resizes = ref 0 in
    let as_moved = ref 0 and as_warm = ref 0 in
    let as_cold = ref 0 and as_respawns = ref 0 in
    let reroute_active at v =
      match v.ov_detect with
      | Some d -> Time.compare d at <= 0 && Time.compare at v.ov_heal < 0
      | None -> false
    in
    (* A resident that follows its tenant joins the target's server. *)
    let migrate ~src ~dst ~source_alive ~blob_available ti kind =
      under_sink dst (fun () ->
          let r =
            Migrate.failover ~source:machines.(src) ~target:machines.(dst)
              ~link ~source_alive ~blob_available
              ~preemption_timer:serve.Server.preemption_timer
              ~tenant:(name ti) ~kind_name:(Workload.kind_name kind)
              (Workload.resident_pal kind) ()
          in
          Result.iter
            (fun r ->
              Server.adopt (server dst) ~tenant:(name ti) kind
                (Sea_core.Backend.slaunch_instance machines.(dst)
                   r.Migrate.target))
            r;
          r)
    in
    List.iter
      (fun (a, b) ->
        if Array.for_all Option.is_none errors then begin
          let down m = Machine_fault.down_at outages.(m) a in
          let dead m =
            failover_on
            && List.exists
                 (fun v -> v.ov_machine = m && reroute_active a v)
                 views
          in
          let alive =
            List.filter (fun m -> not (dead m)) (List.init n Fun.id)
          in
          (* Autoscale control tick: sample each machine's measured load
             since the last tick, detect hot spots against the fleet
             mean and resize the ring weights. Runs before placement, so
             this epoch routes on the new ring. Sampling only reads the
             servers' counters. *)
          (match auto_cfg with
          | Some acfg when List.mem a ticks ->
              incr as_ticks;
              let dt = Time.to_s (Time.sub a !last_tick) in
              let alive_arr =
                Array.init n (fun m -> not (dead m) && not (down m))
              in
              let loads =
                Array.init n (fun m ->
                    if dt <= 0. then 0.
                    else
                      float_of_int
                        (Server.offered (server m) - offered_at_tick.(m))
                      /. dt)
              in
              let d = Autoscale.decide acfg ~weights ~alive:alive_arr ~loads in
              as_hot := !as_hot + List.length d.Autoscale.hot;
              (* Static = sample and detect only: the observability
                 baseline never touches the ring, so its placement (and
                 its capacity) is exactly the no-controller fleet's. *)
              if acfg.Autoscale.policy <> Autoscale.Static then begin
                for m = 0 to n - 1 do
                  if d.Autoscale.weights.(m) <> weights.(m) then
                    incr as_resizes
                done;
                Array.blit d.Autoscale.weights 0 weights 0 n
              end;
              for m = 0 to n - 1 do
                offered_at_tick.(m) <- Server.offered (server m)
              done;
              last_tick := a
          | _ -> ());
          (* Routing for this epoch. [base] is the autoscaler's
             weighted-ring placement over all machines (the static
             assignment without a controller); [host] overlays failover
             — a detected-dead machine's tenants ride the ring minus the
             dead nodes; everyone else stays home. *)
          let base =
            match auto_cfg with
            | None -> assignment
            | Some _ ->
                let ring = Router.make_ring ~weights (List.init n Fun.id) in
                Array.init nt (fun ti -> Router.lookup ring tenant_arr.(ti))
          in
          let host =
            Array.init nt (fun ti ->
                let home = base.(ti) in
                if dead home && alive <> [] then
                  Router.reroute
                    ?weights:(Option.map (fun _ -> weights) auto_cfg)
                    ~alive tenant_arr.(ti)
                else home)
          in
          (* Barrier work, main domain, machine-index order: heartbeat
             suspicion and crashes for outages starting here, the
             tenant hand-offs routing implies, sealed-state failover for
             machines declared dead here, then autoscale rebalancing for
             tenants whose arc moved. Trace events land in the affected
             machine's own sink. *)
          List.iter
            (fun v ->
              if Time.compare v.ov_start a = 0 then
                under_sink v.ov_machine (fun () ->
                    let engine =
                      Sea_hw.Machine.engine machines.(v.ov_machine)
                    in
                    for j = 1 to v.ov_misses do
                      Sea_trace.Trace.instant engine ~cat:"churn"
                        ~args:(fun () ->
                          Sea_trace.Trace.
                            [ ("machine", Int v.ov_machine); ("miss", Int j);
                              ("outage", Str (Machine_fault.kind_name v.ov_kind)) ])
                        "heartbeat-miss"
                    done;
                    if v.ov_kind = Machine_fault.Crash then
                      Server.crash (server v.ov_machine)))
            views;
          let rates = rates_at a in
          for ti = 0 to nt - 1 do
            let h = host_prev.(ti) in
            if host.(ti) <> h then
              under_sink h (fun () -> Server.unhost (server h) (name ti))
          done;
          for ti = 0 to nt - 1 do
            let h = host.(ti) in
            under_sink h (fun () -> Server.host (server h) rates.(ti))
          done;
          List.iter
            (fun v ->
              if v.ov_detect = Some a && failover_on then
                let m = v.ov_machine in
                for ti = 0 to nt - 1 do
                  if host_prev.(ti) = m && host.(ti) <> m then begin
                    incr failovers;
                    let target = host.(ti) in
                    (* Only proposed-hw residents have sealed
                       sePCR-bound state worth moving over the link.
                       Current hw has no residents; an SFI resident
                       cold-relaunches on the survivor at near-zero
                       cost, so nothing crosses the wire for it
                       either. *)
                    if serve.Server.mode = Server.Proposed && not (down target)
                    then
                      List.iter
                        (fun (kind, _w) ->
                          let source_alive =
                            v.ov_kind = Machine_fault.Partition
                          in
                          let blob_available =
                            source_alive || Rng.float churn_rng 1.0 < 0.5
                          in
                          match
                            migrate ~src:m ~dst:target ~source_alive
                              ~blob_available ti kind
                          with
                          | Ok r ->
                              (match r.Migrate.outcome with
                              | Migrate.Warm -> incr migrations
                              | Migrate.Cold -> incr cold_restarts);
                              if r.Migrate.torn then incr torn;
                              link_retries :=
                                !link_retries + r.Migrate.link_retries
                          | Error _ -> incr cold_restarts)
                        tenant_arr.(ti).Workload.mix
                  end
                done)
            views;
          (* Autoscale rebalancing: every tenant whose weighted-ring home
             moved this tick re-homes its residents, by the paper's
             sealed-state migration on proposed hardware or by
             kill-and-respawn spreading under SFI or the spread policy.
             Current hardware has no residents: the move is pure
             routing. Tenants displaced by a machine death are the
             failover path's job, not ours. *)
          (match auto_cfg with
          | Some acfg when acfg.Autoscale.policy <> Autoscale.Static ->
              let migrates =
                acfg.Autoscale.policy <> Autoscale.Spread
                && serve.Server.mode = Server.Proposed
              in
              for ti = 0 to nt - 1 do
                let src = base_prev.(ti) and dst = base.(ti) in
                if dst <> src then begin
                  incr as_moved;
                  if
                    serve.Server.mode <> Server.Current
                    && List.for_all
                         (fun m -> not (down m || dead m))
                         [ src; dst ]
                  then
                    List.iter
                      (fun (kind, _w) ->
                        if migrates then
                          match
                            migrate ~src ~dst ~source_alive:true
                              ~blob_available:true ti kind
                          with
                          | Ok { Migrate.outcome = Migrate.Warm; _ } ->
                              incr as_warm
                          | Ok { Migrate.outcome = Migrate.Cold; _ } | Error _
                            ->
                              incr as_cold
                        else
                          under_sink dst (fun () ->
                              match
                                Migrate.respawn ~target:machines.(dst)
                                  ~backend:
                                    (Sea_core.Backend.of_kind serve.Server.mode)
                                  ~preemption_timer:
                                    serve.Server.preemption_timer
                                  ~tenant:(name ti)
                                  ~kind_name:(Workload.kind_name kind)
                                  (Workload.resident_pal kind) ()
                              with
                              | Ok inst ->
                                  incr as_respawns;
                                  Server.adopt (server dst) ~tenant:(name ti)
                                    kind inst
                              | Error _ -> ()))
                      tenant_arr.(ti).Workload.mix
                end
              done
          | _ -> ());
          (* Serve the epoch. A down machine's hosted tenants are
             black-holed: their own arrival trains over the interval are
             charged to it as lost. Completions by churn-displaced
             tenants on survivors are goodput failover recovered (an
             autoscale move changes [base] itself, so it does not
             count). *)
          let displaced =
            List.filter
              (fun ti -> host.(ti) <> base.(ti))
              (List.init nt Fun.id)
          in
          let completed_now ti =
            Server.completed (server host.(ti)) ~tenant:(name ti)
          in
          let before = List.map completed_now displaced in
          shard_over (fun i ->
              if down i then
                lost.(i) <- lost.(i) + Server.skip (server i) ~until:b
              else begin
                served.(i) <- true;
                Server.advance (server i) ~until:b
              end;
              Ok ());
          List.iter2
            (fun ti c0 -> recovered := !recovered + completed_now ti - c0)
            displaced before;
          Array.blit host 0 host_prev 0 nt;
          Array.blit base 0 base_prev 0 nt
        end)
      epochs;
    let reports = Array.make n None in
    shard_over (fun i ->
        Option.iter (fun s -> reports.(i) <- Some (Server.finish s)) servers.(i);
        Ok ());
    match
      Array.find_mapi
        (fun i -> Option.map (Printf.sprintf "machine %d: %s" i))
        errors
    with
    | Some e -> Error e
    | None -> (
        let rows =
          List.init n (fun i ->
              { Fleet_report.index = i;
                tenants =
                  Array.fold_left
                    (fun acc m -> if m = i then acc + 1 else acc)
                    0 assignment;
                (* A machine down for its whole window served nothing. *)
                report =
                  (match reports.(i) with
                  | Some r when served.(i) && r.Report.rows <> [] -> Some r
                  | Some _ | None -> None);
                lost = lost.(i) })
        in
        let count kind =
          List.length (List.filter (fun v -> v.ov_kind = kind) views)
        in
        let churn_stats =
          Option.map
            (fun (c : churn_config) ->
              { Fleet_report.failover = c.failover;
                crashes = count Machine_fault.Crash;
                partitions = count Machine_fault.Partition;
                heartbeat_misses =
                  List.fold_left (fun acc v -> acc + v.ov_misses) 0 views;
                failovers = !failovers; migrations = !migrations;
                cold_restarts = !cold_restarts; torn_backouts = !torn;
                link_drops = Link.drops link; link_retries = !link_retries;
                lost_requests = Array.fold_left ( + ) 0 lost;
                recovered = !recovered })
            churn_cfg
        in
        let autoscale_stats =
          Option.map
            (fun (a : Autoscale.config) ->
              { Fleet_report.as_policy =
                  Autoscale.policy_name a.Autoscale.policy;
                interval = a.Autoscale.interval;
                hot_threshold = a.Autoscale.hot_threshold; ticks = !as_ticks;
                hot_events = !as_hot; resizes = !as_resizes;
                tenants_moved = !as_moved; warm_moves = !as_warm;
                cold_moves = !as_cold; respawns = !as_respawns })
            auto_cfg
        in
        try
          Ok
            (Fleet_report.merge ?churn:churn_stats ?autoscale:autoscale_stats
               ~policy:(Router.policy_name cfg.policy) rows)
        with Invalid_argument _ ->
          Error
            "cluster: every machine was down for the whole window — \
             nothing served (raise --mttf or shorten --mttr)")
  end
