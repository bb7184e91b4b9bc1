open Sea_sim
open Sea_tpm
open Sea_hw
open Sea_core

(* Re-exporting the backend's kind keeps [Server.Current]/[Server.Proposed]
   valid everywhere while the actual dispatch lives in one Backend value. *)
type mode = Backend.kind = Current | Proposed | Sfi

let mode_name = Backend.kind_name
let mode_names = List.map Backend.cli_name Backend.all
let mode_of_name = Backend.of_cli_name

type config = {
  mode : mode;
  duration : Time.t;
  queue_depth : int;
  discipline : Admission.discipline;
  analyze : Sea_analysis.Analyzer.gate;
  preemption_timer : Time.t;
  faults : Sea_fault.Fault.spec option;
  vtpm : int option;
}

let config ?(queue_depth = 16) ?(discipline = Admission.Fifo)
    ?(analyze = Sea_analysis.Analyzer.Off) ?(preemption_timer = Time.ms 10.)
    ?faults ?vtpm ~mode ~duration () =
  if Time.compare duration Time.zero <= 0 then
    invalid_arg "Server.config: duration must be positive";
  if queue_depth <= 0 then
    invalid_arg "Server.config: queue depth must be positive";
  if Time.compare preemption_timer Time.zero <= 0 then
    invalid_arg "Server.config: preemption timer must be positive";
  (match vtpm with
  | Some k when k <= 0 ->
      invalid_arg "Server.config: vtpm instances must be positive"
  | _ -> ());
  { mode; duration; queue_depth; discipline; analyze; preemption_timer;
    faults; vtpm }

(* One queued request. [client] is the closed-loop client slot that will
   reissue once this request is answered ([None] for open-loop). *)
type req = {
  tenant : int;
  kind : Workload.kind;
  arrival : Time.t;
  client : int option;
}

(* [gen] is the hosting generation of the arrival's tenant: a closed-loop
   arrival scheduled before its tenant left this machine is stale. *)
type ev =
  | Arrival of
      { tenant : int; kind : Workload.kind; client : int option; gen : int }
  | Core_free of int

(* A PAL kept hosted between requests on a resident backend (suspended in
   access-controlled memory on the proposed hardware, sandboxed under
   SFI). [busy_until] is virtual time: the moment its current burst of
   requests will have drained. *)
type resident = {
  inst : Backend.instance;
  mutable busy_until : Time.t;
  mutable last_core : int;
  mutable last_used : Time.t;
}

(* One tenant this server has hosted, in first-hosting order: [idx] is
   its report row, its vTPM binding and its resident keys. [next] is the
   open-loop arrival cursor, the next arrival already drawn, so a train
   drawn over several [advance] steps is the train drawn in one. *)
type slot = {
  idx : int;
  mutable tenant : Workload.tenant;
  rng : Rng.t;
  mutable hosted : bool;
  mutable gen : int;
  mutable next : Time.t;
  seqs : int array;
  breakers : Breaker.t array option;
  mutable offered : int; mutable completed : int; mutable shed : int;
  mutable timed_out : int; mutable failed : int;
  latency : Stats.t;
}

(* A live server: the operations [create] closes over one machine's
   serving state. *)
type t = {
  step : reachable:bool -> until:Time.t -> int;
  finish_ : unit -> Report.t;
  host_ : Workload.tenant -> unit;
  unhost_ : string -> unit;
  adopt_ : tenant:string -> Workload.kind -> Backend.instance -> unit;
  crash_ : unit -> unit;
  slots : slot array ref;
}

exception Serve_error of string

(* A resident's resume faulted even after retries: recoverable by
   quarantining the resident and cold-starting a replacement, unlike the
   general Serve_error failure paths. *)
exception Resume_failed of string

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let create (m : Machine.t) cfg tenant_list =
  let engine = m.Machine.engine in
  let* tpm =
    match m.Machine.tpm with
    | Some tpm -> Ok tpm
    | None -> Error "serving requires a TPM (sealed state and attestation)"
  in
  let backend = Backend.of_kind cfg.mode in
  let* () = backend.Backend.check_machine m in
  let nkinds = List.length Workload.kinds in
  let key tenant kind = (tenant * nkinds) + Workload.kind_index kind in
  (* The retry policy is made before provisioning so the vTPM layer's
     hardware legs (checkpoints, anchor quotes) share it; building the
     plan touches neither the engine clock nor its generator (it splits
     its own seeded stream), and it is only {e installed} after
     bootstrap, below. *)
  let plan = Option.map Sea_fault.Fault.of_spec cfg.faults in
  let retry = Option.map (fun _ -> Sea_fault.Retry.policy ()) plan in
  (* --- vTPM multiplexer: provisioned before bootstrap (provisioning is
     part of machine setup, like bootstrap itself) so every session in
     the run — bootstrap included — executes against its tenant's
     capability. --- *)
  let* vtpm =
    match cfg.vtpm with
    | None -> Ok None
    | Some count ->
        Result.map Option.some
          (Sea_vtpm.Vtpm.create ?retry ~tpm ~instances:count ())
  in
  let cap_for tenant =
    Option.map (fun v -> Sea_vtpm.Vtpm.cap v ~tenant) vtpm
  in
  (* A quarantined vTPM is healed on the next request routed to it: the
     repair (hardware checkpoint seal, retried) happens on the request's
     clock, and if it still fails only this tenant's requests fail — its
     breaker opens while every other vTPM keeps serving. *)
  let ensure_healthy tenant =
    match vtpm with
    | None -> true
    | Some v ->
        let inst = Sea_vtpm.Vtpm.for_tenant v ~tenant in
        if Sea_vtpm.Vtpm.broken inst then
          match Sea_vtpm.Vtpm.heal inst with Ok () -> true | Error _ -> false
        else true
  in
  (* --- bootstrap: on today's hardware every (tenant, kind) needs its
     sealed state created by a full init session before serving. On a
     resident backend state lives with the hosted PAL instead. --- *)
  let states : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let bootstrap_one i (ten : Workload.tenant) kind =
    let k = key i kind in
    if Hashtbl.mem states k then Ok ()
    else
      let input = Workload.init_input kind ~tenant:ten.Workload.name in
      let* outcome =
        Session.execute m ~cpu:0 ~analyze:cfg.analyze ?tpm_cap:(cap_for i)
          (Workload.pal kind) ~input
      in
      let* state =
        Workload.init_state_of_output kind outcome.Session.output
      in
      Hashtbl.add states k state;
      Ok ()
  in
  let bootstrap i (ten : Workload.tenant) =
    List.fold_left
      (fun acc (kind, _) ->
        let* () = acc in
        bootstrap_one i ten kind)
      (Ok ())
      (if cfg.mode = Current then ten.Workload.mix else [])
  in
  let* () =
    List.fold_left
      (fun acc (i, ten) ->
        let* () = acc in
        bootstrap i ten)
      (Ok ())
      (List.mapi (fun i ten -> (i, ten)) tenant_list)
  in
  (* --- robustness machinery. The fault plan is installed only after
     bootstrap (bootstrap models provisioning, not the serving window)
     and draws from its own seeded stream, so the tenant streams split
     below are unperturbed: a rate-0 or no-fault run replays the exact
     pre-fault-machinery timeline. Retry and breakers are on
     whenever faults are injected. --- *)
  Tpm.set_faults tpm plan;
  let retries0 =
    match retry with Some p -> Sea_fault.Retry.retries p | None -> 0
  and give_ups0 =
    match retry with Some p -> Sea_fault.Retry.give_ups p | None -> 0
  in
  (* The serving window starts after bootstrap, on a clean clock.
     [clock] is how far the window has been advanced. *)
  let base = Engine.now engine in
  let finish_line = Time.add base cfg.duration in
  let clock = ref base in
  let events : ev Event_queue.t = Event_queue.create () in
  let breaker_cfg = Option.map (fun _ -> Breaker.config ()) plan in
  let queue : req Admission.t =
    Admission.create ~discipline:cfg.discipline ~depth:cfg.queue_depth
      ~weights:[||]
  in
  let slots : slot array ref = ref [||] in
  let find name =
    Array.find_opt (fun sl -> sl.tenant.Workload.name = name) !slots
  in
  let push_arrival sl client time =
    Event_queue.push events ~time
      (Arrival
         { tenant = sl.idx; kind = Workload.draw_kind sl.rng sl.tenant; client;
           gen = sl.gen })
  in
  (* Open-loop tenants draw their Poisson train from the cursor as each
     [advance] needs it. Closed-loop tenants: one arrival per client when
     hosting starts; reissues are scheduled as responses land. *)
  let start_arrivals sl =
    match sl.tenant.Workload.process with
    | Workload.Open_loop { rate_per_s } ->
        sl.next <-
          Time.add !clock
            (Time.ms (Rng.exponential sl.rng ~mean:(1000. /. rate_per_s)))
    | Workload.Closed_loop { clients; _ } ->
        for c = 0 to clients - 1 do
          push_arrival sl (Some c) !clock
        done
  in
  let add_slot ten =
    let sl =
      { idx = Array.length !slots; tenant = ten;
        rng = Rng.split (Engine.rng engine); hosted = true; gen = 0;
        next = !clock; seqs = Array.make nkinds 0;
        breakers =
          Option.map
            (fun bc -> Array.init nkinds (fun _ -> Breaker.create bc))
            breaker_cfg;
        offered = 0; completed = 0; shed = 0; timed_out = 0; failed = 0;
        latency = Stats.create () }
    in
    slots := Array.append !slots [| sl |];
    ignore (Admission.add_tenant queue ~weight:ten.Workload.weight : int);
    start_arrivals sl
  in
  List.iter add_slot tenant_list;
  let draw_arrivals horizon =
    Array.iter
      (fun sl ->
        match sl.tenant.Workload.process with
        | Workload.Open_loop { rate_per_s } when sl.hosted ->
            let mean_ms = 1000. /. rate_per_s in
            while Time.compare sl.next horizon < 0 do
              push_arrival sl None sl.next;
              sl.next <-
                Time.add sl.next
                  (Time.ms (Rng.exponential sl.rng ~mean:mean_ms))
            done
        | Workload.Open_loop _ | Workload.Closed_loop _ -> ())
      !slots
  in
  (* --- accounting --- *)
  let next_seq sl kind =
    let i = Workload.kind_index kind in
    let s = sl.seqs.(i) in
    sl.seqs.(i) <- s + 1;
    s
  in
  let pal_busy = ref Time.zero in
  let stalled = ref Time.zero in
  let stall_ms = Stats.create () in
  let cold_starts = ref 0
  and warm_hits = ref 0
  and evictions = ref 0
  and sepcr_waits = ref 0 in
  let breaker_shed = ref 0 and recoveries = ref 0 in
  let sepcr_wait_ms = Stats.create () in
  let last_completion = ref base in
  (* Arrivals black-holed while the machine was unreachable. *)
  let lost = ref 0 in
  (* Static request costs (certificate admission costs, via the
     content-addressed cache) are priced only when the cost discipline
     is active: other disciplines never consult them. *)
  let request_cost =
    match cfg.discipline with
    | Admission.Cost _ ->
        let costs =
          Array.of_list (List.map Workload.static_cost Workload.kinds)
        in
        fun kind -> costs.(Workload.kind_index kind)
    | Admission.Fifo | Admission.Weighted -> fun _ -> 0
  in
  let cores =
    match cfg.mode with
    | Current -> [ 0 ] (* one server: a session owns the whole platform *)
    | Proposed | Sfi -> List.init (Array.length m.Machine.cpus) Fun.id
  in
  let idle : int Queue.t = Queue.create () in
  List.iter (fun c -> Queue.push c idle) cores;
  (* The request each busy core is serving: (tenant, arrival, ok). Its
     outcome is booked when the core frees, so a crash in between can
     still fail it. *)
  let in_service = Array.make (Array.length m.Machine.cpus) None in
  (* --- execution on today's hardware: one full SKINIT session per
     request, whole platform stalled for its duration. A bootstrap that
     failed when its tenant was hosted is retried here. --- *)
  let serve_current ~t (r : req) =
    Engine.elapse_to engine t;
    let t0 = Engine.now engine in
    let sl = !slots.(r.tenant) in
    let k = key r.tenant r.kind in
    if not (Hashtbl.mem states k) then
      ignore (bootstrap_one r.tenant sl.tenant r.kind : (unit, string) result);
    let ok =
      match Hashtbl.find_opt states k with
      | None -> false
      | Some state -> (
          let input =
            Workload.request_input r.kind ~tenant:sl.tenant.Workload.name
              ~state ~seq:(next_seq sl r.kind)
          in
          ensure_healthy r.tenant
          &&
          match
            backend.Backend.oneshot m ~cpu:0 ~analyze:cfg.analyze ?retry
              ?tpm_cap:(cap_for r.tenant) (Workload.pal r.kind) ~input
          with
          | Ok output ->
              if Workload.updates_state r.kind then
                Hashtbl.replace states k output;
              true
          | Error _ -> false)
    in
    let d = Time.sub (Engine.now engine) t0 in
    stalled := Time.add !stalled d;
    Stats.add_time stall_ms d;
    (d, ok)
  in
  (* --- execution on a resident backend: requests run against a hosted
     PAL (same measured bytes as the application PAL), consuming the
     request's compute in preemption-timer slices. A cold start pays the
     backend's launch (SLAUNCH measurement on proposed hardware, the SFI
     loader hash); the backend's pool bounds how many residents can
     exist — the sePCR bank on proposed hardware, unbounded under SFI —
     so beyond it cold starts evict the resident whose burst drains
     earliest, waiting for it if busy. --- *)
  let residents : (int, resident) Hashtbl.t = Hashtbl.create 16 in
  let durable : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let pool = backend.Backend.pool m in
  let fail e = raise (Serve_error e) in
  let evict ~t =
    let victim =
      Hashtbl.fold
        (fun k res acc ->
          let rank r kk = (r.busy_until, r.last_used, kk) in
          match acc with
          | None -> Some (k, res)
          | Some (k', res') ->
              if compare (rank res k) (rank res' k') < 0 then Some (k, res)
              else acc)
        residents None
    in
    match victim with
    | None -> Time.zero
    | Some (vkey, vres) ->
        let wait = Time.max Time.zero (Time.sub vres.busy_until t) in
        if Time.compare wait Time.zero > 0 then begin
          incr sepcr_waits;
          Stats.add_time sepcr_wait_ms wait
        end;
        incr evictions;
        (* The state hand-off seal the PAL performs at the end of its
           final burst, accounted at eviction time; the blob is what a
           future cold start of the same code identity will unseal. *)
        (match
           vres.inst.Backend.save_state ~cpu:vres.last_core
             ~tag:("resident-state:" ^ string_of_int vkey)
         with
        | Ok (Some blob) -> Hashtbl.replace durable vkey blob
        | Ok None -> ()
        | Error e -> fail ("sealing resident state: " ^ e));
        (match vres.inst.Backend.kill () with
        | Ok () -> ()
        | Error e -> fail ("evicting resident: " ^ e));
        vres.inst.Backend.release ();
        Hashtbl.remove residents vkey;
        wait
  in
  let dispose inst =
    (match inst.Backend.kill () with Ok () -> () | Error _ -> ());
    inst.Backend.release ()
  in
  (* Drop a broken or suspect resident: the next request for this key
     takes a clean cold start instead of warm-hitting a broken session. *)
  let quarantine k =
    match Hashtbl.find_opt residents k with
    | Some res ->
        dispose res.inst;
        Hashtbl.remove residents k
    | None -> ()
  in
  let drop_residents () =
    Hashtbl.iter (fun _ res -> dispose res.inst) residents;
    Hashtbl.reset residents
  in
  (* A tenant that left this machine keeps its residents only until its
     queued requests have drained. *)
  let settle tenant =
    if
      (not !slots.(tenant).hosted)
      && Admission.tenant_length queue tenant = 0
    then List.iter (fun kind -> quarantine (key tenant kind)) Workload.kinds
  in
  let serve_resident ~core ~t (r : req) =
    Engine.elapse_to engine t;
    let e0 = Engine.now engine in
    let k = key r.tenant r.kind in
    ignore (next_seq !slots.(r.tenant) r.kind);
    if not (ensure_healthy r.tenant) then
      (Time.sub (Engine.now engine) e0, false)
    else begin
    let virtual_wait = ref Time.zero in
    let rec attempt ~recovering =
      virtual_wait := Time.zero;
      try
        let res =
          match Hashtbl.find_opt residents k with
          | Some res ->
              incr warm_hits;
              (* Requests for the same (tenant, kind) serialize behind the
                 single resident's in-flight burst. *)
              virtual_wait := Time.max Time.zero (Time.sub res.busy_until t);
              res
          | None ->
              incr cold_starts;
              if Hashtbl.length residents >= pool then begin
                virtual_wait := Time.add !virtual_wait (evict ~t);
                assert (Hashtbl.length residents < pool)
              end;
              let inst =
                match
                  backend.Backend.launch m ~cpu:core
                    ~preemption_timer:cfg.preemption_timer
                    ~analyze:cfg.analyze ?retry ?tpm_cap:(cap_for r.tenant)
                    (Workload.resident_pal r.kind) ~input:""
                with
                | Ok i -> i
                | Error e -> fail ("cold start: " ^ e)
              in
              (* A re-launch after eviction unseals the durable state the
                 previous incarnation sealed out — same code identity, so
                 the identity-bound blob opens. *)
              (match Hashtbl.find_opt durable k with
              | Some blob -> (
                  match inst.Backend.load_state ~cpu:core blob with
                  | Ok () -> ()
                  | Error e -> fail ("reloading durable state: " ^ e))
              | None -> ());
              let res =
                { inst; busy_until = t; last_core = core; last_used = t }
              in
              Hashtbl.add residents k res;
              res
        in
        (if res.inst.Backend.suspended () then
           match res.inst.Backend.resume ~cpu:core with
           | Ok () -> ()
           | Error e -> raise (Resume_failed e));
        let rec consume remaining =
          if Time.compare remaining Time.zero > 0 then begin
            let budget = Time.min cfg.preemption_timer remaining in
            match res.inst.Backend.run_slice ~cpu:core ~budget () with
            | Ok `Yielded ->
                let remaining = Time.sub remaining budget in
                if Time.compare remaining Time.zero > 0 then begin
                  (match res.inst.Backend.resume ~cpu:core with
                  | Ok () -> ()
                  | Error e -> fail ("resume: " ^ e));
                  consume remaining
                end
            | Ok `Finished -> fail "resident PAL ran out of work"
            | Error e -> fail ("run slice: " ^ e)
          end
        in
        consume (Workload.work r.kind);
        let d =
          Time.add !virtual_wait (Time.sub (Engine.now engine) e0)
        in
        res.busy_until <- Time.add t d;
        res.last_used <- res.busy_until;
        res.last_core <- core;
        (d, true)
      with
      | Resume_failed _ when not recovering ->
          (* The resident's resume faulted even after retries: instead of
             failing the request, quarantine (SKILL) the resident and
             serve it with a fresh cold start — a full re-measure, so the
             replacement's identity is rebuilt from scratch. *)
          warm_hits := !warm_hits - 1;
          incr recoveries;
          quarantine k;
          attempt ~recovering:true
      | Serve_error _ | Resume_failed _ ->
          quarantine k;
          (Time.add !virtual_wait (Time.sub (Engine.now engine) e0), false)
    in
    attempt ~recovering:false
    end
  in
  (* --- the event loop: virtual-time queueing over real executions --- *)
  (* Closed-loop clients shed with a zero think-time draw cannot reissue
     at the same virtual instant: the queue is still full then (no
     Core_free can interleave), so they would shed and reissue forever.
     Park them and retry when a core frees — the only moment a queue
     slot can have opened. *)
  let parked : (int * int) Queue.t = Queue.create () in
  (* A client whose tenant has left this machine follows it instead. *)
  let reissue_at tenant c time =
    let sl = !slots.(tenant) in
    if sl.hosted && Time.compare time finish_line < 0 then
      push_arrival sl (Some c) time
  in
  let reissue ?(on_shed = false) tenant client t =
    match client with
    | None -> ()
    | Some c -> (
        let sl = !slots.(tenant) in
        match sl.tenant.Workload.process with
        | Workload.Open_loop _ -> ()
        | Workload.Closed_loop { think; _ } ->
            let delay =
              if Time.compare think Time.zero > 0 then
                Time.ms
                  (Rng.exponential sl.rng ~mean:(Time.to_ms think))
              else Time.zero
            in
            if on_shed && Time.compare delay Time.zero <= 0 then
              Queue.push (tenant, c) parked
            else reissue_at tenant c (Time.add t delay))
  in
  let breaker_transition b before =
    let after = Breaker.state b in
    if before <> after then begin
      Sea_trace.Trace.instant engine ~cat:"serve"
        ~args:(fun () ->
          [
            ("from", Sea_trace.Trace.Str (Breaker.state_name before));
            ("to", Sea_trace.Trace.Str (Breaker.state_name after));
          ])
        "breaker-transition";
      Sea_trace.Trace.count engine "serve.breaker_transitions" 1
    end
  in
  let rec try_dispatch t =
    if not (Queue.is_empty idle) then
      match Admission.take queue with
      | None -> ()
      | Some (tenant, r) -> (
          let sl = !slots.(tenant) in
          match sl.tenant.Workload.deadline with
          | Some d when Time.compare (Time.sub t r.arrival) d > 0 ->
              sl.timed_out <- sl.timed_out + 1;
              reissue tenant r.client t;
              settle tenant;
              try_dispatch t
          | _ ->
              let core = Queue.pop idle in
              Sea_trace.Trace.complete engine ~cat:"serve"
                ~args:(fun () ->
                  [ ("tenant", Sea_trace.Trace.Str sl.tenant.Workload.name) ])
                ~start:r.arrival ~stop:t "queue-wait";
              let d, ok =
                Sea_trace.Trace.with_span engine ~cat:"serve"
                  ~args:(fun () ->
                    [
                      ("tenant", Sea_trace.Trace.Str sl.tenant.Workload.name);
                      ("kind", Sea_trace.Trace.Str (Workload.kind_name r.kind));
                      ("mode", Sea_trace.Trace.Str (mode_name cfg.mode));
                    ])
                  "request"
                  (fun () ->
                    match cfg.mode with
                    | Current -> serve_current ~t r
                    | Proposed | Sfi -> serve_resident ~core ~t r)
              in
              let finish = Time.add t d in
              (match sl.breakers with
              | Some arr ->
                  let b = arr.(Workload.kind_index r.kind) in
                  let before = Breaker.state b in
                  if ok then Breaker.record_success b ~now:finish
                  else Breaker.record_failure b ~now:finish;
                  breaker_transition b before
              | None -> ());
              in_service.(core) <- Some (tenant, r.arrival, ok);
              let occupied =
                match cfg.mode with
                | Current -> Time.scale d (Array.length m.Machine.cpus)
                | Proposed | Sfi -> d
              in
              pal_busy := Time.add !pal_busy occupied;
              Event_queue.push events ~time:finish (Core_free core);
              reissue tenant r.client finish;
              settle tenant;
              try_dispatch t)
  in
  let book_failed tenant =
    let sl = !slots.(tenant) in
    sl.failed <- sl.failed + 1;
    Sea_trace.Trace.count engine "serve.failed" 1
  in
  (* [reachable] false black-holes every arrival (the machine is down or
     partitioned away); a closed-loop client then waits in [blocked]
     until the machine is reachable again, so it is lost once. *)
  let reachable = ref true and horizon = ref base in
  let blocked : (int * int) Queue.t = Queue.create () in
  let handle t = function
    | Arrival { tenant; gen; _ } when gen <> !slots.(tenant).gen -> ()
    | Arrival { tenant; client; _ } when not !reachable ->
        incr lost;
        Option.iter (fun c -> Queue.push (tenant, c) blocked) client
    | Arrival { tenant; kind; client; _ } ->
        let sl = !slots.(tenant) in
        sl.offered <- sl.offered + 1;
        let breaker_open =
          match sl.breakers with
          | Some arr ->
              let b = arr.(Workload.kind_index kind) in
              let before = Breaker.state b in
              let allowed = Breaker.allow b ~now:t in
              breaker_transition b before;
              not allowed
          | None -> false
        in
        if breaker_open then begin
          (* Shed by the breaker: counted as shed so the accounting
             invariant holds. A closed-loop client comes back when
             the open interval ends, not instantly. *)
          sl.shed <- sl.shed + 1;
          incr breaker_shed;
          Sea_trace.Trace.instant engine ~cat:"serve"
            ~args:(fun () ->
              [ ("tenant", Sea_trace.Trace.Str sl.tenant.Workload.name) ])
            "breaker-shed";
          Sea_trace.Trace.count engine "serve.shed" 1;
          match client with
          | None -> ()
          | Some c ->
              let at =
                match sl.breakers with
                | Some arr ->
                    Time.max
                      (Breaker.retry_at arr.(Workload.kind_index kind))
                      (Time.add t (Time.ms 1.))
                | None -> Time.add t (Time.ms 1.)
              in
              reissue_at tenant c at
        end
        else begin
          let r = { tenant; kind; arrival = t; client } in
          if Admission.offer queue ~cost:(request_cost kind) ~tenant r then
            try_dispatch t
          else begin
            sl.shed <- sl.shed + 1;
            Sea_trace.Trace.instant engine ~cat:"serve"
              ~args:(fun () ->
                [ ("tenant", Sea_trace.Trace.Str sl.tenant.Workload.name) ])
              "queue-shed";
            Sea_trace.Trace.count engine "serve.shed" 1;
            reissue ~on_shed:true tenant client t
          end
        end
    | Core_free core ->
        (match in_service.(core) with
        | Some (tenant, arrival, ok) ->
            in_service.(core) <- None;
            let sl = !slots.(tenant) in
            if ok then begin
              sl.completed <- sl.completed + 1;
              Sea_trace.Trace.count engine "serve.completed" 1;
              Stats.add sl.latency (Time.to_ms (Time.sub t arrival))
            end
            else book_failed tenant;
            if Time.compare t !last_completion > 0 then last_completion := t
        | None -> ());
        Queue.push core idle;
        try_dispatch t;
        for _ = 1 to Queue.length parked do
          let tenant, c = Queue.pop parked in
          reissue_at tenant c t
        done
  in
  let rec loop () =
    match Event_queue.peek_time events with
    | Some t when Time.compare t !horizon < 0 ->
        Option.iter (fun (t, ev) -> handle t ev) (Event_queue.pop events);
        loop ()
    | Some _ | None -> ()
  in
  let step ~reachable:r ~until =
    let h = Time.add base until in
    draw_arrivals (Time.min h finish_line);
    let lost0 = !lost in
    if r then begin
      Queue.iter (fun (tenant, c) -> reissue_at tenant c !clock) blocked;
      Queue.clear blocked
    end;
    reachable := r;
    horizon := h;
    loop ();
    reachable := true;
    clock := Time.max !clock h;
    !lost - lost0
  in
  (* --- hand-off --- *)
  let host_ ten =
    match find ten.Workload.name with
    | Some sl ->
        (* A new rate restarts the train here: memoryless, so exact. *)
        if (not sl.hosted) || sl.tenant.Workload.process <> ten.Workload.process
        then begin
          sl.hosted <- true;
          sl.tenant <- ten;
          start_arrivals sl
        end
    | None ->
        (* Provisioning at the barrier; a failure is retried by the
           tenant's first request. *)
        ignore (bootstrap (Array.length !slots) ten : (unit, string) result);
        add_slot ten
  in
  let unhost_ name =
    match find name with
    | Some sl when sl.hosted ->
        sl.hosted <- false;
        sl.gen <- sl.gen + 1;
        settle sl.idx
    | Some _ | None -> ()
  in
  let adopt_ ~tenant kind inst =
    match find tenant with
    | Some sl
      when sl.hosted
           && (not (Hashtbl.mem residents (key sl.idx kind)))
           && Hashtbl.length residents < pool ->
        Hashtbl.add residents (key sl.idx kind)
          { inst; busy_until = !clock; last_core = 0; last_used = !clock }
    | Some _ | None -> dispose inst
  in
  let crash_ () =
    (* Queued and in-service requests die with the machine, and so do
       its residents; closed-loop clients retry once it is back. *)
    Queue.clear blocked;
    let rec drop () =
      Option.iter
        (fun (tenant, _) ->
          book_failed tenant;
          drop ())
        (Admission.take queue)
    in
    drop ();
    Array.iter (Option.iter (fun (tenant, _, _) -> book_failed tenant)) in_service;
    Array.fill in_service 0 (Array.length in_service) None;
    Event_queue.clear events;
    Queue.clear parked;
    Queue.clear idle;
    List.iter (fun c -> Queue.push c idle) cores;
    drop_residents ();
    Array.iter
      (fun sl ->
        match sl.tenant.Workload.process with
        | Workload.Closed_loop { clients; _ } when sl.hosted ->
            for c = 0 to clients - 1 do
              Queue.push (sl.idx, c) blocked
            done
        | Workload.Open_loop _ | Workload.Closed_loop _ -> ())
      !slots
  in
  let finish_ () =
    horizon := Time.ns max_int;
    loop ();
    (* Robustness accounting is cut at the end of serving, before
       teardown advances the clock further. *)
    let serve_end = Engine.now engine in
    let breaker_transitions, degraded =
      Array.fold_left
        (fun acc sl ->
          match sl.breakers with
          | None -> acc
          | Some arr ->
              Array.fold_left
                (fun (tr, dg) b ->
                  ( tr + Breaker.transitions b,
                    Time.add dg (Breaker.degraded b ~now:serve_end) ))
                acc arr)
        (0, Time.zero) !slots
    in
    (* Tear down: kill any remaining residents so the machine is clean. *)
    drop_residents ();
    (* Drain the anchor pipeline (post-window: accounting is already
       cut) so the hardware PCR covers every state change before the
       plan is removed. *)
    Option.iter Sea_vtpm.Vtpm.sync vtpm;
    Tpm.set_faults tpm None;
    (* --- report --- *)
    let window = Time.max cfg.duration (Time.sub !last_completion base) in
    let row sl =
      { Report.tenant = sl.tenant.Workload.name;
        weight = sl.tenant.Workload.weight; offered = sl.offered;
        completed = sl.completed; shed = sl.shed; timed_out = sl.timed_out;
        failed = sl.failed; latency_ms = sl.latency;
        queue_high_water = Admission.tenant_high_water queue sl.idx }
    in
    let rows = Array.to_list (Array.map row !slots) in
    let aggregate =
      { (Report.merge_rows ~tenant:"aggregate" rows) with
        queue_high_water = Admission.high_water queue }
    in
    let total_core_time =
      Time.scale window (Array.length m.Machine.cpus)
    in
    let legacy_utilization =
      if Time.compare total_core_time Time.zero <= 0 then 0.
      else
        Float.max 0.
          (Time.to_ms (Time.sub total_core_time !pal_busy)
          /. Time.to_ms total_core_time)
    in
    {
      Report.mode = mode_name cfg.mode;
      machine = m.Machine.config.Machine.name;
      cores = List.length cores;
      discipline = Admission.discipline_name cfg.discipline;
      depth = cfg.queue_depth;
      cost_budget =
        (match cfg.discipline with
        | Admission.Cost b -> Some b
        | Admission.Fifo | Admission.Weighted -> None);
      cost_shed = Admission.cost_shed queue;
      window;
      rows;
      aggregate;
      pal_busy = !pal_busy;
      legacy_utilization;
      stalled = !stalled;
      stall_ms;
      cold_starts = !cold_starts;
      warm_hits = !warm_hits;
      evictions = !evictions;
      sepcr_waits = !sepcr_waits;
      sepcr_wait_ms;
      faults_injected =
        (match plan with
        | None -> []
        | Some p ->
            List.map
              (fun (k, c) -> (Sea_fault.Fault.kind_name k, c))
              (Sea_fault.Fault.counts p));
      fault_stall =
        (match plan with
        | None -> Time.zero
        | Some p -> Sea_fault.Fault.stall_injected p);
      retries =
        (match retry with
        | Some p -> Sea_fault.Retry.retries p - retries0
        | None -> 0);
      retry_give_ups =
        (match retry with
        | Some p -> Sea_fault.Retry.give_ups p - give_ups0
        | None -> 0);
      breaker_shed = !breaker_shed;
      breaker_transitions;
      degraded;
      recoveries = !recoveries;
      vtpm =
        Option.map
          (fun v ->
            let c = Sea_vtpm.Vtpm.counters v in
            {
              Report.instances = Sea_vtpm.Vtpm.instances v;
              extends = c.Sea_vtpm.Vtpm.extends;
              seals = c.Sea_vtpm.Vtpm.seals;
              unseals = c.Sea_vtpm.Vtpm.unseals;
              resets = c.Sea_vtpm.Vtpm.resets;
            })
          vtpm;
    }
  in
  Ok { step; finish_; host_; unhost_; adopt_; crash_; slots }

let advance s ~until = ignore (s.step ~reachable:true ~until : int)
let skip s ~until = s.step ~reachable:false ~until
let finish s = s.finish_ ()
let host s tenant = s.host_ tenant
let unhost s name = s.unhost_ name
let adopt s ~tenant kind inst = s.adopt_ ~tenant kind inst
let crash s = s.crash_ ()
let offered s = Array.fold_left (fun acc sl -> acc + sl.offered) 0 !(s.slots)

let completed s ~tenant =
  Array.fold_left
    (fun acc sl -> if sl.tenant.Workload.name = tenant then sl.completed else acc)
    0 !(s.slots)

let run m cfg tenants =
  if tenants = [] then invalid_arg "Server.run: no tenants";
  let* s = create m cfg tenants in
  advance s ~until:cfg.duration;
  Ok (finish s)
