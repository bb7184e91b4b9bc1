(* perfbench: the two-clock benchmark of the serving stack.

   One process runs one workload in one role, named by the first
   argument:

     bench.exe pass   --workload W --seed S   set-up, the ladder, the nominal run
     bench.exe setup  --workload W --seed S   set-up alone
     bench.exe layers --workload W --seed S   per-layer host and trace figures

   A role prints readable lines and ends with one line
   "RESULT <json>"; run.py starts the processes, takes medians and
   prints the benchmark's result line. Virtual figures come from the
   simulator's clock and repeat exactly for a seed; host figures are
   Unix.gettimeofday around public library calls, made only from this
   file. *)

open Sea_sim
open Sea_hw
open Sea_serve
open Sea_cluster

let slo_ms = 250.

(* A rung's window may stretch past its arrival window by this factor
   before the backlog counts as growing. *)
let max_stretch = 1.2

(* ------------------------------------------------------------------ *)
(* Host-time spans around public calls, kept in memory and written out
   as Chrome trace JSON when the process ends.                          *)
(* ------------------------------------------------------------------ *)

module Spans = struct
  type span = { id : int; parent : int; name : string; start : float; stop : float }

  let origin = Unix.gettimeofday ()
  let finished = ref []
  let open_ids = ref []
  let next_id = ref 0

  (* [timed name f] is [f ()] and the host seconds it took. *)
  let timed name f =
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start = Unix.gettimeofday () in
    let close () =
      let stop = Unix.gettimeofday () in
      open_ids := List.tl !open_ids;
      finished := { id; parent; name; start; stop } :: !finished;
      stop -. start
    in
    match f () with
    | v -> (v, close ())
    | exception e ->
        ignore (close ());
        raise e

  let time name f = fst (timed name f)

  let write path =
    let us t = (t -. origin) *. 1e6 in
    let events =
      List.rev_map
        (fun s ->
          Printf.sprintf
            "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
            s.name (us s.start)
            ((s.stop -. s.start) *. 1e6)
            s.id s.parent)
        !finished
    in
    let oc = open_out path in
    output_string oc
      ("{\"traceEvents\":[\n" ^ String.concat ",\n" events ^ "\n]}\n");
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  mode : Server.mode;
  tenants : int;
  vtpm : int option;
  machines : int;  (** 1: Server.run on one machine; more: Cluster.run. *)
  ladder : float list;  (** Offered total request rates, req/s, ascending. *)
  rung_s : float;  (** Arrival window of each rung, virtual seconds. *)
  nominal : float;  (** The rate the latency figures are taken at. *)
  nominal_s : float;
}

(* Why each workload exists is recorded in README.md. Each ladder
   brackets the SLO: its lowest rung meets it and its highest misses
   it. The nominal windows are as long as a run's time allows, so that
   the seed moves p95 and goodput well inside their bounds. *)
let workloads =
  [
    {
      name = "vtpm-current";
      mode = Server.Current;
      tenants = 32;
      vtpm = Some 32;
      machines = 1;
      ladder = [ 0.5; 2.; 8. ];
      rung_s = 80.;
      nominal = 3.;
      nominal_s = 800.;
    };
    {
      name = "resident-proposed";
      mode = Server.Proposed;
      tenants = 6;
      vtpm = None;
      machines = 1;
      ladder = [ 64.; 128.; 256.; 512.; 768. ];
      rung_s = 60.;
      nominal = 256.;
      nominal_s = 60.;
    };
    {
      name = "fleet-flash";
      mode = Server.Proposed;
      tenants = 16;
      vtpm = None;
      machines = 4;
      ladder = [ 10.; 20.; 40.; 80.; 160. ];
      rung_s = 20.;
      nominal = 20.;
      nominal_s = 120.;
    };
  ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S; known: %s\n" name
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2

(* The fleet: Zipf-popular tenants hit by a flash crowd (4x from a
   quarter to half of the window), hash routing, the migrate
   autoscaler, and a light crash plan with failover on. With 16
   tenants cycling ssh/ca/kv, alpha 1.5 gives ssh-auth 59% of the
   traffic, so the median request is not poised between two kinds. *)
let zipf_alpha = 1.5

(* Expected machine crashes across the fleet in one run's window. *)
let crashes_per_run = 1.5

let shards_available = max 1 (min 2 (Domain.recommended_domain_count ()))

let tenants w ~duration rate =
  if w.machines = 1 then Workload.preset ~tenants:w.tenants (`Open rate)
  else
    let shape =
      Workload.Flash
        {
          at = Time.scale_f duration 0.25;
          width = Time.scale_f duration 0.25;
          spike = 4.;
        }
    in
    Workload.preset ~shape ~popularity:(`Zipf zipf_alpha) ~tenants:w.tenants
      (`Open rate)

let machine_config w =
  let c = Machine.low_fidelity Machine.hp_dc5750 in
  match w.mode with Server.Proposed -> Machine.proposed_variant c | _ -> c

type outcome = Single of Report.t | Fleet of Fleet_report.t

let row = function
  | Single r -> r.Report.aggregate
  | Fleet f -> f.Fleet_report.fleet

let window = function
  | Single r -> r.Report.window
  | Fleet f -> f.Fleet_report.window

let goodput = function
  | Single r -> Report.goodput_per_s r r.Report.aggregate
  | Fleet f -> Fleet_report.goodput_per_s f

let render o =
  Spans.time "render" (fun () ->
      match o with
      | Single r -> Report.render r
      | Fleet f -> Fleet_report.render f)

let or_fail what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ e)

(* One simulated run and the host seconds spent inside Server.run or
   Cluster.run. [sinks] installs one trace sink per machine. *)
let simulate w ~seed ~rate ~duration ?(shards = shards_available) ?sinks () =
  let duration = Time.s duration in
  let serve = Server.config ?vtpm:w.vtpm ~mode:w.mode ~duration () in
  let tenants = tenants w ~duration rate in
  let seed = Int64.of_int seed in
  if w.machines = 1 then begin
    let m =
      Spans.time "Machine.create" (fun () ->
          Machine.create ~engine:(Engine.create ~seed ()) (machine_config w))
    in
    let go () = Server.run m serve tenants in
    let r, host =
      Spans.timed "Server.run" (fun () ->
          match sinks with
          | None -> go ()
          | Some s -> Sea_trace.Trace.with_sink s.(0) go)
    in
    (Single (or_fail "Server.run" r), host)
  end
  else begin
    let cfg =
      Cluster.config ~shards:(min shards w.machines)
        ~policy:Router.Hash_tenant ~machines:w.machines ()
    in
    let churn =
      Cluster.churn
        (Sea_fault.Machine_fault.spec
           ~mttf:(Time.scale_f duration (float_of_int w.machines /. crashes_per_run))
           ~seed:(Int64.to_int seed) ())
        ()
    in
    let autoscale = Autoscale.config ~policy:Autoscale.Migrate () in
    let r, host =
      Spans.timed "Cluster.run" (fun () ->
          Cluster.run ~seed ?trace:(Option.map (fun a i -> a.(i)) sinks)
            ~churn ~autoscale cfg ~machine_config:(machine_config w) ~serve
            tenants)
    in
    (Fleet (or_fail "Cluster.run" r), host)
  end

(* Everything a fresh process pays before it can serve: first-use key
   material, Machine.create and bootstrap/vTPM provisioning, taken as an
   arrival-free run on the workload's configuration. *)
let setup w ~seed =
  Spans.time "setup" (fun () ->
      ignore (simulate w ~seed ~rate:1e-3 ~duration:1e-3 ()))

(* ------------------------------------------------------------------ *)
(* Virtual-time figures                                                 *)
(* ------------------------------------------------------------------ *)

(* Latency at percentile [p] over offered requests: a request that was
   shed, timed out, failed or lost ranks as infinitely late. *)
let offered_percentile (r : Report.row) p =
  let sorted = Array.of_list (List.sort compare (Stats.samples r.latency_ms)) in
  let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int r.offered))) in
  if rank > Array.length sorted then infinity else sorted.(rank - 1)

let miss_frac (r : Report.row) =
  let on_time =
    List.length (List.filter (fun l -> l <= slo_ms) (Stats.samples r.latency_ms))
  in
  float_of_int (r.offered - on_time) /. float_of_int (max 1 r.offered)

let stretch o ~duration = Time.to_s (window o) /. duration

(* Checks that every run must pass; a failure is counted and named. *)
let checks = ref 0
let failures = ref []

let check what ok =
  incr checks;
  if not ok then failures := what :: !failures

let check_accounting what o =
  let r = row o in
  check (what ^ ": offered = completed + shed + timed-out + failed")
    (Report.row_consistent r && r.offered > 0)

type rung = { rate : float; meets : bool; line : string }

(* Every rung of the ladder, and the host seconds inside Server.run or
   Cluster.run and the requests offered, summed over the rungs. *)
let ladder w ~seed =
  let runs =
    List.map
      (fun rate ->
        let o, host = simulate w ~seed ~rate ~duration:w.rung_s () in
        check_accounting (Printf.sprintf "rung %g" rate) o;
        let r = row o in
        let p95 = offered_percentile r 95. in
        let stretch = stretch o ~duration:w.rung_s in
        let meets = p95 <= slo_ms && stretch <= max_stretch in
        let line =
          Printf.sprintf
            "rung %8.2f req/s  offered %6d  completed %6d  shed %5d  timed-out %4d  failed %4d  p95 %9.3f ms  goodput %8.3f  stretch %.3f  %s"
            rate r.offered r.completed r.shed r.timed_out r.failed p95
            (goodput o) stretch
            (if meets then "meets SLO" else "misses SLO")
        in
        print_endline line;
        ({ rate; meets; line }, host, r.offered))
      w.ladder
  in
  ( List.map (fun (rung, _, _) -> rung) runs,
    List.fold_left (fun acc (_, host, _) -> acc +. host) 0. runs,
    List.fold_left (fun acc (_, _, offered) -> acc + offered) 0 runs )

let capacity rungs =
  List.fold_left (fun best r -> if r.meets then r.rate else best) 0. rungs

(* Whether the capacity sits at an end of the ladder, where the true
   figure could lie beyond it. *)
let censored rungs cap =
  let first = List.hd rungs and last = List.nth rungs (List.length rungs - 1) in
  if cap = 0. || not first.meets then "below"
  else if last.meets then "above"
  else "no"

let sha256 s = Sea_crypto.Sha256.hex (Sea_crypto.Sha256.digest s)

(* ------------------------------------------------------------------ *)
(* Model accuracy: Table 1 of the paper against the simulator          *)
(* ------------------------------------------------------------------ *)

let table1_sizes_kb = [ 0; 4; 8; 16; 32; 64 ]

let table1_paper =
  [
    (Machine.hp_dc5750, [ 0.00; 11.94; 22.98; 45.05; 89.21; 177.52 ]);
    (Machine.tyan_n3600r, [ 0.01; 0.56; 1.11; 2.21; 4.41; 8.82 ]);
    (Machine.intel_tep, [ 26.39; 26.88; 27.38; 28.37; 30.46; 34.35 ]);
  ]

let late_launch_ms config size =
  let m = Machine.create config in
  let pages = Machine.alloc_pages m (max 1 ((size + Memory.page_size - 1) / Memory.page_size)) in
  if size > 0 then
    Memory.write_span (Memctrl.memory m.Machine.memctrl) ~pages ~off:0
      (String.make size 'p');
  Machine.idle_other_cpus m ~except:0;
  let t0 = Machine.now m in
  ignore (or_fail "late launch" (Insn.late_launch m ~cpu:0 ~pages ~length:size));
  Time.to_ms (Time.sub (Machine.now m) t0)

(* Largest relative error, in percent, over the cells the paper gives
   as non-zero, and the cell it comes from. *)
let table1_err_pct () =
  List.fold_left
    (fun worst (config, paper) ->
      List.fold_left2
        (fun ((err, _) as worst) kb ref_ms ->
          if ref_ms <= 0. then worst
          else
            let sim = late_launch_ms config (kb * 1024) in
            let e = 100. *. Float.abs (sim -. ref_ms) /. ref_ms in
            if e > err then
              (e, Printf.sprintf "%s %d KB: %.3f ms simulated, %.2f ms in the paper"
                    config.Machine.name kb sim ref_ms)
            else worst)
        worst table1_sizes_kb paper)
    (0., "") table1_paper

(* ------------------------------------------------------------------ *)
(* JSON output                                                          *)
(* ------------------------------------------------------------------ *)

type json = N of float | I of int | S of string

let json_of fields =
  let v = function
    | N x when Float.is_finite x -> Printf.sprintf "%.17g" x
    | N _ -> "null"
    | I i -> string_of_int i
    | S s -> Printf.sprintf "%S" s
  in
  "{"
  ^ String.concat ", "
      (List.map (fun (k, x) -> Printf.sprintf "%S: %s" k (v x)) fields)
  ^ "}"

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* Seconds the calibration kernel takes now: sorting lists of ints
   allocates and walks memory much as the simulator does, and uses only
   the standard library, so a change to the simulator cannot move it.
   On a shared host the speed of such code drifts by tens of percent
   over minutes; run.py scales host figures by this time measured in
   the same process. Median of three. *)
let calibrate () =
  let once () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 4 do
      ignore
        (Sys.opaque_identity
           (List.sort compare (List.init 100_000 (fun i -> i * 7919 mod 100_003))))
    done;
    Unix.gettimeofday () -. t0
  in
  List.nth (List.sort compare [ once (); once (); once () ]) 1

let spans_path w ~seed role =
  let dir = "_perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Printf.sprintf "%s/%s-seed%d-%s-%d.trace.json" dir w.name seed role
    (Unix.getpid ())

let finish w ~seed role fields =
  Spans.write (spans_path w ~seed role);
  List.iter (fun f -> Printf.printf "check failed: %s\n" f) (List.rev !failures);
  print_endline
    ("RESULT "
    ^ json_of
        (fields
        @ [
            ("cal_s", N (calibrate ()));
            ("checks", I !checks);
            ("failed", I (List.length !failures));
          ]));
  exit (if !failures = [] then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Roles                                                                *)
(* ------------------------------------------------------------------ *)

let pass w ~seed =
  setup w ~seed;
  let t_ready = Unix.gettimeofday () in
  let rungs, ladder_host, ladder_offered = ladder w ~seed in
  let nominal, _ = simulate w ~seed ~rate:w.nominal ~duration:w.nominal_s () in
  check_accounting "nominal" nominal;
  let nominal_render = render nominal in
  let t_done = Unix.gettimeofday () in
  let r = row nominal in
  let cap = capacity rungs in
  let ladder_digest = sha256 (String.concat "\n" (List.map (fun r -> r.line) rungs)) in
  let p pct = offered_percentile r pct in
  Printf.printf
    "nominal %.2f req/s over %.0f s: %d offered, %d samples; p50 %.3f  p95 %.3f  p99 %.3f ms\n"
    w.nominal w.nominal_s r.offered r.completed (p 50.) (p 95.) (p 99.);
  let fields =
    [
      ("t_ready", N t_ready);
      ("t_done", N t_done);
      ("ladder_host_s", N ladder_host);
      ("ladder_offered", I ladder_offered);
      ("peak_rss_mb", N (peak_rss_mb ()));
      ("capacity_rps", N cap);
      ("censored", S (censored rungs cap));
      ("goodput_rps", N (goodput nominal));
      ("p50_ms", N (p 50.));
      ("p95_ms", N (p 95.));
      ("p99_ms", N (p 99.));
      ("samples", I r.completed);
      ("offered", I r.offered);
      ("miss_frac", N (miss_frac r));
      ("error_frac", N (float_of_int r.failed /. float_of_int r.offered));
      ("digest_nominal", S (sha256 nominal_render));
      ("digest_ladder", S ladder_digest);
    ]
  in
  (* Model accuracy rides with the current-hardware workload, after the
     timed part of the pass. *)
  let fields =
    if w.mode <> Server.Current then fields
    else begin
      let err, cell = table1_err_pct () in
      Printf.printf "Table 1 largest error %.2f%% at %s\n" err cell;
      fields @ [ ("table1_err_pct", N err) ]
    end
  in
  finish w ~seed "pass" fields

(* A fresh process's set-up alone, for the set-up samples beyond the
   one each pass takes. *)
let setup_only w ~seed =
  setup w ~seed;
  let t_ready = Unix.gettimeofday () in
  finish w ~seed "setup" [ ("t_ready", N t_ready) ]

(* Median host seconds of [reps] calls of [f]. *)
let median_time name reps f =
  let times = List.init reps (fun _ -> snd (Spans.timed name f)) in
  List.nth (List.sort compare times) (reps / 2)

let sum_sinks sinks f = Array.fold_left (fun acc s -> acc + f s) 0 sinks

let self_ms sinks cat =
  Time.to_ms (sum_sinks sinks (fun s -> Sea_trace.Trace.category_self s cat))

(* How many spans of category [cat] (and of name [name], if given) the
   sinks hold, and their summed duration. *)
let spans sinks ?name cat =
  Array.fold_left
    (fun acc s ->
      List.fold_left
        (fun (n, total) (st : Sea_trace.Trace.span_stat) ->
          if st.cat = cat && (name = None || name = Some st.name) then
            (n + st.count, total + st.total)
          else (n, total))
        acc
        (Sea_trace.Trace.span_stats s))
    (0, Time.zero) sinks

(* Host cost of the simulator's own primitives at the sizes the
   workload uses. *)
let crypto_and_sim_layers w ~samples =
  let open Sea_crypto in
  let ca = Keyvault.get ~label:"privacy-ca" ~bits:2048 in
  let srk = Keyvault.get ~label:"srk:Broadcom" ~bits:512 in
  let drbg = Drbg.create ~seed:"perfbench-layers" in
  let msg = String.make 20 'm' in
  let ct2048 = Rsa.encrypt ca.Rsa.pub drbg msg in
  let ct512 = Rsa.encrypt srk.Rsa.pub drbg msg in
  let keygen_n = ref 0 in
  let image = String.make (64 * 1024) 'i' in
  let sha1_reps = 64 in
  let sha1_s = median_time "Sha1.digest x64" 3 (fun () ->
      for _ = 1 to sha1_reps do ignore (Sha1.digest image) done)
  in
  (* The serve loop keeps about one pending event per tenant and core. *)
  let depth = w.tenants + (machine_config w).Machine.cpu_count in
  let q = Event_queue.create () in
  let lcg = ref 12345 in
  let next () = lcg := (!lcg * 1103515245 + 12345) land 0x3fffffff; !lcg in
  for _ = 1 to depth do Event_queue.push q ~time:(next ()) () done;
  let ops = 200_000 in
  let eq_s = median_time "Event_queue push+pop" 3 (fun () ->
      for _ = 1 to ops do
        Event_queue.push q ~time:(next ()) ();
        ignore (Event_queue.pop q)
      done)
  in
  let stats = Stats.create () in
  List.iter (Stats.add stats) samples;
  let pct_s = median_time "Stats.percentile" 5 (fun () ->
      Stats.add stats 1.;
      ignore (Stats.percentile stats 95.))
  in
  [
    ("crypto.rsa2048_sign_ms", 1e3 *. median_time "Rsa.sign 2048" 5 (fun () -> ignore (Rsa.sign ca msg)));
    ("crypto.rsa2048_encrypt_ms", 1e3 *. median_time "Rsa.encrypt 2048" 5 (fun () -> ignore (Rsa.encrypt ca.Rsa.pub drbg msg)));
    ("crypto.rsa2048_decrypt_ms", 1e3 *. median_time "Rsa.decrypt 2048" 5 (fun () -> ignore (Rsa.decrypt ca ct2048)));
    ("crypto.rsa512_decrypt_ms", 1e3 *. median_time "Rsa.decrypt 512" 21 (fun () -> ignore (Rsa.decrypt srk ct512)));
    ("crypto.keygen_s", median_time "Rsa.generate 512" 3 (fun () ->
         incr keygen_n;
         ignore (Rsa.generate ~bits:512 (Drbg.create ~seed:(Printf.sprintf "perfbench-keygen-%d" !keygen_n)))));
    ("crypto.sha1_mb_s", float_of_int (sha1_reps * String.length image) /. 1e6 /. sha1_s);
    ("hw.machine_create_ms", 1e3 *. median_time "Machine.create" 5 (fun () -> ignore (Machine.create (machine_config w))));
    ("sim.event_queue_ns", 1e9 *. eq_s /. float_of_int ops);
    ("sim.percentile_us", 1e6 *. pct_s);
  ]

(* Counters the run's report carries, and the host time of its run and
   render. A layer the workload does not use reads 0. *)
let report_layers o ~run_ms ~render_ms ~shard_speedup =
  let fi = float_of_int in
  let r = row o in
  let serve ~cold ~warm ~evictions ~waits ~legacy (v : Report.vtpm_stats option) =
    [
      ("vtpm.seals", match v with Some v -> fi v.seals | None -> 0.);
      ("vtpm.unseals", match v with Some v -> fi v.unseals | None -> 0.);
      ("serve.cold_starts", fi cold);
      ("serve.warm_ratio", fi warm /. fi (max 1 (warm + cold)));
      ("serve.evictions", fi evictions);
      ("serve.sepcr_waits", fi waits);
      ("serve.shed", fi r.shed);
      ("serve.queue_hwm", fi r.queue_high_water);
      ("serve.legacy_util", legacy);
    ]
  in
  match o with
  | Single rep ->
      serve ~cold:rep.cold_starts ~warm:rep.warm_hits ~evictions:rep.evictions
        ~waits:rep.sepcr_waits ~legacy:rep.legacy_utilization rep.vtpm
      @ [ ("serve.run_ms", run_ms); ("serve.render_ms", render_ms) ]
      @ List.map
          (fun name -> (name, 0.))
          [
            "cluster.run_ms"; "cluster.render_ms"; "cluster.shard_speedup";
            "cluster.cold_starts"; "autoscale.tenants_moved"; "migrate.warm";
            "migrate.cold"; "churn.lost";
          ]
  | Fleet f ->
      let from opt get = match opt with Some x -> fi (get x) | None -> 0. in
      let a = f.autoscale and c = f.churn in
      serve ~cold:f.cold_starts ~warm:f.warm_hits ~evictions:f.evictions
        ~waits:f.sepcr_waits ~legacy:0. f.vtpm
      @ [
          ("serve.run_ms", 0.);
          ("serve.render_ms", 0.);
          ("cluster.run_ms", run_ms);
          ("cluster.render_ms", render_ms);
          ("cluster.shard_speedup", shard_speedup);
          ("cluster.cold_starts", fi f.cold_starts);
          ("autoscale.tenants_moved", from a (fun a -> a.tenants_moved));
          ( "migrate.warm",
            from a (fun a -> a.warm_moves) +. from c (fun c -> c.migrations) );
          ( "migrate.cold",
            from a (fun a -> a.cold_moves) +. from c (fun c -> c.cold_restarts) );
          ("churn.lost", from c (fun c -> c.lost_requests));
        ]

(* Virtual self time and counts from the traced run's sinks. *)
let trace_layers sinks =
  let counter name =
    float_of_int (sum_sinks sinks (fun s -> Sea_trace.Trace.counter s name))
  in
  let count cat = float_of_int (fst (spans sinks cat)) in
  let waits, wait_total = spans sinks ~name:"queue-wait" "serve" in
  [
    ("vtpm.self_ms", self_ms sinks "vtpm");
    ("vtpm.anchor_flushes", counter "vtpm.anchor_flushes");
    ("lpc.self_ms", self_ms sinks "lpc");
    ("lpc.bytes", counter "lpc.bytes");
    ("tpm.self_ms", self_ms sinks "tpm");
    ("tpm.cmds", count "tpm");
    ("insn.self_ms", self_ms sinks "insn");
    ("cpu.self_ms", self_ms sinks "cpu");
    ("session.self_ms", self_ms sinks "session");
    ("session.count", count "session");
    ("serve.queue_wait_ms", Time.to_ms wait_total /. float_of_int (max 1 waits));
  ]

let layers w ~seed =
  setup w ~seed;
  let run ?shards ?sinks () =
    simulate w ~seed ~rate:w.nominal ~duration:w.nominal_s ?shards ?sinks ()
  in
  let plain, plain_s = run () in
  let plain_render = render plain in
  let render_s = median_time "render" 3 (fun () -> ignore (render plain)) in
  check_accounting "nominal" plain;
  let sinks = Array.init w.machines (fun _ -> Sea_trace.Trace.create ()) in
  let traced, traced_s = run ~sinks () in
  check "traced nominal renders byte-identically to untraced"
    (render traced = plain_render);
  let shard_speedup =
    if w.machines = 1 then 0.
    else begin
      let one, one_s = run ~shards:1 () in
      check "fleet renders byte-identically on 1 and 2 shards"
        (render one = plain_render);
      one_s /. plain_s
    end
  in
  let provision_ms =
    if w.vtpm = None then 0.
    else 1e3 *. snd (simulate w ~seed ~rate:1e-3 ~duration:1e-3 ())
  in
  let metrics =
    crypto_and_sim_layers w ~samples:(Stats.samples (row plain).latency_ms)
    @ (("vtpm.provision_ms", provision_ms) :: trace_layers sinks)
    @ report_layers plain ~run_ms:(1e3 *. plain_s) ~render_ms:(1e3 *. render_s)
        ~shard_speedup
    @ [ ("trace.overhead", traced_s /. plain_s) ]
  in
  List.iter (fun (k, v) -> Printf.printf "%-26s %.6g\n" k v) metrics;
  finish w ~seed "layers" (List.map (fun (k, v) -> (k, N v)) metrics)

let usage = "bench.exe (pass|setup|layers) --workload NAME --seed N"

let () =
  let role = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 1 in
  (try
     Arg.parse_argv ~current:(ref 1) Sys.argv
       [
         ("--workload", Arg.Set_string workload, "NAME workload to run");
         ("--seed", Arg.Set_int seed, "N input seed");
       ]
       (fun _ -> ())
       usage
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  let w = find_workload !workload and seed = !seed in
  match role with
  | "pass" -> pass w ~seed
  | "setup" -> setup_only w ~seed
  | "layers" -> layers w ~seed
  | _ ->
      prerr_endline usage;
      exit 2
