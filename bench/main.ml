(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§4) from the simulator, prints them next to the paper's
   measured values, and runs the recommendation experiments of §5.7.

   Usage:
     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- table1 figure3 ...
   Experiments: table1 table2 figure2 figure3 impact concurrency
                faster-tpm io-loss multicore micro analyzer serving
                degradation trace fleet cost vtpm churn backend
                autoscale *)
open Sea_sim
open Sea_hw
open Sea_core

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Table 1: SKINIT / SENTER latency vs PAL size                        *)
(* ------------------------------------------------------------------ *)

module Table1 = struct
  let sizes_kb = [ 0; 4; 8; 16; 32; 64 ]

  let paper =
    [
      ("HP dc5750", [ 0.00; 11.94; 22.98; 45.05; 89.21; 177.52 ]);
      ("Tyan n3600R", [ 0.01; 0.56; 1.11; 2.21; 4.41; 8.82 ]);
      ("Intel TEP", [ 26.39; 26.88; 27.38; 28.37; 30.46; 34.35 ]);
    ]

  let measure_one config size =
    let m = Machine.create config in
    let pages =
      Machine.alloc_pages m (max 1 ((size + Memory.page_size - 1) / Memory.page_size))
    in
    if size > 0 then begin
      let drbg = Sea_crypto.Drbg.create ~seed:"bench-table1" in
      Memory.write_span
        (Memctrl.memory m.Machine.memctrl)
        ~pages ~off:0
        (Sea_crypto.Drbg.generate_string drbg size)
    end;
    Machine.idle_other_cpus m ~except:0;
    let t0 = Machine.now m in
    (match Insn.late_launch m ~cpu:0 ~pages ~length:size with
    | Ok _ -> ()
    | Error e -> failwith ("late launch failed: " ^ e));
    Time.to_ms (Time.sub (Machine.now m) t0)

  let run () =
    section "Table 1: SKINIT / SENTER benchmarks (ms)";
    Printf.printf "%-28s %-9s" "System" "";
    List.iter (fun kb -> Printf.printf "%9dKB" kb) sizes_kb;
    print_newline ();
    List.iter
      (fun (config, (paper_name, paper_row)) ->
        Printf.printf "%-28s %-9s" paper_name "sim:";
        List.iter
          (fun kb -> Printf.printf "%11.2f" (measure_one config (kb * 1024)))
          sizes_kb;
        print_newline ();
        Printf.printf "%-28s %-9s" "" "paper:";
        List.iter (fun v -> Printf.printf "%11.2f" v) paper_row;
        print_newline ())
      (List.combine
         [ Machine.hp_dc5750; Machine.tyan_n3600r; Machine.intel_tep ]
         paper);
    Printf.printf
      "\nShape checks: AMD+TPM grows linearly with PAL size (LPC long\n\
       waits); AMD without TPM rides the wait-free bus; Intel starts high\n\
       (ACMod transfer + verify) and grows slowly (PAL hashed on-CPU).\n"
end

(* ------------------------------------------------------------------ *)
(* Table 2: VM entry / exit                                            *)
(* ------------------------------------------------------------------ *)

module Table2 = struct
  let paper =
    [
      ("AMD SVM (Tyan n3600R)", 0.5580, 0.0028, 0.5193, 0.0036);
      ("Intel TXT (MPC ClientPro)", 0.4457, 0.0029, 0.4491, 0.0015);
    ]

  let sample machine f =
    let s = Stats.create () in
    for _ = 1 to 1000 do
      let t0 = Machine.now machine in
      f ();
      Stats.add s (Time.to_us (Time.sub (Machine.now machine) t0))
    done;
    s

  let run () =
    section "Table 2: VM Entry / VM Exit (us)";
    Printf.printf "%-28s %12s %10s %12s %10s\n" "Platform" "Enter avg" "stdev"
      "Exit avg" "stdev";
    List.iter2
      (fun config (name, p_enter, p_se, p_exit, p_sx) ->
        let m = Machine.create config in
        let enter = sample m (fun () -> Insn.vm_enter m ~cpu:0) in
        let exit_ = sample m (fun () -> Insn.vm_exit m ~cpu:0) in
        Printf.printf "%-28s %12.4f %10.4f %12.4f %10.4f   (sim)\n" name
          (Stats.mean enter) (Stats.stdev enter) (Stats.mean exit_)
          (Stats.stdev exit_);
        Printf.printf "%-28s %12.4f %10.4f %12.4f %10.4f   (paper)\n" "" p_enter
          p_se p_exit p_sx)
      [ Machine.tyan_n3600r; Machine.intel_tep ]
      paper
end

(* ------------------------------------------------------------------ *)
(* Figure 2: end-to-end PAL Gen / PAL Use / Quote breakdown            *)
(* ------------------------------------------------------------------ *)

module Figure2 = struct
  let runs = 20 (* paper: 100 runs, negligible variance *)

  type segs = {
    skinit : Stats.t;
    seal : Stats.t;
    unseal : Stats.t;
    other : Stats.t;
    total : Stats.t;
  }

  let segs () =
    {
      skinit = Stats.create ();
      seal = Stats.create ();
      unseal = Stats.create ();
      other = Stats.create ();
      total = Stats.create ();
    }

  let record s (b : Session.breakdown) =
    Stats.add_time s.skinit b.Session.late_launch;
    Stats.add_time s.seal b.Session.seal;
    Stats.add_time s.unseal b.Session.unseal;
    Stats.add_time s.other b.Session.other;
    Stats.add_time s.total (Session.overhead b)

  let print_row name s =
    Printf.printf "%-10s skinit %8.2f | seal %7.2f | unseal %7.2f | other %6.2f | total %8.2f ms (±%.2f)\n"
      name (Stats.mean s.skinit) (Stats.mean s.seal) (Stats.mean s.unseal)
      (Stats.mean s.other) (Stats.mean s.total) (Stats.stdev s.total)

  let run () =
    section "Figure 2: generic SEA application overheads (HP dc5750)";
    let m = Machine.create Machine.hp_dc5750 in
    let gen_s = segs () and use_s = segs () and quote_s = Stats.create () in
    for _ = 1 to runs do
      let gen =
        match Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:"" with
        | Ok o -> o
        | Error e -> failwith e
      in
      record gen_s gen.Session.breakdown;
      (match Session.execute m ~cpu:0 (Generic.pal_use ()) ~input:gen.Session.output with
      | Ok use -> record use_s use.Session.breakdown
      | Error e -> failwith e);
      match Session.quote m ~nonce:"bench" with
      | Ok (_, d) -> Stats.add_time quote_s d
      | Error e -> failwith e
    done;
    Printf.printf "(%d runs; PAL is the full 64 KB SKINIT allows)\n\n" runs;
    print_row "PAL Gen" gen_s;
    print_row "PAL Use" use_s;
    Printf.printf "%-10s %8.2f ms (±%.2f)\n" "Quote" (Stats.mean quote_s)
      (Stats.stdev quote_s);
    Printf.printf
      "\nPaper: PAL Gen ≈ 200 ms (177.5 SKINIT + 20.01 Seal); PAL Use > 1 s\n\
       (SKINIT + ~900 ms Unseal + optional re-Seal); Quote ≈ 950 ms.\n"
end

(* ------------------------------------------------------------------ *)
(* Figure 3: TPM microbenchmarks across four TPMs                      *)
(* ------------------------------------------------------------------ *)

module Figure3 = struct
  let trials = 20 (* as in the paper *)

  let machines =
    [
      (Sea_tpm.Vendor.Atmel_t60, Machine.lenovo_t60);
      (Sea_tpm.Vendor.Broadcom, Machine.hp_dc5750);
      (Sea_tpm.Vendor.Infineon, Machine.amd_infineon);
      (Sea_tpm.Vendor.Atmel_tep, Machine.intel_tep);
    ]

  let ops tpm =
    let caller = Sea_tpm.Tpm.Cpu 0 in
    let payload = String.make 256 's' in
    let blob = ref "" in
    [
      ("PCR Extend", fun () -> ignore (Sea_tpm.Tpm.pcr_extend tpm 16 "m"));
      ( "Seal",
        fun () ->
          blob :=
            Result.get_ok (Sea_tpm.Tpm.seal tpm ~caller ~pcr_policy:[] payload) );
      ( "Quote",
        fun () ->
          ignore
            (Result.get_ok
               (Sea_tpm.Tpm.quote tpm ~caller:Sea_tpm.Tpm.Software ~selection:[ 17 ]
                  ~nonce:"n" ())) );
      ( "Unseal",
        fun () -> ignore (Result.get_ok (Sea_tpm.Tpm.unseal tpm ~caller !blob)) );
      ("GetRand 128B", fun () -> ignore (Sea_tpm.Tpm.get_random tpm 128));
    ]

  let run () =
    section "Figure 3: TPM microbenchmarks, mean ± stdev over 20 trials (ms)";
    Printf.printf "%-14s" "Operation";
    List.iter
      (fun (v, _) -> Printf.printf "%22s" (Sea_tpm.Vendor.name v))
      machines;
    print_newline ();
    let results =
      List.map
        (fun (v, config) ->
          let m = Machine.create config in
          let tpm = Machine.tpm_exn m in
          ( v,
            List.map
              (fun (name, f) ->
                let s = Stats.create () in
                for _ = 1 to trials do
                  let t0 = Machine.now m in
                  f ();
                  Stats.add_time s (Time.sub (Machine.now m) t0)
                done;
                (name, s))
              (ops tpm) ))
        machines
    in
    let op_names = List.map fst (snd (List.hd results)) in
    List.iter
      (fun op ->
        Printf.printf "%-14s" op;
        List.iter
          (fun (_, rows) ->
            let s = List.assoc op rows in
            Printf.printf "%15.2f ±%4.1f" (Stats.mean s) (Stats.stdev s))
          results;
        print_newline ())
      op_names;
    Printf.printf
      "\nPaper anchors: Broadcom Seal 11.4–20 ms (fastest) but slowest Quote\n\
       and Unseal (~950/900 ms); Infineon Unseal 390.98 ms and best average;\n\
       Seal spans 20–500 ms and Unseal 290–900 ms across vendors (§5.7).\n"
end

(* ------------------------------------------------------------------ *)
(* §5.7 impact: context-switch cost, current vs proposed               *)
(* ------------------------------------------------------------------ *)

module Impact = struct
  let run () =
    section "§5.7 Expected impact: PAL context-switch cost";
    (* Current hardware: switching PAL state out and back in means
       TPM Seal, then later SKINIT + TPM Unseal. *)
    let m = Machine.create Machine.hp_dc5750 in
    let gen =
      match Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:"" with
      | Ok o -> o
      | Error e -> failwith e
    in
    let switch_out = Time.to_ms gen.Session.breakdown.Session.seal in
    let use =
      match Session.execute m ~cpu:0 (Generic.pal_use ()) ~input:gen.Session.output with
      | Ok o -> o
      | Error e -> failwith e
    in
    let switch_in =
      Time.to_ms
        (Time.add use.Session.breakdown.Session.late_launch
           use.Session.breakdown.Session.unseal)
    in
    Printf.printf "Current hardware (HP dc5750, Broadcom TPM):\n";
    Printf.printf "  switch out (TPM Seal):            %8.2f ms\n" switch_out;
    Printf.printf "  switch in  (SKINIT + TPM Unseal): %8.2f ms\n" switch_in;
    let current_total = switch_out +. switch_in in
    Printf.printf "  full switch cycle:                %8.2f ms\n\n" current_total;
    (* Proposed hardware: SYIELD out, SLAUNCH(MF=1) back in. *)
    let mp = Machine.create (Machine.proposed_variant Machine.hp_dc5750) in
    let pal =
      Pal.create ~name:"impact" ~code_size:8192 ~compute_time:(Time.ms 100.)
        (fun _ _ -> Ok "")
    in
    let s =
      match
        Slaunch_session.start mp ~cpu:0 ~preemption_timer:(Time.ms 1.) pal ~input:""
      with
      | Ok s -> s
      | Error e -> failwith e
    in
    let out_s = Stats.create () and in_s = Stats.create () in
    for _ = 1 to 50 do
      let t0 = Machine.now mp in
      (match Slaunch_session.run_slice s ~cpu:0 () with
      | Ok `Yielded -> ()
      | _ -> failwith "expected yield");
      (* run_slice burns 1 ms of work then yields; subtract the work. *)
      Stats.add out_s (Time.to_us (Time.sub (Machine.now mp) t0) -. 1000.);
      let t1 = Machine.now mp in
      (match Slaunch_session.resume s ~cpu:0 with
      | Ok () -> ()
      | Error e -> failwith e);
      Stats.add in_s (Time.to_us (Time.sub (Machine.now mp) t1))
    done;
    Printf.printf "Proposed hardware (SLAUNCH/SYIELD):\n";
    Printf.printf "  switch out (SYIELD):              %8.3f us\n" (Stats.mean out_s);
    Printf.printf "  switch in  (SLAUNCH resume):      %8.3f us\n" (Stats.mean in_s);
    let proposed_total = (Stats.mean out_s +. Stats.mean in_s) /. 1000. in
    Printf.printf "  full switch cycle:                %8.5f ms\n\n" proposed_total;
    let ratio = current_total /. proposed_total in
    Printf.printf
      "Improvement: %.1fx ≈ 10^%.1f — the paper claims six orders of\n\
       magnitude (200–1000 ms down to ~0.6 us VM-transition scale).\n"
      ratio (log10 ratio)
end

(* ------------------------------------------------------------------ *)
(* Ablation A1: platform concurrency under PAL load                    *)
(* ------------------------------------------------------------------ *)

module Concurrency = struct
  let batch n =
    List.init n (fun i ->
        Sea_os.Scheduler.job
          ~label:(Printf.sprintf "job%d" i)
          ~arrival:(Time.ms (25. *. float_of_int i))
          ~chunks:8 ~chunk_work:(Time.ms 5.) ~code_size:(16 * 1024) ())

  let run () =
    section "Ablation: multiprogramming with PALs (§4.4 vs §5)";
    Printf.printf
      "%d jobs, 8 chunks × 5 ms protected work each, on a 2-core machine.\n\n" 6;
    let jobs = batch 6 in
    let window = Time.s 60. in
    let mc = Machine.create Machine.hp_dc5750 in
    let rc = Sea_os.Scheduler.run mc ~mode:Sea_os.Scheduler.Current ~jobs ~window in
    let mp = Machine.create (Machine.proposed_variant Machine.hp_dc5750) in
    let rp = Sea_os.Scheduler.run mp ~mode:Sea_os.Scheduler.Proposed ~jobs ~window in
    let print r =
      Printf.printf
        "  %-12s jobs %d/%d   mean latency %10.1f ms   legacy CPU %5.1f%%   full-platform stall %s\n"
        (match r.Sea_os.Scheduler.mode with
        | Sea_os.Scheduler.Current -> "current hw"
        | Sea_os.Scheduler.Proposed -> "proposed hw")
        r.Sea_os.Scheduler.completed
        (r.Sea_os.Scheduler.completed + r.Sea_os.Scheduler.failed)
        (Stats.mean r.Sea_os.Scheduler.pal_latency_ms)
        (100. *. r.Sea_os.Scheduler.legacy_utilization)
        (Time.to_string r.Sea_os.Scheduler.stalled)
    in
    print rc;
    print rp;
    let si = rc.Sea_os.Scheduler.stall_intervals_ms in
    if Stats.count si = 0 then
      Printf.printf
        "\nResponsiveness: current hardware recorded no full-platform\n\
         freezes in this window; the proposed hardware never freezes it\n\
         at all.\n"
    else begin
      Printf.printf
        "\nResponsiveness: current hardware freezes the whole platform %d times,\n\
         median %.0f ms, worst %.0f ms per freeze; the proposed hardware never\n\
         freezes it at all.\n"
        (Stats.count si)
        (Stats.percentile si 50.)
        (Stats.max si);
      Format.printf "Stall tail: %a ms@." Stats.pp_percentiles si
    end;
    Printf.printf
      "\nEvery chunk on current hardware = one full session (SKINIT + Unseal\n\
       + Seal) with the whole platform frozen; on proposed hardware the job\n\
       is one SLAUNCH session sliced by the preemption timer on one core.\n"
end

(* ------------------------------------------------------------------ *)
(* Ablation A2: "just make the TPM faster" (§5.7 last paragraph)       *)
(* ------------------------------------------------------------------ *)

module Faster_tpm = struct
  let factors = [ 1.; 0.1; 0.01; 1e-3; 1e-4; 1e-5; 1e-6 ]

  let run () =
    section "Ablation: speeding up the TPM instead of new instructions";
    Printf.printf "%-14s %20s\n" "TPM speedup" "PAL Use overhead";
    List.iter
      (fun factor ->
        let profile =
          Sea_tpm.Timing.scaled
            (Sea_tpm.Timing.profile Sea_tpm.Vendor.Broadcom)
            ~factor
        in
        let cfg = { Machine.hp_dc5750 with Machine.tpm_profile = Some profile } in
        let m = Machine.create cfg in
        let gen =
          match Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:"" with
          | Ok o -> o
          | Error e -> failwith e
        in
        let use =
          match
            Session.execute m ~cpu:0 (Generic.pal_use ()) ~input:gen.Session.output
          with
          | Ok o -> o
          | Error e -> failwith e
        in
        Printf.printf "%11.0fx %20s\n" (1. /. factor)
          (Time.to_string (Session.overhead use.Session.breakdown)))
      factors;
    Printf.printf
      "\nEven a million-fold TPM leaves the per-switch suspend/launch\n\
       plumbing; and (the paper's point) RSA at that speed would need\n\
       significant engineering and power for what SLAUNCH gets from the\n\
       memory controller — with the proposed switch at ~0.6 us regardless.\n"
end

(* ------------------------------------------------------------------ *)
(* Ablation: network loss during platform stalls                       *)
(* ------------------------------------------------------------------ *)

module Io_loss = struct
  let rate_pps = 2000
  let ring_slots = 512
  let sessions = 8
  let period = Time.s 2.
  let duration = Time.s 16.

  let run () =
    section "Ablation: NIC packet loss while PALs run (§4.2's stall, made concrete)";
    Printf.printf
      "%d pps line rate, %d-slot RX ring, %d protected-state sessions over %s.\n\n"
      rate_pps ring_slots sessions (Time.to_string duration);
    (* Current hardware: each session freezes the platform; the ring
       overflows. Windows come from real session runs. *)
    let m = Machine.create Machine.hp_dc5750 in
    let windows =
      match
        Sea_os.Netload.collect_stall_windows m ~sessions ~period (Generic.pal_use ())
      with
      | Ok w -> w
      | Error e -> failwith e
    in
    let current =
      Sea_os.Netload.simulate ~rate_pps ~duration ~ring_slots ~stall_windows:windows
    in
    (* Proposed hardware: the only unavailability is the ~1.3 us context
       switch pair, ten per session — synthesize those windows from the
       measured switch cost. *)
    let switch = Time.us 1.4 in
    let proposed_windows =
      List.concat_map
        (fun s ->
          List.init 10 (fun k ->
              let at = Time.add (Time.scale period s) (Time.ms (float_of_int k)) in
              (at, Time.add at switch)))
        (List.init sessions Fun.id)
    in
    let proposed =
      Sea_os.Netload.simulate ~rate_pps ~duration ~ring_slots
        ~stall_windows:proposed_windows
    in
    let print label (r : Sea_os.Netload.stats) =
      Printf.printf "  %-12s offered %6d   delivered %6d   dropped %6d (%.1f%%)   ring peak %d\n"
        label r.Sea_os.Netload.offered r.Sea_os.Netload.delivered
        r.Sea_os.Netload.dropped
        (100. *. float_of_int r.Sea_os.Netload.dropped
        /. float_of_int (max 1 r.Sea_os.Netload.offered))
        r.Sea_os.Netload.peak_occupancy
    in
    print "current hw" current;
    print "proposed hw" proposed;
    Printf.printf
      "\nEach PAL Use session freezes the platform for ~1.1 s: at %d pps that\n\
       is ~%d arrivals against a %d-slot ring, so most of them drop. The\n\
       proposed hardware's microsecond switches never back the ring up.\n"
      rate_pps (11 * rate_pps / 10) ring_slots
end

(* ------------------------------------------------------------------ *)
(* Ablation A3: multicore PALs (§6)                                    *)
(* ------------------------------------------------------------------ *)

module Multicore = struct
  let work = Time.ms 48.
  let timer = Time.ms 4.

  let completion workers =
    let cfg = Machine.proposed_variant Machine.hp_dc5750 in
    let m = Machine.create { cfg with Machine.cpu_count = max 2 (workers + 1) } in
    let pal =
      Pal.create ~name:"mc-bench" ~code_size:8192 ~compute_time:work
        (fun _ _ -> Ok "")
    in
    let s =
      match Slaunch_session.start m ~cpu:0 ~preemption_timer:timer pal ~input:"" with
      | Ok s -> s
      | Error e -> failwith e
    in
    let join_helpers () =
      for c = 1 to workers - 1 do
        match Slaunch_session.join s ~cpu:c with
        | Ok () -> ()
        | Error e -> failwith e
      done
    in
    join_helpers ();
    let t0 = Machine.now m in
    let rec drive () =
      match Slaunch_session.run_slice s ~cpu:0 () with
      | Ok `Finished -> ()
      | Ok `Yielded -> (
          match Slaunch_session.resume s ~cpu:0 with
          | Ok () ->
              join_helpers ();
              drive ()
          | Error e -> failwith e)
      | Error e -> failwith e
    in
    drive ();
    let elapsed = Time.sub (Machine.now m) t0 in
    Slaunch_session.release s;
    elapsed

  let run () =
    section "Ablation: multicore PALs (§6) — SJOIN speedup";
    Printf.printf "48 ms of protected work, 4 ms preemption slices.\n\n";
    Printf.printf "%-10s %16s %10s\n" "workers" "completion" "speedup";
    let base = ref 0. in
    List.iter
      (fun w ->
        let t = Time.to_ms (completion w) in
        if w = 1 then base := t;
        Printf.printf "%-10d %13.2f ms %9.2fx\n" w t (!base /. t))
      [ 1; 2; 3; 4 ];
    Printf.printf
      "\nJoin/leave costs a VM transition per helper per slice, so the\n\
       speedup stays near-linear for slice lengths well above a\n\
       microsecond — the cheap alternative to splitting the function\n\
       into multiple single-CPU PALs that §6 discusses.\n"
end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: wall-clock cost of the simulator itself  *)
(* ------------------------------------------------------------------ *)

module Micro = struct
  open Bechamel
  open Toolkit
  module Stime = Sea_sim.Time

  (* One Test.make per experiment driver: what each of the table/figure
     generators above costs in host wall-clock, per simulated operation. *)
  let tests () =
    let skinit_machine = Machine.create Machine.hp_dc5750 in
    let skinit_pages = Machine.alloc_pages skinit_machine 16 in
    Memory.write_span
      (Memctrl.memory skinit_machine.Machine.memctrl)
      ~pages:skinit_pages ~off:0 (String.make (64 * 1024) 'c');
    Machine.idle_other_cpus skinit_machine ~except:0;
    let tpm_machine = Machine.create Machine.hp_dc5750 in
    let tpm = Machine.tpm_exn tpm_machine in
    let proposed = Machine.create (Machine.proposed_variant Machine.hp_dc5750) in
    let pal =
      Pal.create ~name:"micro" ~code_size:8192 ~compute_time:(Stime.s 9999.)
        (fun _ _ -> Ok "")
    in
    let session =
      Result.get_ok
        (Slaunch_session.start proposed ~cpu:0 ~preemption_timer:(Stime.us 1.) pal
           ~input:"")
    in
    (match Slaunch_session.run_slice session ~cpu:0 () with
    | Ok `Yielded -> ()
    | _ -> failwith "micro setup: expected yield");
    let open Sea_crypto in
    let ca = Keyvault.get ~label:"privacy-ca" ~bits:2048 in
    let srk = Keyvault.get ~label:"srk:Broadcom" ~bits:512 in
    let ct512 = Rsa.encrypt srk.Rsa.pub (Drbg.create ~seed:"micro") "payload" in
    let keygen_seed = ref 0 in
    let tpm_engine = Engine.create () in
    let drbg = Drbg.create ~seed:"micro-drbg" in
    let block64k = String.make 65536 'x' and msg32 = String.make 32 'm' in
    [
      Test.make ~name:"rsa2048-sign"
        (Staged.stage (fun () -> Rsa.sign ca "micro message"));
      Test.make ~name:"rsa512-decrypt"
        (Staged.stage (fun () -> Rsa.decrypt srk ct512));
      Test.make ~name:"rsa512-keygen"
        (Staged.stage (fun () ->
             incr keygen_seed;
             Rsa.generate ~bits:512
               (Drbg.create ~seed:(Printf.sprintf "micro-keygen-%d" !keygen_seed))));
      Test.make ~name:"bignum-divmod-2048/1024"
        (Staged.stage (fun () -> Bignum.divmod ca.Rsa.pub.Rsa.n ca.Rsa.p));
      (* Every key and the AIK certificate are cached after the first. *)
      Test.make ~name:"tpm-create (keys cached)"
        (Staged.stage (fun () -> Sea_tpm.Tpm.create tpm_engine));
      Test.make ~name:"sha1-64KB"
        (Staged.stage (fun () -> Sea_crypto.Sha1.digest (String.make 65536 'x')));
      Test.make ~name:"sha256-64KB" (Staged.stage (fun () -> Sha256.digest block64k));
      Test.make ~name:"hmac-sha256-32B"
        (Staged.stage (fun () -> Hmac.sha256 ~key:msg32 msg32));
      (* One keygen candidate's draw, and one draw of RSA padding. *)
      Test.make ~name:"drbg-generate-1B" (Staged.stage (fun () -> Drbg.generate drbg 1));
      Test.make ~name:"drbg-generate-32B" (Staged.stage (fun () -> Drbg.generate drbg 32));
      Test.make ~name:"simulate-skinit-64KB (table1)"
        (Staged.stage (fun () ->
             ignore
               (Insn.skinit skinit_machine ~cpu:0 ~pages:skinit_pages
                  ~length:(64 * 1024))));
      Test.make ~name:"simulate-vm-enter (table2)"
        (Staged.stage (fun () -> Insn.vm_enter skinit_machine ~cpu:0));
      Test.make ~name:"simulate-tpm-seal (fig2/fig3)"
        (Staged.stage (fun () ->
             ignore
               (Sea_tpm.Tpm.seal tpm ~caller:(Sea_tpm.Tpm.Cpu 0) ~pcr_policy:[]
                  "payload")));
      Test.make ~name:"simulate-context-switch (impact)"
        (Staged.stage (fun () ->
             (match Slaunch_session.resume session ~cpu:0 with
             | Ok () -> ()
             | Error e -> failwith e);
             match
               Slaunch_session.run_slice session ~cpu:0 ~budget:(Stime.us 1.) ()
             with
             | Ok `Yielded -> ()
             | Ok `Finished -> failwith "unexpected finish"
             | Error e -> failwith e));
    ]

  let run () =
    section "Bechamel micro-benchmarks: simulator wall-clock cost (host time)";
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let instance = Instance.monotonic_clock in
    let cfg =
      Benchmark.cfg ~limit:1000 ~quota:(Bechamel.Time.second 0.4) ~stabilize:false
        ()
    in
    List.iter
      (fun test ->
        List.iter
          (fun elt ->
            let results = Benchmark.run cfg [ instance ] elt in
            let est = Analyze.one ols instance results in
            match Analyze.OLS.estimates est with
            | Some (ns :: _) ->
                Printf.printf "  %-36s %12.0f ns/run\n" (Test.Elt.name elt) ns
            | _ -> Printf.printf "  %-36s (no estimate)\n" (Test.Elt.name elt))
          (Test.elements test))
      (tests ())
end

(* ------------------------------------------------------------------ *)
(* Static-analyzer throughput: images/sec vs image size                *)
(* ------------------------------------------------------------------ *)

module Analyzer_throughput = struct
  (* Synthetic but fully decodable images: blocks of register shuffling
     with a forward branch each, so the CFG and the interval dataflow do
     real work. [loopy] adds one back-edge per block. *)
  let make_image ~insns ~loopy =
    let ops = ref [] in
    let block = 16 in
    for i = insns - 2 downto 0 do
      let pc = i * Sea_isa.Isa.insn_size in
      let op =
        match i mod block with
        | 0 -> Sea_isa.Isa.Loadi (i mod 8, (i * 37) land 0xFFFF)
        | 1 -> Sea_isa.Isa.Add (1, 2, 3)
        | 2 -> Sea_isa.Isa.Xor (4, 5, 6)
        | 3 ->
            (* Forward skip of one instruction. *)
            Sea_isa.Isa.Jz (2, pc + (2 * Sea_isa.Isa.insn_size))
        | 4 when loopy ->
            (* Back-edge to the head of this block. *)
            Sea_isa.Isa.Jnz (3, pc - (4 * Sea_isa.Isa.insn_size))
        | 5 -> Sea_isa.Isa.Or (5, 6, 7)
        | 6 -> Sea_isa.Isa.Mov (i mod 8, (i + 3) mod 8)
        | _ -> Sea_isa.Isa.Sub (2, 3, 4)
      in
      ops := op :: !ops
    done;
    Sea_isa.Isa.encode_program (!ops @ [ Sea_isa.Isa.Halt ])

  let time_analyses code =
    (* Host CPU time; repeat until the clock has something to measure. *)
    let reps = ref 0 in
    let t0 = Sys.time () in
    let elapsed () = Sys.time () -. t0 in
    while elapsed () < 0.25 do
      ignore (Sea_analysis.Analyzer.analyze code);
      incr reps
    done;
    float_of_int !reps /. elapsed ()

  let run () =
    section "Analyzer throughput: images/sec vs image size (host time)";
    Printf.printf "%-10s %-12s %12s %12s %14s\n" "size" "variant" "insns"
      "images/s" "MB/s";
    List.iter
      (fun kb ->
        List.iter
          (fun loopy ->
            let insns = kb * 1024 / Sea_isa.Isa.insn_size in
            let code = make_image ~insns ~loopy in
            let report = Sea_analysis.Analyzer.analyze code in
            if not (Sea_analysis.Report.is_clean report) then
              failwith
                ("bench image unexpectedly dirty:\n"
                ^ Sea_analysis.Report.render report);
            let ips = time_analyses code in
            Printf.printf "%-10s %-12s %12d %12.1f %14.2f\n"
              (Printf.sprintf "%dKB" kb)
              (if loopy then "loops" else "straight")
              insns ips
              (ips *. float_of_int (String.length code) /. 1e6))
          [ false; true ])
      [ 1; 4; 16; 64 ]
end

(* ------------------------------------------------------------------ *)
(* Serving and fleet benches: the run setup, sustainability rule,      *)
(* capacity ladder walk and JSON writer the benches below share.       *)
(* ------------------------------------------------------------------ *)

(* Smoke mode (SEA_BENCH_SMOKE=1): shorter arrivals and smaller sweeps
   so the CI regression gate finishes in seconds. The emitted JSON is
   fully deterministic either way — the gate compares it against the
   checked-in smoke baseline within tolerance. *)
let smoke = Sys.getenv_opt "SEA_BENCH_SMOKE" <> None
let smoke_tag = if smoke then " [smoke]" else ""
let slo_ms = 250.
let depth = 8
let mode_name = Backend.cli_name

(* The hardware a mode needs. Only proposed mode equips the proposed
   variant; current and sfi serve on the commodity config. *)
let machine_config mode =
  let config = Machine.low_fidelity Machine.hp_dc5750 in
  match mode with
  | Sea_serve.Server.Current | Sea_serve.Server.Sfi -> config
  | Sea_serve.Server.Proposed -> Machine.proposed_variant config

let serve ~seed ?discipline ?faults ?vtpm ~mode ~duration tenants =
  let m =
    Machine.create ~engine:(Engine.create ~seed ()) (machine_config mode)
  in
  let cfg =
    Sea_serve.Server.config ~queue_depth:depth ?discipline ?faults ?vtpm
      ~mode ~duration ()
  in
  match Sea_serve.Server.run m cfg tenants with
  | Ok r -> r
  | Error e -> failwith ("serve run: " ^ e)

let fleet ~seed ?(depth = depth) ?policy ?churn ?autoscale ~mode ~machines
    ~duration tenants =
  match
    Sea_cluster.Cluster.run ~seed ?churn ?autoscale
      (Sea_cluster.Cluster.config ?policy ~machines ())
      ~machine_config:(machine_config mode)
      ~serve:(Sea_serve.Server.config ~queue_depth:depth ~mode ~duration ())
      tenants
  with
  | Ok fr -> fr
  | Error e -> failwith ("fleet run: " ^ e)

(* An empty completion sample (every request shed or failed) means no
   SLO is met, not a crash: report its p95 as infinite. *)
let p95 (a : Sea_serve.Report.row) =
  match Stats.percentile_opt a.Sea_serve.Report.latency_ms 95. with
  | Some p -> p
  | None -> Float.infinity

(* A run holds when nothing failed, something completed (an empty sample
   must never count as sustained), shed plus timed-out stay within
   [allow offered] (none by default), p95 is within [slo_ms] when there
   is one, and the window — the slowest machine's, for a fleet — ends by
   1.2x the arrival duration: a window stretching far past the arrivals
   means the backlog was only surviving on the depth bound. *)
let holds ?slo_ms ?(allow = fun _ -> 0) ~duration window
    (a : Sea_serve.Report.row) =
  a.Sea_serve.Report.failed = 0
  && a.Sea_serve.Report.completed > 0
  && a.Sea_serve.Report.shed + a.Sea_serve.Report.timed_out
     <= allow a.Sea_serve.Report.offered
  && (match slo_ms with Some slo -> p95 a <= slo | None -> true)
  && Time.compare window (Time.scale_f duration 1.2) <= 0

(* One machine's rate ladder per mode. The current ladder starts high
   enough that even the short smoke window sees arrivals: a 0 capacity
   must mean a measured SLO violation, never an empty sample. SFI's
   transitions are cheaper than proposed's, so its ladder reaches higher
   before the SLO breaks. *)
let rate_ladder = function
  | Sea_serve.Server.Current -> [ 1.; 2.; 4. ]
  | Sea_serve.Server.Proposed ->
      if smoke then [ 8.; 16.; 32.; 64. ]
      else [ 8.; 12.; 16.; 24.; 32.; 48.; 64.; 96.; 128. ]
  | Sea_serve.Server.Sfi ->
      if smoke then [ 8.; 16.; 32.; 64.; 96.; 128. ]
      else [ 8.; 12.; 16.; 24.; 32.; 48.; 64.; 96.; 128.; 192.; 256. ]

(* Walk the ladder upward, printing each rung's [show] line, until the
   first rung that does not hold. Capacity is the last rung that held,
   with its run; [None] when even the first rung fails. *)
let capacity ~run ~ok ~show ladder =
  let rec walk best = function
    | [] -> best
    | rung :: rest ->
        let r = run rung in
        let held = ok r in
        show rung r held;
        if held then walk (Some (rung, r)) rest else best
  in
  walk None ladder

let verdict held = if held then "sustained" else "OVERLOAD"

let percentiles (a : Sea_serve.Report.row) =
  Format.asprintf "%a" Stats.pp_percentiles a.Sea_serve.Report.latency_ms

(* JSON values carry their printed precision, so each file keeps the
   digits its checked-in baseline was written with. *)
type json =
  Str of string | Bool of bool | Int of int | F1 of float | F2 of float | Null

let write_json file ~bench header rows =
  let value = function
    | Str s -> Printf.sprintf "%S" s
    | Bool b -> string_of_bool b
    | Int i -> string_of_int i
    | F1 x -> Printf.sprintf "%.1f" x
    | F2 x -> Printf.sprintf "%.2f" x
    | Null -> "null"
  in
  let fields kvs =
    String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (value v)) kvs)
  in
  let oc = open_out file in
  output_string oc "{\n";
  List.iter
    (fun kv -> Printf.fprintf oc "  %s,\n" (fields [ kv ]))
    (("bench", Str bench) :: ("smoke", Bool smoke) :: header);
  output_string oc "  \"results\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i row ->
      Printf.fprintf oc "    { %s }%s\n" (fields row)
        (if i = n - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Serving capacity: max sustainable request rate per hardware mode    *)
(* ------------------------------------------------------------------ *)

module Serving = struct
  let duration = Time.s 5.

  (* No SLO: this is the raw sustainable rate. *)
  let sweep mode rates =
    let run rate =
      serve ~seed:7L ~mode ~duration
        (Sea_serve.Workload.preset ~tenants:3 (`Open rate))
    in
    let ok (r : Sea_serve.Report.t) =
      holds ~duration r.Sea_serve.Report.window r.Sea_serve.Report.aggregate
    in
    let show rate (r : Sea_serve.Report.t) held =
      let a = r.Sea_serve.Report.aggregate in
      Printf.printf
        "  %8.1f req/s  offered %5d  goodput %7.2f/s  shed %4d  %s  %s\n"
        rate a.Sea_serve.Report.offered
        (Sea_serve.Report.goodput_per_s r a)
        a.Sea_serve.Report.shed (percentiles a) (verdict held)
    in
    match capacity ~run ~ok ~show rates with
    | Some (rate, _) -> rate
    | None -> 0.

  let run () =
    section "Serving capacity: 3 tenants (ssh/ca/kv), HP dc5750, depth 8";
    Printf.printf "current hardware (one full session per request):\n";
    let c = sweep Sea_serve.Server.Current [ 0.25; 0.5; 1.; 2.; 4. ] in
    Printf.printf "proposed hardware (resident PALs, both cores):\n";
    let p =
      sweep Sea_serve.Server.Proposed [ 4.; 8.; 16.; 32.; 64.; 128.; 256. ]
    in
    Printf.printf
      "\nMax sustainable rate: %.2f req/s on today's hardware vs %.2f req/s\n\
       on the proposed hardware (%.0fx) — the difference between one stalled\n\
       platform doing TPM round-trips per request and resident PALs resumed\n\
       at context-switch cost.\n"
      c p
      (if c > 0. then p /. c else Float.infinity)
end

(* ------------------------------------------------------------------ *)
(* Robustness: goodput degradation under injected TPM/LPC faults       *)
(* ------------------------------------------------------------------ *)

module Degradation = struct
  let duration = Time.s 5.
  let fault_rates = [ 0.; 0.01; 0.02; 0.05; 0.1 ]

  let run_at mode rate fault_rate =
    let faults =
      if fault_rate > 0. then
        Some (Sea_fault.Fault.spec ~seed:11 ~rate:fault_rate ())
      else None
    in
    serve ~seed:11L ?faults ~mode ~duration
      (Sea_serve.Workload.preset ~tenants:3 (`Open rate))

  let print_row fault_rate (r : Sea_serve.Report.t) =
    let a = r.Sea_serve.Report.aggregate in
    Printf.printf
      "  fault rate %5.2f%%  offered %5d  goodput %7.2f/s  failed %4d  \
       shed %4d  retries %4d  breaker shed %4d\n"
      (100. *. fault_rate) a.Sea_serve.Report.offered
      (Sea_serve.Report.goodput_per_s r a)
      a.Sea_serve.Report.failed a.Sea_serve.Report.shed
      r.Sea_serve.Report.retries r.Sea_serve.Report.breaker_shed

  let sweep mode rate =
    List.map
      (fun fr ->
        let r = run_at mode rate fr in
        print_row fr r;
        (fr, r))
      fault_rates

  let run () =
    section "Robustness: goodput vs injected TPM/LPC fault rate";
    Printf.printf
      "3 tenants (ssh/ca/kv), HP dc5750, depth 8, deterministic fault plan\n\
       (seed 11): transient TPM busy, LPC stalls, aborted hash sequences,\n\
       seal/NV write failures. Retry and per-tenant circuit breaking are\n\
       enabled whenever faults are injected.\n\n";
    Printf.printf "current hardware @ 1 req/s offered:\n";
    ignore (sweep Sea_serve.Server.Current 1.);
    Printf.printf "proposed hardware @ 16 req/s offered:\n";
    let rows = sweep Sea_serve.Server.Proposed 16. in
    let goodput fr =
      match List.assoc_opt fr rows with
      | Some r -> Sea_serve.Report.goodput_per_s r r.Sea_serve.Report.aggregate
      | None -> 0.
    in
    let g0 = goodput 0. and g10 = goodput 0.1 in
    Printf.printf
      "\nProposed goodput retains %.0f%% of its fault-free value at a 10%%\n\
       injected fault rate: bounded retries absorb transient TPM busy faults\n\
       and the per-(tenant, kind) breaker sheds (rather than fails) work\n\
       during fault bursts, so degradation is gradual instead of a cliff.\n"
      (if g0 > 0. then 100. *. g10 /. g0 else 0.)
end

(* ------------------------------------------------------------------ *)
(* Table 1's decomposition, recovered from traces: the same late        *)
(* launches as Table1, but the per-layer split (CPU init, LPC transfer, *)
(* TPM hashing) comes out of the trace sink's per-category self times   *)
(* rather than ad-hoc timers around each phase.                         *)
(* ------------------------------------------------------------------ *)

module Trace_decomp = struct
  let sizes_kb = [ 4; 16; 64 ]

  let measure config size =
    let sink = Sea_trace.Trace.create () in
    Sea_trace.Trace.with_sink sink (fun () ->
        let m = Machine.create config in
        let pages =
          Machine.alloc_pages m
            (max 1 ((size + Memory.page_size - 1) / Memory.page_size))
        in
        if size > 0 then begin
          let drbg = Sea_crypto.Drbg.create ~seed:"bench-trace" in
          Memory.write_span
            (Memctrl.memory m.Machine.memctrl)
            ~pages ~off:0
            (Sea_crypto.Drbg.generate_string drbg size)
        end;
        Machine.idle_other_cpus m ~except:0;
        match Insn.late_launch m ~cpu:0 ~pages ~length:size with
        | Ok _ -> ()
        | Error e -> failwith ("late launch failed: " ^ e));
    sink

  let run () =
    section "Late-launch decomposition from traces (ms of per-layer self time)";
    Printf.printf "%-24s %6s %10s %10s %10s %10s %10s\n" "System" "KB"
      "cpu" "lpc" "tpm" "other" "total";
    List.iter
      (fun (name, config) ->
        List.iter
          (fun kb ->
            let sink = measure config (kb * 1024) in
            let self c = Time.to_ms (Sea_trace.Trace.category_self sink c) in
            let total =
              List.fold_left
                (fun acc s ->
                  if s.Sea_trace.Trace.cat = "insn" then
                    Time.add acc s.Sea_trace.Trace.total
                  else acc)
                Time.zero
                (Sea_trace.Trace.span_stats sink)
            in
            let total_ms = Time.to_ms total in
            let cpu = self "cpu" and lpc = self "lpc" and tpm = self "tpm" in
            Printf.printf "%-24s %6d %10.3f %10.3f %10.3f %10.3f %10.3f\n"
              name kb cpu lpc tpm
              (Float.max 0. (total_ms -. cpu -. lpc -. tpm))
              total_ms)
          sizes_kb)
      [
        ("HP dc5750 (SKINIT)", Machine.hp_dc5750);
        ("Intel TEP (SENTER)", Machine.intel_tep);
      ];
    Printf.printf
      "\nThe split reproduces Table 1's story from the event stream alone:\n\
       on AMD the PAL's trip across the LPC bus dominates and scales with\n\
       size; on Intel the fixed ACMod transfer + signature check dominates\n\
       and the on-CPU PAL hash grows only slowly.\n"
end

(* ------------------------------------------------------------------ *)
(* Fleet capacity: sustainable fleet req/s at a p95 SLO, by machine     *)
(* count and hardware mode, via the cluster layer. Also emits the       *)
(* machine-readable BENCH_fleet.json consumed by the CI bench gate.     *)
(* ------------------------------------------------------------------ *)

module Fleet = struct
  let duration = Time.s (if smoke then 2. else 5.)
  let machine_counts = if smoke then [ 1; 2 ] else [ 1; 2; 4 ]
  let seed = 7L

  (* The ladder is per machine and the fleet is offered rate * machines,
     so capacity should scale linearly with the machine count. Capacity
     is the last sustained fleet rate, goodput the completions/s
     measured at it. *)
  let sweep mode machines =
    let fleet_rate rate = rate *. float_of_int machines in
    let run rate =
      fleet ~seed ~mode ~machines ~duration
        (Sea_serve.Workload.preset ~tenants:(machines * 3)
           (`Open (fleet_rate rate)))
    in
    let ok (fr : Sea_cluster.Fleet_report.t) =
      holds ~slo_ms ~duration fr.Sea_cluster.Fleet_report.window
        fr.Sea_cluster.Fleet_report.fleet
    in
    let show rate (fr : Sea_cluster.Fleet_report.t) held =
      let f = fr.Sea_cluster.Fleet_report.fleet in
      Printf.printf
        "  %8.1f req/s fleet  offered %5d  goodput %7.2f/s  shed %4d  \
         %s  %s\n"
        (fleet_rate rate) f.Sea_serve.Report.offered
        (Sea_cluster.Fleet_report.goodput_per_s fr)
        f.Sea_serve.Report.shed (percentiles f) (verdict held)
    in
    match capacity ~run ~ok ~show (rate_ladder mode) with
    | Some (rate, fr) ->
        (fleet_rate rate, Sea_cluster.Fleet_report.goodput_per_s fr)
    | None -> (0., 0.)

  let json_file = "BENCH_fleet.json"

  let run () =
    section
      (Printf.sprintf
         "Fleet capacity: req/s at a p95 <= %.0f ms SLO (3 tenants/machine, \
          HP dc5750, depth %d)%s"
         slo_ms depth smoke_tag);
    let results =
      List.concat_map
        (fun mode ->
          List.map
            (fun machines ->
              Printf.printf "%s hardware, %d machine%s:\n" (mode_name mode)
                machines
                (if machines = 1 then "" else "s");
              let capacity, goodput = sweep mode machines in
              (mode, machines, capacity, goodput))
            machine_counts)
        (* A two-mode comparison; the three-way curve is the backend
           ablation's. *)
        [ Sea_serve.Server.Current; Sea_serve.Server.Proposed ]
    in
    Printf.printf "\n%-10s %9s %14s %14s\n" "mode" "machines" "capacity r/s"
      "goodput r/s";
    List.iter
      (fun (mode, machines, capacity, goodput) ->
        Printf.printf "%-10s %9d %14.2f %14.2f\n" (mode_name mode) machines
          capacity goodput)
      results;
    write_json json_file ~bench:"fleet-capacity"
      [ ("slo_p95_ms", F1 slo_ms); ("seed", Int (Int64.to_int seed)) ]
      (List.map
         (fun (mode, machines, capacity, goodput) ->
           [
             ("mode", Str (mode_name mode));
             ("machines", Int machines);
             ("capacity_rps", F2 capacity);
             ("goodput_rps", F2 goodput);
           ])
         results);
    Printf.printf
      "\nToday's hardware cannot meet the %.0f ms p95 SLO at any offered\n\
       rate — every request is a multi-second full-SKINIT session — so its\n\
       capacity is 0 no matter how many machines the fleet adds. On the\n\
       proposed hardware capacity grows with machine count (machines are\n\
       independent; the router spreads tenants evenly; the steps are the\n\
       ladder's granularity): adding machines buys capacity, which no\n\
       amount of today's hardware can. JSON written to %s.\n"
      slo_ms json_file
end

(* ------------------------------------------------------------------ *)
(* Cost-aware admission: goodput under a mixed-cost workload, FIFO vs   *)
(* certificate-driven cost budgets. Emits BENCH_cost.json for the CI    *)
(* bench gate.                                                          *)
(* ------------------------------------------------------------------ *)

module Cost = struct
  let duration = Time.s (if smoke then 2. else 5.)
  let seed = 7L
  let budget = 4_000_000
  let rates = if smoke then [ 64.; 512. ] else [ 32.; 64.; 128.; 256.; 512. ]

  (* Mixed-cost tenant set: four cheap SSH tenants offering two thirds
     of the load next to a CA signer and a KV resealer, the
     certificate-expensive kinds. Under FIFO overload the expensive
     requests occupy queue slots and PAL time at the cheap tenants'
     expense; the cost budget caps each tenant's in-flight certificate
     cost instead. *)
  let tenants rate =
    let cheap = rate *. 2. /. 3. /. 4. and dear = rate /. 3. /. 2. in
    List.init 4 (fun i ->
        Sea_serve.Workload.tenant
          ~name:(Printf.sprintf "ssh%d" i)
          (Sea_serve.Workload.Open_loop { rate_per_s = cheap }))
    @ [
        Sea_serve.Workload.tenant ~name:"ca"
          ~mix:[ (Sea_serve.Workload.Ca_sign, 1) ]
          (Sea_serve.Workload.Open_loop { rate_per_s = dear });
        Sea_serve.Workload.tenant ~name:"kv"
          ~mix:[ (Sea_serve.Workload.Kv_update, 1) ]
          (Sea_serve.Workload.Open_loop { rate_per_s = dear });
      ]

  let run_at discipline rate =
    serve ~seed ~discipline ~mode:Sea_serve.Server.Proposed ~duration
      (tenants rate)

  let cheap_goodput (r : Sea_serve.Report.t) =
    List.fold_left
      (fun acc (row : Sea_serve.Report.row) ->
        if
          String.length row.Sea_serve.Report.tenant >= 3
          && String.sub row.Sea_serve.Report.tenant 0 3 = "ssh"
        then acc +. Sea_serve.Report.goodput_per_s r row
        else acc)
      0. r.Sea_serve.Report.rows

  let disciplines =
    [
      ("fifo", Sea_serve.Admission.Fifo);
      ("cost", Sea_serve.Admission.Cost budget);
    ]

  let json_file = "BENCH_cost.json"

  let run () =
    section
      (Printf.sprintf
         "Cost-aware admission: goodput under a mixed-cost workload%s"
         smoke_tag);
    Printf.printf
      "4 SSH tenants (cheap, 2/3 of load) + CA + KV (certificate-expensive),\n\
       proposed hardware, depth %d: FIFO vs a %d us/tenant cost budget.\n\n"
      depth budget;
    let results =
      List.concat_map
        (fun rate ->
          List.map
            (fun (name, disc) ->
              let r = run_at disc rate in
              let a = r.Sea_serve.Report.aggregate in
              let g = Sea_serve.Report.goodput_per_s r a in
              let cg = cheap_goodput r in
              Printf.printf
                "  %-6s %8.1f req/s  goodput %7.2f/s  cheap %7.2f/s  shed \
                 %4d  cost shed %4d  %s\n"
                name rate g cg a.Sea_serve.Report.shed
                r.Sea_serve.Report.cost_shed (percentiles a);
              (name, rate, g, cg, a.Sea_serve.Report.shed,
               r.Sea_serve.Report.cost_shed))
            disciplines)
        rates
    in
    let top = List.fold_left (fun acc r -> Float.max acc r) 0. rates in
    let cheap_at disc =
      List.fold_left
        (fun acc (name, rate, _, cg, _, _) ->
          if name = disc && rate = top then cg else acc)
        0. results
    in
    write_json json_file ~bench:"cost-goodput"
      [ ("budget_us", Int budget); ("seed", Int (Int64.to_int seed)) ]
      (List.map
         (fun (disc, rate, goodput, cheap, shed, cost_shed) ->
           [
             ("discipline", Str disc);
             ("rate_rps", F1 rate);
             ("goodput_rps", F2 goodput);
             ("cheap_goodput_rps", F2 cheap);
             ("shed", Int shed);
             ("cost_shed", Int cost_shed);
           ])
         results);
    Printf.printf
      "\nAt the top rate the cost budget keeps the cheap tenants at\n\
       %.2f completions/s vs %.2f under FIFO: expensive requests beyond\n\
       each tenant's certificate budget are shed at admission instead of\n\
       occupying queue slots and PAL time ahead of cheap work. JSON\n\
       written to %s.\n"
      (cheap_at "cost") (cheap_at "fifo") json_file
end

(* ------------------------------------------------------------------ *)
(* Tenant density: tenants-per-machine at a fixed latency SLO, with    *)
(* and without vTPM multiplexing, on both hardware modes. Emits        *)
(* BENCH_vtpm.json for the CI regression gate.                        *)
(* ------------------------------------------------------------------ *)

module Vtpm_density = struct
  let duration = Time.s (if smoke then 5. else 10.)
  let seed = 7L

  (* Light per-tenant load: the question is how many tenants one machine
     holds at the SLO, not how hard one tenant can push. *)
  let per_tenant_rps = 0.25
  let ladder = [ 1; 2; 4; 8; 12; 16; 24; 32; 40; 48; 64 ]

  let configs =
    [
      ("current", Sea_serve.Server.Current, false);
      ("current+vtpm", Sea_serve.Server.Current, true);
      ("proposed", Sea_serve.Server.Proposed, false);
      ("proposed+vtpm", Sea_serve.Server.Proposed, true);
    ]

  (* Capacity is the last tenant count that held the SLO (0 if even one
     tenant breaks it). *)
  let sweep mode ~vtpm =
    let offered n = per_tenant_rps *. float_of_int n in
    let run n =
      serve ~seed
        ?vtpm:(if vtpm then Some n else None)
        ~mode ~duration
        (Sea_serve.Workload.preset ~tenants:n (`Open (offered n)))
    in
    let ok (r : Sea_serve.Report.t) =
      holds ~slo_ms ~duration r.Sea_serve.Report.window
        r.Sea_serve.Report.aggregate
    in
    let show n (r : Sea_serve.Report.t) held =
      let a = r.Sea_serve.Report.aggregate in
      Printf.printf
        "  %4d tenants  %7.2f req/s offered  goodput %7.2f/s  p95 \
         %8.2f ms  %s\n"
        n (offered n)
        (Sea_serve.Report.goodput_per_s r a)
        (p95 a)
        (if held then "within SLO" else "SLO MISS")
    in
    capacity ~run ~ok ~show ladder

  let json_file = "BENCH_vtpm.json"

  let run () =
    section
      (Printf.sprintf
         "Tenant density: tenants per machine at a %.0f ms p95 SLO%s" slo_ms
         smoke_tag);
    Printf.printf
      "HP dc5750, %.2f req/s per tenant, depth %d: how many tenants one\n\
       machine holds before p95 crosses the SLO, on each hardware mode\n\
       with and without virtual TPM multiplexing (--vtpm tenants).\n"
      per_tenant_rps depth;
    let results =
      List.map
        (fun (name, mode, vtpm) ->
          Printf.printf "\n%s:\n" name;
          match sweep mode ~vtpm with
          | Some (n, r) ->
              let a = r.Sea_serve.Report.aggregate in
              (name, n, Sea_serve.Report.goodput_per_s r a, p95 a)
          | None -> (name, 0, 0., 0.))
        configs
    in
    write_json json_file ~bench:"vtpm-density"
      [
        ("slo_p95_ms", F1 slo_ms);
        ("per_tenant_rps", F2 per_tenant_rps);
        ("seed", Int (Int64.to_int seed));
      ]
      (List.map
         (fun (config, tenants, rps, p95) ->
           [
             ("config", Str config);
             ("slo_tenants", Int tenants);
             ("capacity_rps", F2 rps);
             ("p95_ms", F2 p95);
           ])
         results);
    let capacity name =
      List.fold_left
        (fun acc (n, t, _, _) -> if n = name then t else acc)
        0 results
    in
    Printf.printf
      "\nTenants held at the SLO: current %d, current+vtpm %d, proposed %d,\n\
       proposed+vtpm %d. Today's hardware serves nobody at this SLO — every\n\
       request pays a multi-second hardware seal/unseal round-trip — until\n\
       the vTPM multiplexer absorbs the data-path TPM work in software and\n\
       batches its anchor extends into the hardware part. JSON written to\n\
       %s.\n"
      (capacity "current")
      (capacity "current+vtpm")
      (capacity "proposed")
      (capacity "proposed+vtpm")
      json_file
end

(* ------------------------------------------------------------------ *)
(* A10 — graceful degradation under machine churn: fleet goodput and    *)
(* p95 vs MTTF, current vs proposed hardware, sealed-state failover on  *)
(* vs off. Emits BENCH_churn.json for the CI bench gate, which also     *)
(* checks the headline: at the sweep's mid MTTF on proposed hardware,   *)
(* failover must recover at least 2x the goodput of failing in place.   *)
(* ------------------------------------------------------------------ *)

module Churn = struct
  let duration_s = if smoke then 6. else 8.
  let machines = 8
  let per_machine_rate = 8.
  let mttr_s = 4.
  let mttfs = if smoke then [ 1.5 ] else [ 0.75; 1.5; 3.0 ]
  let seed = 7L
  let churn_seed = 1

  let run_at mode ~mttf_s ~failover =
    let plan =
      Sea_fault.Machine_fault.spec ~mttf:(Time.s mttf_s)
        ~mttr:(Time.s mttr_s) ~seed:churn_seed ()
    in
    fleet ~seed ~depth:16
      ~churn:(Sea_cluster.Cluster.churn ~failover plan ())
      ~mode ~machines ~duration:(Time.s duration_s)
      (Sea_serve.Workload.preset ~tenants:(machines * 3)
         (`Open (per_machine_rate *. float_of_int machines)))

  (* Goodput over the configured arrival window, not the report window:
     a failover-off fleet stops serving early (its machines' last epochs
     black-hole), so completions per configured second is the fair
     cross-mode comparison. *)
  let goodput (fr : Sea_cluster.Fleet_report.t) =
    float_of_int fr.Sea_cluster.Fleet_report.fleet.Sea_serve.Report.completed
    /. duration_s

  let json_file = "BENCH_churn.json"

  let run () =
    section
      (Printf.sprintf
         "A10 — degradation under machine churn: goodput vs MTTF (%d \
          machines, MTTR %.0f s, %.0f req/s fleet)%s"
         machines mttr_s
         (per_machine_rate *. float_of_int machines)
         smoke_tag);
    let results =
      List.concat_map
        (fun mode ->
          List.concat_map
            (fun mttf_s ->
              List.map
                (fun failover ->
                  let fr = run_at mode ~mttf_s ~failover in
                  (mode, mttf_s, failover, fr))
                [ true; false ])
            mttfs)
        [ Sea_serve.Server.Current; Sea_serve.Server.Proposed ]
    in
    Printf.printf "%-10s %8s %9s %12s %10s %6s %12s\n" "mode" "mttf s"
      "failover" "goodput r/s" "p95 ms" "lost" "warm/cold";
    List.iter
      (fun (mode, mttf_s, failover, fr) ->
        let c = Option.get fr.Sea_cluster.Fleet_report.churn in
        Printf.printf "%-10s %8.2f %9s %12.2f %10s %6d %8d/%d\n"
          (mode_name mode) mttf_s
          (if failover then "on" else "off")
          (goodput fr)
          (let p = p95 fr.Sea_cluster.Fleet_report.fleet in
           if Float.is_finite p then Printf.sprintf "%.2f" p else "n/a")
          c.Sea_cluster.Fleet_report.lost_requests
          c.Sea_cluster.Fleet_report.migrations
          c.Sea_cluster.Fleet_report.cold_restarts)
      results;
    write_json json_file ~bench:"churn-degradation"
      [
        ("machines", Int machines);
        ("mttr_s", F2 mttr_s);
        ("seed", Int (Int64.to_int seed));
      ]
      (List.map
         (fun (mode, mttf_s, failover, fr) ->
           let c = Option.get fr.Sea_cluster.Fleet_report.churn in
           [
             ("mode", Str (mode_name mode));
             ("mttf_s", F2 mttf_s);
             ("failover", Bool failover);
             ("goodput_rps", F2 (goodput fr));
             ( "p95_ms",
               let p = p95 fr.Sea_cluster.Fleet_report.fleet in
               if Float.is_finite p then F2 p else Null );
             ("lost", Int c.Sea_cluster.Fleet_report.lost_requests);
             ("migrations_warm", Int c.Sea_cluster.Fleet_report.migrations);
             ("migrations_cold", Int c.Sea_cluster.Fleet_report.cold_restarts);
           ])
         results);
    (* The headline the CI gate re-checks from the JSON: failover vs
       fail-in-place at the sweep's middle MTTF on proposed hardware. *)
    let mid = List.nth mttfs (List.length mttfs / 2) in
    let at failover =
      List.fold_left
        (fun acc (mode, mttf_s, fo, fr) ->
          let on_proposed =
            match mode with
            | Sea_serve.Server.Proposed -> true
            | Sea_serve.Server.Current | Sea_serve.Server.Sfi -> false
          in
          if on_proposed && mttf_s = mid && fo = failover then goodput fr
          else acc)
        0. results
    in
    Printf.printf
      "\nAt MTTF %.2f s on the proposed hardware, sealed-state failover\n\
       holds %.2f req/s where failing in place holds %.2f (%.2fx): the\n\
       heartbeat detector reroutes a dead machine's tenants within its\n\
       detection lag and sePCR-bound seal/unseal moves their resident\n\
       PALs, so the fleet degrades by the detection window instead of\n\
       the repair time. JSON written to %s.\n"
      mid (at true) (at false)
      (at true /. Float.max (at false) 1e-9)
      json_file
end

(* ------------------------------------------------------------------ *)
(* A11 Backend ablation: capacity at the p95 SLO on ONE machine across *)
(* all three isolation backends, at two resident-identity counts: 4    *)
(* (within the proposed hardware's 8-sePCR bank) and 12 (past it, so   *)
(* every eviction pays a TPM seal). SFI's unbounded pool pays only its *)
(* VM-exit-class transitions either way, and today's hardware pays a   *)
(* full session per request. Emits BENCH_backend.json for the CI       *)
(* bench gate.                                                         *)
(* ------------------------------------------------------------------ *)

module Backend_ablation = struct
  let duration = Time.s (if smoke then 2. else 5.)

  (* Single-kind preset tenants: the tenant count IS the resident
     identity count. 4 fits the 8-sePCR bank; 12 overflows it. *)
  let tenant_counts = [ 4; 12 ]
  let seed = 7L

  (* Remember the resident-pool counters measured at the capacity
     rung. *)
  let sweep mode tenants =
    let run rate =
      serve ~seed ~mode ~duration
        (Sea_serve.Workload.preset ~tenants (`Open rate))
    in
    let ok (r : Sea_serve.Report.t) =
      holds ~slo_ms ~duration r.Sea_serve.Report.window
        r.Sea_serve.Report.aggregate
    in
    let show rate (r : Sea_serve.Report.t) held =
      let a = r.Sea_serve.Report.aggregate in
      Printf.printf
        "  %8.1f req/s  offered %5d  goodput %7.2f/s  evict %4d  \
         waits %4d  %s  %s\n"
        rate a.Sea_serve.Report.offered
        (Sea_serve.Report.goodput_per_s r a)
        r.Sea_serve.Report.evictions r.Sea_serve.Report.sepcr_waits
        (percentiles a) (verdict held)
    in
    match capacity ~run ~ok ~show (rate_ladder mode) with
    | Some (rate, r) ->
        ( rate,
          Sea_serve.Report.goodput_per_s r r.Sea_serve.Report.aggregate,
          r.Sea_serve.Report.evictions,
          r.Sea_serve.Report.sepcr_waits )
    | None -> (0., 0., 0, 0)

  let json_file = "BENCH_backend.json"

  let run () =
    section
      (Printf.sprintf
         "Backend ablation: capacity at a p95 <= %.0f ms SLO (one HP \
          dc5750, depth %d)%s"
         slo_ms depth smoke_tag);
    let results =
      List.concat_map
        (fun tenants ->
          List.map
            (fun mode ->
              Printf.printf "%s backend, %d resident identities:\n"
                (Backend.kind_name mode) tenants;
              let capacity, goodput, evictions, waits = sweep mode tenants in
              (mode, tenants, capacity, goodput, evictions, waits))
            [ Sea_serve.Server.Current; Sea_serve.Server.Proposed;
              Sea_serve.Server.Sfi ])
        tenant_counts
    in
    Printf.printf "\n%-10s %8s %14s %14s %10s %12s\n" "mode" "tenants"
      "capacity r/s" "goodput r/s" "evictions" "sepcr waits";
    List.iter
      (fun (mode, tenants, capacity, goodput, evictions, waits) ->
        Printf.printf "%-10s %8d %14.2f %14.2f %10d %12d\n" (mode_name mode)
          tenants capacity goodput evictions waits)
      results;
    write_json json_file ~bench:"backend-ablation"
      [ ("slo_p95_ms", F1 slo_ms); ("seed", Int (Int64.to_int seed)) ]
      (List.map
         (fun (mode, tenants, capacity, goodput, evictions, waits) ->
           [
             ("mode", Str (mode_name mode));
             ("tenants", Int tenants);
             ("capacity_rps", F2 capacity);
             ("goodput_rps", F2 goodput);
             ("evictions", Int evictions);
             ("sepcr_waits", Int waits);
           ])
         results);
    let capacity_of k t =
      List.fold_left
        (fun acc (mode, tenants, c, _, _, _) ->
          if mode = k && tenants = t then c else acc)
        0. results
    in
    let lo = List.nth tenant_counts 0 and hi = List.nth tenant_counts 1 in
    Printf.printf
      "\nThree points on the isolation-cost curve, same workload, same SLO.\n\
       Within the sePCR bank (%d identities): today's hardware %.2f req/s\n\
       (a full SKINIT session per request), the proposed hardware %.2f\n\
       req/s, SFI %.2f req/s — the gap is transition cost alone. Past the\n\
       bank (%d identities vs 8 sePCRs): the proposed hardware falls to\n\
       %.2f req/s because every eviction seals state out through the TPM\n\
       at hundreds of ms, while SFI holds %.2f req/s — no sePCR scarcity\n\
       to pay. JSON written to %s.\n"
      lo
      (capacity_of Sea_serve.Server.Current lo)
      (capacity_of Sea_serve.Server.Proposed lo)
      (capacity_of Sea_serve.Server.Sfi lo)
      hi
      (capacity_of Sea_serve.Server.Proposed hi)
      (capacity_of Sea_serve.Server.Sfi hi)
      json_file
end

(* ------------------------------------------------------------------ *)
(* A12 — autoscaling under a flash crowd: fleet capacity at the p95     *)
(* SLO for static routing vs sealed-state migration vs kill-and-respawn *)
(* spreading. Emits BENCH_autoscale.json for the CI bench gate, which   *)
(* also asserts the headline: migrate-or-spread autoscaling sustains    *)
(* >= 1.5x the static fleet's rate.                                     *)
(* ------------------------------------------------------------------ *)

module Autoscale_bench = struct
  let duration = Time.s (if smoke then 4. else 10.)
  let machines = 4
  let seed = 11L
  let tenant_count = 12
  let spike = 6.

  (* The controller ticks 16 times per window: weight halving takes a
     few consecutive hot ticks to walk a machine down from full weight,
     so the tick period bounds how much of the crowd's lifetime is
     burned reacting rather than rebalanced. Each tick is an epoch
     barrier that pauses the live servers rather than restarting them,
     so ticking more often costs no PAL warmth, but each tick samples
     fewer arrivals per machine and so reads the load more noisily.
     The crowd concentration puts the hot machine at ~3.2x the fleet
     mean while the mere 5-of-12-tenants steady imbalance is ~1.7x; a
     2x threshold fires on the former and sleeps through the latter,
     so the fleet only rebalances when the crowd is actually there. *)
  let interval = Time.scale_f duration (1. /. 16.)
  let hot_threshold = 1.8

  let tenant_name i = Printf.sprintf "t%d-ssh-auth" i

  let probe_tenant i =
    Sea_serve.Workload.tenant ~name:(tenant_name i)
      (Sea_serve.Workload.Open_loop { rate_per_s = 1. })

  (* The ablation needs a hot spot, not a uniformly hot fleet: the
     flash crowd hits exactly the tenants the initial ring co-locates
     on its most-loaded machine. A static fleet is then capped by that
     one machine melting while its three neighbours idle; the
     autoscaler's whole job is to notice and walk the crowd apart.
     (Pure function of the ring, so the choice is deterministic.) *)
  let flash_names =
    let ring = Sea_cluster.Router.make_ring (List.init machines Fun.id) in
    let probe = List.init tenant_count probe_tenant in
    let counts = Array.make machines 0 in
    List.iter
      (fun t ->
        let m = Sea_cluster.Router.lookup ring t in
        counts.(m) <- counts.(m) + 1)
      probe;
    let hot = ref 0 in
    Array.iteri (fun m c -> if c > counts.(!hot) then hot := m) counts;
    List.filter_map
      (fun t ->
        if Sea_cluster.Router.lookup ring t = !hot then
          Some t.Sea_serve.Workload.name
        else None)
      probe

  let flash_tenants = List.length flash_names

  (* From T/4 to 3T/4 the chosen tenants' rates step to [spike]x. *)
  let tenants total_rate =
    let flash =
      Sea_serve.Workload.Flash
        {
          at = Time.scale_f duration 0.25;
          width = Time.scale_f duration 0.5;
          spike;
        }
    in
    List.init tenant_count (fun i ->
        let name = tenant_name i in
        Sea_serve.Workload.tenant ~name
          ~shape:
            (if List.mem name flash_names then flash
             else Sea_serve.Workload.Steady)
          (Sea_serve.Workload.Open_loop
             { rate_per_s = total_rate /. float_of_int tenant_count }))

  let ladder =
    if smoke then [ 60.; 100.; 150.; 200.; 300.; 400.; 550. ]
    else [ 60.; 100.; 150.; 200.; 300.; 400.; 550.; 700.; 900. ]

  (* Capacity is the last sustained total base rate; its report carries
     the move counters. Shed plus timed-out may reach 5% of offered:
     the detection lag between a crowd's onset and the controller's
     next tick costs a burst of queue-overflow sheds even when the
     rebalanced fleet then absorbs the crowd easily, while a static
     fleet's hot machine sheds for the crowd's whole lifetime and blows
     far past 5%. *)
  let sweep policy =
    let run total_rate =
      fleet ~seed ~policy:Sea_cluster.Router.Hash_tenant
        ~autoscale:
          (Sea_cluster.Autoscale.config ~policy ~interval ~hot_threshold ())
        ~mode:Sea_serve.Server.Proposed ~machines ~duration
        (tenants total_rate)
    in
    let ok (fr : Sea_cluster.Fleet_report.t) =
      holds ~slo_ms
        ~allow:(fun offered -> offered / 20)
        ~duration fr.Sea_cluster.Fleet_report.window
        fr.Sea_cluster.Fleet_report.fleet
    in
    let show rate (fr : Sea_cluster.Fleet_report.t) held =
      let f = fr.Sea_cluster.Fleet_report.fleet in
      let a = Option.get fr.Sea_cluster.Fleet_report.autoscale in
      Printf.printf
        "  %8.1f req/s base  offered %5d  goodput %7.2f/s  shed %4d  \
         hot %2d  moved %2d  %s  %s\n"
        rate f.Sea_serve.Report.offered
        (Sea_cluster.Fleet_report.goodput_per_s fr)
        f.Sea_serve.Report.shed a.Sea_cluster.Fleet_report.hot_events
        a.Sea_cluster.Fleet_report.tenants_moved (percentiles f)
        (verdict held)
    in
    capacity ~run ~ok ~show ladder

  let json_file = "BENCH_autoscale.json"

  let run () =
    section
      (Printf.sprintf
         "A12 — autoscaling a flash crowd: fleet base rate at a p95 <= %.0f \
          ms SLO (%d machines, %d tenants, %d of them spiking %.0fx, \
          proposed hw)%s"
         slo_ms machines tenant_count flash_tenants spike smoke_tag);
    let results =
      List.map
        (fun policy ->
          Printf.printf "%s policy:\n"
            (Sea_cluster.Autoscale.policy_name policy);
          match sweep policy with
          | Some (capacity, fr) ->
              let a =
                Option.get fr.Sea_cluster.Fleet_report.autoscale
              in
              ( policy, capacity, Sea_cluster.Fleet_report.goodput_per_s fr,
                a.Sea_cluster.Fleet_report.tenants_moved,
                a.Sea_cluster.Fleet_report.warm_moves,
                a.Sea_cluster.Fleet_report.respawns )
          | None -> (policy, 0., 0., 0, 0, 0))
        [
          Sea_cluster.Autoscale.Static; Sea_cluster.Autoscale.Migrate;
          Sea_cluster.Autoscale.Spread;
        ]
    in
    Printf.printf "\n%-10s %14s %14s %7s %6s %9s\n" "policy" "capacity r/s"
      "goodput r/s" "moved" "warm" "respawns";
    List.iter
      (fun (policy, capacity, goodput, moved, warm, respawns) ->
        Printf.printf "%-10s %14.2f %14.2f %7d %6d %9d\n"
          (Sea_cluster.Autoscale.policy_name policy)
          capacity goodput moved warm respawns)
      results;
    write_json json_file ~bench:"autoscale-flash"
      [
        ("slo_p95_ms", F1 slo_ms);
        ("seed", Int (Int64.to_int seed));
        ("machines", Int machines);
        ("flash_spike", F1 spike);
      ]
      (List.map
         (fun (policy, capacity, goodput, moved, warm, respawns) ->
           [
             ("policy", Str (Sea_cluster.Autoscale.policy_name policy));
             ("capacity_rps", F2 capacity);
             ("goodput_rps", F2 goodput);
             ("tenants_moved", Int moved);
             ("warm_migrations", Int warm);
             ("respawns", Int respawns);
           ])
         results);
    let cap p =
      List.fold_left
        (fun acc (q, c, _, _, _, _) -> if q = p then c else acc)
        0. results
    in
    Printf.printf
      "\nThe crowd hits exactly the tenants the ring co-located, so the\n\
       static fleet is capped by one machine melting while its neighbours\n\
       idle; the controller halves the hot machine's ring weight tick by\n\
       tick and walks the crowd apart. Static sustains %.0f req/s,\n\
       sealed-state migration %.0f req/s, kill-and-respawn spreading\n\
       %.0f req/s — the two rebalancing policies buy the same routing\n\
       freedom and differ only in what a move costs the target machine.\n\
       JSON written to %s.\n"
      (cap Sea_cluster.Autoscale.Static)
      (cap Sea_cluster.Autoscale.Migrate)
      (cap Sea_cluster.Autoscale.Spread)
      json_file
end

(* ------------------------------------------------------------------ *)

let all =
  [
    ("table1", Table1.run);
    ("table2", Table2.run);
    ("figure2", Figure2.run);
    ("figure3", Figure3.run);
    ("impact", Impact.run);
    ("concurrency", Concurrency.run);
    ("faster-tpm", Faster_tpm.run);
    ("io-loss", Io_loss.run);
    ("multicore", Multicore.run);
    ("micro", Micro.run);
    ("analyzer", Analyzer_throughput.run);
    ("serving", Serving.run);
    ("degradation", Degradation.run);
    ("trace", Trace_decomp.run);
    ("fleet", Fleet.run);
    ("cost", Cost.run);
    ("vtpm", Vtpm_density.run);
    ("churn", Churn.run);
    ("backend", Backend_ablation.run);
    ("autoscale", Autoscale_bench.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst all
  in
  Printf.printf
    "SEA benchmark harness — reproducing McCune et al., ASPLOS 2008\n\
     (simulated platform; paper values shown for comparison)\n";
  List.iter
    (fun name ->
      match List.assoc_opt name all with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat " " (List.map fst all));
          exit 1)
    requested
