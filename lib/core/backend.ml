open Sea_sim
open Sea_hw

type kind = Current | Proposed | Sfi

let all = [ Current; Proposed; Sfi ]

let kind_name = function
  | Current -> "current hw"
  | Proposed -> "proposed hw"
  | Sfi -> "sfi"

let cli_name = function
  | Current -> "current"
  | Proposed -> "proposed"
  | Sfi -> "sfi"

let of_cli_name s =
  match String.lowercase_ascii (String.trim s) with
  | "current" -> Some Current
  | "proposed" -> Some Proposed
  | "sfi" -> Some Sfi
  | _ -> None

type op =
  | Op_launch
  | Op_resume
  | Op_yield
  | Op_release
  | Op_quote
  | Op_seal
  | Op_unseal

type instance = {
  kind : kind;
  run_slice :
    cpu:int ->
    ?budget:Time.t ->
    unit ->
    ([ `Yielded | `Finished ], string) result;
  resume : cpu:int -> (unit, string) result;
  suspended : unit -> bool;
  output : unit -> string option;
  kill : unit -> (unit, string) result;
  release : unit -> unit;
  save_state : cpu:int -> tag:string -> (string option, string) result;
  load_state : cpu:int -> string -> (unit, string) result;
  quote : nonce:string -> (Sea_tpm.Tpm.quote * Time.t, string) result;
}

type t = {
  kind : kind;
  name : string;
  resident : bool;
  check_machine : Machine.t -> (unit, string) result;
  pool : Machine.t -> int;
  extra_cost : op -> Time.t;
  oneshot :
    Machine.t ->
    cpu:int ->
    ?preemption_timer:Time.t ->
    ?analyze:Sea_analysis.Analyzer.gate ->
    ?retry:Sea_fault.Retry.policy ->
    ?tpm_cap:Sea_tpm.Cap.t ->
    Pal.t ->
    input:string ->
    (string, string) result;
  launch :
    Machine.t ->
    cpu:int ->
    ?preemption_timer:Time.t ->
    ?analyze:Sea_analysis.Analyzer.gate ->
    ?retry:Sea_fault.Retry.policy ->
    ?tpm_cap:Sea_tpm.Cap.t ->
    Pal.t ->
    input:string ->
    (instance, string) result;
}

(* Drive a resident instance to completion: the preemption loop one-shot
   execution shares with the serving layer, so a yielding image means
   "resume and keep going", not an error. *)
let drive_oneshot launch m ~cpu ?preemption_timer ?analyze ?retry ?tpm_cap
    pal ~input =
  match launch m ~cpu ?preemption_timer ?analyze ?retry ?tpm_cap pal ~input with
  | Error e -> Error e
  | Ok inst ->
      let rec go () =
        match inst.run_slice ~cpu () with
        | Error e -> Error e
        | Ok `Yielded -> (
            match inst.resume ~cpu with
            | Ok () -> go ()
            | Error e -> Error e)
        | Ok `Finished -> (
            match inst.output () with
            | Some out -> Ok out
            | None -> Error "PAL finished without output")
      in
      let result = go () in
      (* A failed resume leaves the PAL suspended; tear it down so its
         pages (and sePCR, on proposed hardware) are reclaimed. *)
      (match result with
      | Error _ when inst.suspended () -> ignore (inst.kill ())
      | _ -> ());
      inst.release ();
      result

let no_extra_cost (_ : op) = Time.zero

(* --- Today's hardware: a full Flicker-style session per execution --- *)

let current =
  {
    kind = Current;
    name = kind_name Current;
    resident = false;
    check_machine = (fun _ -> Ok ());
    pool = (fun _ -> 0);
    extra_cost = no_extra_cost;
    oneshot =
      (fun m ~cpu ?preemption_timer:_ ?analyze ?retry ?tpm_cap pal ~input ->
        match Session.execute m ~cpu ?analyze ?retry ?tpm_cap pal ~input with
        | Ok o -> Ok o.Session.output
        | Error e -> Error e);
    launch =
      (fun _ ~cpu:_ ?preemption_timer:_ ?analyze:_ ?retry:_ ?tpm_cap:_ _
           ~input:_ -> Error "current hw hosts no resident PALs");
  }

(* --- Proposed hardware: resident SLAUNCH sessions, sePCR-bound --- *)

let slaunch_instance m ?retry s =
  let engine = m.Machine.engine in
  {
    kind = Proposed;
    run_slice =
      (fun ~cpu ?budget () -> Slaunch_session.run_slice s ~cpu ?budget ());
    resume = (fun ~cpu -> Slaunch_session.resume s ~cpu);
    suspended = (fun () -> Slaunch_session.state s = Lifecycle.Suspend);
    output = (fun () -> Slaunch_session.output s);
    kill = (fun () -> Slaunch_session.kill s);
    release = (fun () -> Slaunch_session.release s);
    save_state =
      (fun ~cpu ~tag ->
        (* The sealed hand-off an evicted or migrated resident leaves
           behind, bound to its sePCR identity. *)
        match Slaunch_session.sepcr_handle s with
        | None -> Ok None
        | Some h -> (
            let tpm = Machine.tpm_exn m in
            match
              Sea_fault.Retry.run ?policy:retry ~engine (fun () ->
                  Sea_tpm.Tpm.seal tpm ~caller:(Sea_tpm.Tpm.Cpu cpu) ~sepcr:h
                    ~pcr_policy:[] tag)
            with
            | Ok blob -> Ok (Some blob)
            | Error e -> Error e));
    load_state =
      (fun ~cpu blob ->
        match Slaunch_session.sepcr_handle s with
        | None -> Ok ()
        | Some h -> (
            let tpm = Machine.tpm_exn m in
            match
              Sea_fault.Retry.run ?policy:retry ~engine (fun () ->
                  Sea_tpm.Tpm.unseal tpm ~caller:(Sea_tpm.Tpm.Cpu cpu)
                    ~sepcr:h blob)
            with
            | Ok _ -> Ok ()
            | Error e -> Error e));
    quote = (fun ~nonce -> Slaunch_session.quote_after_exit s ~nonce);
  }

let proposed_launch m ~cpu ?preemption_timer ?analyze ?retry ?tpm_cap pal
    ~input =
  match
    Slaunch_session.start m ~cpu ?preemption_timer ?analyze ?retry ?tpm_cap
      pal ~input
  with
  | Error e -> Error e
  | Ok s -> Ok (slaunch_instance m ?retry s)

let proposed =
  {
    kind = Proposed;
    name = kind_name Proposed;
    resident = true;
    check_machine =
      (fun m ->
        if not m.Machine.config.Machine.proposed then
          Error "proposed mode requires the proposed hardware variant"
        else if m.Machine.config.Machine.sepcr_count < 1 then
          Error "proposed mode requires at least one sePCR"
        else Ok ());
    pool = (fun m -> m.Machine.config.Machine.sepcr_count);
    extra_cost = no_extra_cost;
    oneshot =
      (fun m ~cpu ?preemption_timer ?analyze ?retry ?tpm_cap pal ~input ->
        drive_oneshot proposed_launch m ~cpu ?preemption_timer ?analyze
          ?retry ?tpm_cap pal ~input);
    launch = proposed_launch;
  }

(* --- Software fault isolation: no late launch, no sePCR scarcity --- *)

let sfi_launch m ~cpu ?preemption_timer ?analyze ?retry ?tpm_cap pal ~input =
  match
    Sfi_session.start m ~cpu ?preemption_timer ?analyze ?retry ?tpm_cap pal
      ~input
  with
  | Error e -> Error e
  | Ok s ->
      Ok
        {
          kind = Sfi;
          run_slice =
            (fun ~cpu ?budget () -> Sfi_session.run_slice s ~cpu ?budget ());
          resume = (fun ~cpu -> Sfi_session.resume s ~cpu);
          suspended = (fun () -> Sfi_session.state s = Lifecycle.Suspend);
          output = (fun () -> Sfi_session.output s);
          kill = (fun () -> Sfi_session.kill s);
          release = (fun () -> Sfi_session.release s);
          save_state =
            (fun ~cpu ~tag ->
              match Sfi_session.seal_blob s ~cpu tag with
              | Ok blob -> Ok (Some blob)
              | Error e -> Error e);
          load_state =
            (fun ~cpu blob ->
              match Sfi_session.unseal_blob s ~cpu blob with
              | Ok _ -> Ok ()
              | Error e -> Error e);
          quote = (fun ~nonce -> Sfi_session.quote s ~nonce);
        }

let sfi =
  let p = Sfi_session.default_profile in
  {
    kind = Sfi;
    name = kind_name Sfi;
    resident = true;
    (* Software isolation asks nothing of the platform: it runs on the
       commodity configs, proposed variants and TPM-less machines alike. *)
    check_machine = (fun _ -> Ok ());
    pool = (fun _ -> max_int);
    extra_cost =
      (function
      | Op_launch -> p.Sfi_session.launch_base
      | Op_resume | Op_yield -> p.Sfi_session.transition
      | Op_release | Op_quote -> Time.zero
      | Op_seal -> p.Sfi_session.seal_base
      | Op_unseal -> p.Sfi_session.unseal_base);
    oneshot =
      (fun m ~cpu ?preemption_timer ?analyze ?retry ?tpm_cap pal ~input ->
        drive_oneshot sfi_launch m ~cpu ?preemption_timer ?analyze ?retry
          ?tpm_cap pal ~input);
    launch = sfi_launch;
  }

let of_kind = function
  | Current -> current
  | Proposed -> proposed
  | Sfi -> sfi
