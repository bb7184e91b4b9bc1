open Sea_sim

type value = Str of string | Int of int | Bool of bool

type args = (string * value) list

(* An open span on the stack: begun at [t0], with [child] accumulating
   the time covered by spans nested inside it, so that closing can
   attribute self (exclusive) time to the right layer. *)
type open_span = {
  s_cat : string;
  s_name : string;
  t0 : Time.t;
  mutable child : Time.t;
}

type agg = {
  mutable a_count : int;
  mutable a_total : Time.t;
  mutable a_self : Time.t;
}

type sink = {
  buf : Buffer.t; (* pre-rendered JSON event objects, comma-separated *)
  mutable stack : open_span list;
  aggs : (string * string, agg) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
  mutable n_events : int;
}

let create () =
  {
    buf = Buffer.create 4096;
    stack = [];
    aggs = Hashtbl.create 32;
    counters = Hashtbl.create 8;
    n_events = 0;
  }

(* Domain-local, not a plain ref: a sink buffers unsynchronized mutable
   state (Buffer, span stack, aggregate tables), so sharing one across
   domains would race. Keying the installed sink per domain lets each
   shard of a fleet simulation trace its own machines into its own sink
   while other domains stay untraced (or trace elsewhere), with no
   change of behaviour for single-domain programs. *)
let current : sink option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let uninstall () = Domain.DLS.set current None
let installed () = Domain.DLS.get current
let on () = Option.is_some (Domain.DLS.get current)

let with_sink s f =
  let prev = Domain.DLS.get current in
  Domain.DLS.set current (Some s);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current prev) f

(* --- JSON rendering --- *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* Virtual ns -> trace us, exactly: "<us>.<ns remainder>" with three
   decimals. Integer arithmetic keeps the rendering byte-deterministic. *)
let add_ts b t =
  let ns = Time.to_ns t in
  Buffer.add_string b (Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000))

let add_args b args =
  match args with
  | [] -> ()
  | args ->
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape b k;
          Buffer.add_string b "\":";
          match v with
          | Str s ->
              Buffer.add_char b '"';
              escape b s;
              Buffer.add_char b '"'
          | Int n -> Buffer.add_string b (string_of_int n)
          | Bool v -> Buffer.add_string b (if v then "true" else "false"))
        args;
      Buffer.add_char b '}'

let event_start s =
  if s.n_events > 0 then Buffer.add_string s.buf ",\n";
  s.n_events <- s.n_events + 1;
  Buffer.add_char s.buf '{'

(* One lane for the live span stream, another for retroactive completes
   (which may overlap the live stream and each other). *)
let tid_spans = 0
let tid_completes = 1

let emit_common s ~ph ~tid ~ts =
  event_start s;
  Buffer.add_string s.buf "\"ph\":\"";
  Buffer.add_string s.buf ph;
  Buffer.add_string s.buf "\",\"pid\":1,\"tid\":";
  Buffer.add_string s.buf (string_of_int tid);
  Buffer.add_string s.buf ",\"ts\":";
  add_ts s.buf ts

let emit_named s ~ph ~tid ~ts ~cat ~name args =
  emit_common s ~ph ~tid ~ts;
  Buffer.add_string s.buf ",\"cat\":\"";
  escape s.buf cat;
  Buffer.add_string s.buf "\",\"name\":\"";
  escape s.buf name;
  Buffer.add_char s.buf '"';
  add_args s.buf args;
  Buffer.add_char s.buf '}'

(* --- span machinery --- *)

let begin_span s engine ~cat ~args name =
  let now = Engine.now engine in
  s.stack <- { s_cat = cat; s_name = name; t0 = now; child = Time.zero } :: s.stack;
  emit_named s ~ph:"B" ~tid:tid_spans ~ts:now ~cat ~name args

let agg_for s cat name =
  match Hashtbl.find_opt s.aggs (cat, name) with
  | Some a -> a
  | None ->
      let a = { a_count = 0; a_total = Time.zero; a_self = Time.zero } in
      Hashtbl.add s.aggs (cat, name) a;
      a

let end_span s engine =
  match s.stack with
  | [] -> invalid_arg "Trace.end_span: no open span"
  | sp :: rest ->
      let now = Engine.now engine in
      s.stack <- rest;
      let dur = Time.sub now sp.t0 in
      (match rest with
      | parent :: _ -> parent.child <- Time.add parent.child dur
      | [] -> ());
      let a = agg_for s sp.s_cat sp.s_name in
      a.a_count <- a.a_count + 1;
      a.a_total <- Time.add a.a_total dur;
      a.a_self <- Time.add a.a_self (Time.sub dur sp.child);
      emit_common s ~ph:"E" ~tid:tid_spans ~ts:now;
      Buffer.add_char s.buf '}'

let no_args () = []

let with_span engine ~cat ?(args = no_args) name f =
  match Domain.DLS.get current with
  | None -> f ()
  | Some s ->
      begin_span s engine ~cat ~args:(args ()) name;
      Fun.protect ~finally:(fun () -> end_span s engine) f

let instant engine ~cat ?(args = no_args) name =
  match Domain.DLS.get current with
  | None -> ()
  | Some s ->
      emit_named s ~ph:"i" ~tid:tid_spans ~ts:(Engine.now engine) ~cat ~name
        (args ());
      (* Instant scope: "t" (thread) keeps the marker local to its lane. *)
      let b = s.buf in
      Buffer.truncate b (Buffer.length b - 1);
      Buffer.add_string b ",\"s\":\"t\"}"

let complete engine ~cat ?(args = no_args) ~start ~stop name =
  ignore engine;
  match Domain.DLS.get current with
  | None -> ()
  | Some s ->
      let dur = Time.max Time.zero (Time.sub stop start) in
      emit_named s ~ph:"X" ~tid:tid_completes ~ts:start ~cat ~name (args ());
      let b = s.buf in
      Buffer.truncate b (Buffer.length b - 1);
      Buffer.add_string b ",\"dur\":";
      add_ts b dur;
      Buffer.add_char b '}';
      let a = agg_for s cat name in
      a.a_count <- a.a_count + 1;
      a.a_total <- Time.add a.a_total dur;
      a.a_self <- Time.add a.a_self dur

let count engine name n =
  match Domain.DLS.get current with
  | None -> ()
  | Some s ->
      let total = (match Hashtbl.find_opt s.counters name with Some v -> v | None -> 0) + n in
      Hashtbl.replace s.counters name total;
      emit_common s ~ph:"C" ~tid:tid_spans ~ts:(Engine.now engine);
      let b = s.buf in
      Buffer.add_string b ",\"name\":\"";
      escape b name;
      Buffer.add_string b "\",\"args\":{\"value\":";
      Buffer.add_string b (string_of_int total);
      Buffer.add_string b "}}"

(* --- inspection --- *)

let depth s = List.length s.stack
let events s = s.n_events

let counter s name =
  match Hashtbl.find_opt s.counters name with Some v -> v | None -> 0

type span_stat = {
  cat : string;
  name : string;
  count : int;
  total : Time.t;
  self : Time.t;
}

let span_stats s =
  Hashtbl.fold
    (fun (cat, name) a acc ->
      { cat; name; count = a.a_count; total = a.a_total; self = a.a_self }
      :: acc)
    s.aggs []
  |> List.sort (fun a b ->
         match Time.compare b.total a.total with
         | 0 -> compare (a.cat, a.name) (b.cat, b.name)
         | c -> c)

let category_self s cat0 =
  Hashtbl.fold
    (fun (cat, _) a acc ->
      if String.equal cat cat0 then Time.add acc a.a_self else acc)
    s.aggs Time.zero

(* --- export --- *)

let export_json s =
  let b = Buffer.create (Buffer.length s.buf + 64) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Buffer.add_buffer b s.buf;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let summary s =
  let b = Buffer.create 1024 in
  let stats = span_stats s in
  Buffer.add_string b
    (Printf.sprintf "%-12s %-28s %8s %14s %14s\n" "category" "span" "count"
       "total" "self");
  List.iter
    (fun st ->
      Buffer.add_string b
        (Printf.sprintf "%-12s %-28s %8d %14s %14s\n" st.cat st.name st.count
           (Time.to_string st.total) (Time.to_string st.self)))
    stats;
  let cats =
    List.sort_uniq compare (List.map (fun st -> st.cat) stats)
  in
  if cats <> [] then begin
    Buffer.add_string b "\nby category (self time):\n";
    List.iter
      (fun cat ->
        Buffer.add_string b
          (Printf.sprintf "  %-12s %14s\n" cat
             (Time.to_string (category_self s cat))))
      cats
  end;
  let counters =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.counters []
    |> List.sort compare
  in
  if counters <> [] then begin
    Buffer.add_string b "\ncounters:\n";
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  %-28s %12d\n" k v))
      counters
  end;
  Buffer.contents b
