type discipline = Fifo | Weighted | Cost of int

let discipline_name = function
  | Fifo -> "fifo"
  | Weighted -> "weighted"
  | Cost _ -> "cost"

(* One tenant's lane. [queue] is unused under [Fifo] (the shared [fifo]
   keeps arrival order across tenants). [Cost] bookkeeping: per-request
   static costs queued in lockstep with [queue], and the total in
   flight. *)
type 'a lane = {
  weight : int;
  queue : 'a Queue.t;
  mutable credit : int;
  mutable len : int;
  mutable hwm : int;
  costs : int Queue.t;
  mutable cost : int;
}

type 'a t = {
  discipline : discipline;
  depth : int;
  mutable lanes : 'a lane array;
  fifo : (int * 'a) Queue.t;
  mutable cursor : int;
  mutable length : int;
  mutable high_water : int;
  mutable cost_shed : int;
      (* Offers the budget (rather than the depth) turned away. *)
}

let lane weight =
  if weight <= 0 then invalid_arg "Admission: weights must be positive";
  { weight; queue = Queue.create (); credit = weight; len = 0; hwm = 0;
    costs = Queue.create (); cost = 0 }

let create ~discipline ~depth ~weights =
  if depth <= 0 then invalid_arg "Admission.create: depth must be positive";
  (match discipline with
  | Cost budget when budget <= 0 ->
      invalid_arg "Admission.create: cost budget must be positive"
  | _ -> ());
  { discipline; depth; lanes = Array.map lane weights; fifo = Queue.create ();
    cursor = 0; length = 0; high_water = 0; cost_shed = 0 }

let add_tenant t ~weight =
  t.lanes <- Array.append t.lanes [| lane weight |];
  Array.length t.lanes - 1

let length t = t.length
let tenant_length t i = t.lanes.(i).len
let high_water t = t.high_water
let tenant_high_water t i = t.lanes.(i).hwm
let cost_shed t = t.cost_shed

let full t l =
  match t.discipline with
  | Fifo -> t.length >= t.depth
  | Weighted | Cost _ -> l.len >= t.depth

let offer ?(cost = 0) t ~tenant x =
  if tenant < 0 || tenant >= Array.length t.lanes then
    invalid_arg "Admission.offer: unknown tenant";
  if cost < 0 then invalid_arg "Admission.offer: negative cost";
  let l = t.lanes.(tenant) in
  if full t l then false
  else begin
    let over_budget =
      match t.discipline with
      | Cost budget -> l.cost + cost > budget
      | Fifo | Weighted -> false
    in
    if over_budget then begin
      t.cost_shed <- t.cost_shed + 1;
      false
    end
    else begin
      (match t.discipline with
      | Fifo -> Queue.push (tenant, x) t.fifo
      | Weighted -> Queue.push x l.queue
      | Cost _ ->
          Queue.push x l.queue;
          Queue.push cost l.costs;
          l.cost <- l.cost + cost);
      t.length <- t.length + 1;
      if t.length > t.high_water then t.high_water <- t.length;
      l.len <- l.len + 1;
      if l.len > l.hwm then l.hwm <- l.len;
      true
    end
  end

let took t tenant x =
  t.length <- t.length - 1;
  let l = t.lanes.(tenant) in
  l.len <- l.len - 1;
  Some (tenant, x)

let take t =
  if t.length = 0 then None
  else
    match t.discipline with
    | Fifo ->
        let tenant, x = Queue.pop t.fifo in
        took t tenant x
    | Weighted ->
        (* Weighted round-robin: the cursor tenant is served while it has
           backlog and credit; otherwise the cursor advances, refilling
           the next tenant's credit from its weight. A tenant with
           weight [w] gets up to [w] consecutive dequeues per visit, so
           service shares follow the weights while empty queues donate
           their turn. Terminates: some queue is non-empty, and
           advancing onto a tenant refills its credit. *)
        let rec find () =
          let l = t.lanes.(t.cursor) in
          if l.len > 0 && l.credit > 0 then t.cursor
          else begin
            t.cursor <- (t.cursor + 1) mod Array.length t.lanes;
            let next = t.lanes.(t.cursor) in
            next.credit <- next.weight;
            find ()
          end
        in
        let i = find () in
        let l = t.lanes.(i) in
        l.credit <- l.credit - 1;
        took t i (Queue.pop l.queue)
    | Cost _ ->
        (* Cheapest backlog first: the non-empty tenant with the least
           static cost in flight drains next (ties to the lowest
           index), so tenants queueing expensive work wait behind cheap
           ones instead of starving them. Purely a function of offer
           history — no clock, no randomness. *)
        let best = ref (-1) in
        for i = Array.length t.lanes - 1 downto 0 do
          let l = t.lanes.(i) in
          if l.len > 0 && (!best < 0 || l.cost <= t.lanes.(!best).cost) then
            best := i
        done;
        let i = !best in
        let l = t.lanes.(i) in
        let x = Queue.pop l.queue in
        l.cost <- l.cost - Queue.pop l.costs;
        took t i x
