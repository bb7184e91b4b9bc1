open Sea_sim

type t = {
  loss : float;
  rng : Rng.t;
  mutable sends : int;
  mutable drops : int;
  mutable bytes : int;
}

(* One-way latency and bandwidth (~1 Gbit/s). *)
let latency = Time.us 50.
let bytes_per_us = 125

let create ?(loss = 0.) rng =
  if not (loss >= 0. && loss <= 1.) then
    invalid_arg "Link.create: loss must be in [0, 1]";
  { loss; rng = Rng.split rng; sends = 0; drops = 0; bytes = 0 }

let transfer_time _ ~bytes =
  Time.add latency (Time.us (float_of_int bytes /. float_of_int bytes_per_us))

let send t engine payload =
  let bytes = String.length payload in
  t.sends <- t.sends + 1;
  (* A dropped message burns its timeout (one full transfer time) before
     the sender can tell; a delivered one burns the transfer time. Either
     way the receiving engine's clock pays for the attempt. *)
  Engine.advance engine (transfer_time t ~bytes);
  if t.loss > 0. && Rng.float t.rng 1.0 < t.loss then begin
    t.drops <- t.drops + 1;
    Sea_trace.Trace.instant engine ~cat:"churn"
      ~args:(fun () -> [ ("bytes", Sea_trace.Trace.Int bytes) ])
      "link-drop";
    Error (Sea_fault.Fault.transient "link: message lost in transfer")
  end
  else begin
    t.bytes <- t.bytes + bytes;
    Ok ()
  end

let sends t = t.sends
let drops t = t.drops
let bytes t = t.bytes
