(* One code path for both hashes: a key is prepared by absorbing
   key xor ipad and key xor opad into two contexts once, and every MAC
   under it finishes copies of those two contexts. *)

type 'ctx hash = {
  init : unit -> 'ctx;
  update : 'ctx -> string -> unit;
  finalize : 'ctx -> string;
  copy : 'ctx -> 'ctx;
}

type key = Key : { hash : 'ctx hash; inner : 'ctx; outer : 'ctx } -> key

let block_size = 64

let absorb hash s =
  let ctx = hash.init () in
  hash.update ctx s;
  ctx

let prepare hash key =
  let key =
    if String.length key > block_size then hash.finalize (absorb hash key) else key
  in
  let pad byte =
    absorb hash
      (String.init block_size (fun i ->
           let b = if i < String.length key then Char.code key.[i] else 0 in
           Char.chr (b lxor byte)))
  in
  Key { hash; inner = pad 0x36; outer = pad 0x5c }

let prepare_sha256 key = prepare Sha256.{ init; update; finalize; copy } key

let mac (Key { hash; inner; outer }) msg =
  let finish ctx s =
    let ctx = hash.copy ctx in
    hash.update ctx s;
    hash.finalize ctx
  in
  finish outer (finish inner msg)

let sha1 ~key msg = mac (prepare Sha1.{ init; update; finalize; copy } key) msg
let sha256 ~key msg = mac (prepare_sha256 key) msg

let equal_constant_time a b =
  if String.length a <> String.length b then false
  else begin
    let acc = ref 0 in
    String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
    !acc = 0
  end
