(* HMAC-DRBG (SP 800-90A) with HMAC-SHA256, without personalization strings
   or prediction resistance; update/generate follow the standard K,V dance.
   K is held as a prepared HMAC key, so its pads are hashed once per
   update rather than once per MAC. *)

type t = { mutable k : Hmac.key; mutable v : string }

let update t provided =
  t.k <- Hmac.prepare_sha256 (Hmac.mac t.k (t.v ^ "\x00" ^ provided));
  t.v <- Hmac.mac t.k t.v;
  if provided <> "" then begin
    t.k <- Hmac.prepare_sha256 (Hmac.mac t.k (t.v ^ "\x01" ^ provided));
    t.v <- Hmac.mac t.k t.v
  end

let create ~seed =
  let t = { k = Hmac.prepare_sha256 (String.make 32 '\000'); v = String.make 32 '\001' } in
  update t seed;
  t

let reseed t entropy = update t entropy

let generate t n =
  let out = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    t.v <- Hmac.mac t.k t.v;
    let take = min (n - !off) (String.length t.v) in
    Bytes.blit_string t.v 0 out !off take;
    off := !off + take
  done;
  update t "";
  out

let generate_string t n = Bytes.unsafe_to_string (generate t n)
