(* 32-bit arithmetic carried out in native ints. Sums are masked to 32
   bits only where a value is stored; the low 32 bits of a sum do not
   depend on the bits above them. A rotation reads a word doubled into
   64 bits, [x lor (x lsl 32)]: [rotr32 x n] is then the low 32 bits of
   one shift right by [n]. The 63-bit int keeps bits 0-62 of the doubled
   word and a shift by at most 25 reads no bit above 56. *)

let digest_size = 32
let mask32 = 0xFFFFFFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* partial block *)
  mutable buf_len : int;
  mutable total : int; (* bytes absorbed *)
  w : int array; (* message schedule scratch *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
        0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

let copy ctx =
  { ctx with h = Array.copy ctx.h; buf = Bytes.copy ctx.buf; w = Array.make 64 0 }

(* Compress the 64-byte block at [off] in [block]. *)
let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (Bytes.get_int32_be block (off + (4 * i))) land mask32
  done;
  for i = 16 to 63 do
    let x = w.(i - 15) and y = w.(i - 2) in
    let x2 = x lor (x lsl 32) and y2 = y lor (y lsl 32) in
    let s0 = (x2 lsr 7) lxor (x2 lsr 18) lxor (x lsr 3) in
    let s1 = (y2 lsr 17) lxor (y2 lsr 19) lxor (y lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask32
  done;
  let h = ctx.h in
  let rec rounds i a b c d e f g hh =
    if i < 64 then begin
      let e2 = e lor (e lsl 32) and a2 = a lor (a lsl 32) in
      let s1 = (e2 lsr 6) lxor (e2 lsr 11) lxor (e2 lsr 25) in
      let ch = g lxor (e land (f lxor g)) in
      let t1 = hh + s1 + ch + k.(i) + w.(i) in
      let s0 = (a2 lsr 2) lxor (a2 lsr 13) lxor (a2 lsr 22) in
      let maj = (a land b) lor (c land (a lor b)) in
      rounds (i + 1) ((t1 + s0 + maj) land mask32) a b c ((d + t1) land mask32) e f g
    end
    else begin
      h.(0) <- (h.(0) + a) land mask32;
      h.(1) <- (h.(1) + b) land mask32;
      h.(2) <- (h.(2) + c) land mask32;
      h.(3) <- (h.(3) + d) land mask32;
      h.(4) <- (h.(4) + e) land mask32;
      h.(5) <- (h.(5) + f) land mask32;
      h.(6) <- (h.(6) + g) land mask32;
      h.(7) <- (h.(7) + hh) land mask32
    end
  in
  rounds 0 h.(0) h.(1) h.(2) h.(3) h.(4) h.(5) h.(6) h.(7)

(* Whole blocks are compressed straight from [s]; only a partial block
   is copied into [buf]. *)
let update ctx s =
  let len = String.length s in
  let src = Bytes.unsafe_of_string s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while len - !pos >= 64 do
    compress ctx src !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.buf 0 (len - !pos);
    ctx.buf_len <- len - !pos
  end

(* Padding: 0x80, zeros, the 64-bit big-endian bit length, written into
   [buf] after the partial block. *)
let finalize ctx =
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  if n + 1 > 56 then begin
    Bytes.fill buf (n + 1) (63 - n) '\000';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\000';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress ctx buf 0;
  let out = Bytes.create 32 in
  Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) ctx.h;
  Bytes.unsafe_to_string out

let digest msg =
  let ctx = init () in
  update ctx msg;
  finalize ctx

let digest_bytes b = digest (Bytes.to_string b)

let hex msg =
  let d = digest msg in
  let buf = Buffer.create 64 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf
