(* 32-bit arithmetic carried out in native ints, masked to 32 bits. *)

let digest_size = 20
let mask32 = 0xFFFFFFFF
let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes absorbed *)
  w : int array; (* message schedule scratch *)
}

let init () =
  {
    h0 = 0x67452301;
    h1 = 0xEFCDAB89;
    h2 = 0x98BADCFE;
    h3 = 0x10325476;
    h4 = 0xC3D2E1F0;
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 80 0;
  }

let copy ctx = { ctx with buf = Bytes.copy ctx.buf; w = Array.make 80 0 }

let process_block ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    let j = off + (4 * i) in
    w.(i) <-
      (Char.code (Bytes.get block j) lsl 24)
      lor (Char.code (Bytes.get block (j + 1)) lsl 16)
      lor (Char.code (Bytes.get block (j + 2)) lsl 8)
      lor Char.code (Bytes.get block (j + 3))
  done;
  for i = 16 to 79 do
    w.(i) <- rotl32 (w.(i - 3) lxor w.(i - 8) lxor w.(i - 14) lxor w.(i - 16)) 1
  done;
  let a = ref ctx.h0
  and b = ref ctx.h1
  and c = ref ctx.h2
  and d = ref ctx.h3
  and e = ref ctx.h4 in
  for i = 0 to 79 do
    let f, k =
      if i < 20 then ((!b land !c) lor (lnot !b land !d) land mask32, 0x5A827999)
      else if i < 40 then (!b lxor !c lxor !d, 0x6ED9EBA1)
      else if i < 60 then ((!b land !c) lor (!b land !d) lor (!c land !d), 0x8F1BBCDC)
      else (!b lxor !c lxor !d, 0xCA62C1D6)
    in
    let tmp = (rotl32 !a 5 + (f land mask32) + !e + k + w.(i)) land mask32 in
    e := !d;
    d := !c;
    c := rotl32 !b 30;
    b := !a;
    a := tmp
  done;
  ctx.h0 <- (ctx.h0 + !a) land mask32;
  ctx.h1 <- (ctx.h1 + !b) land mask32;
  ctx.h2 <- (ctx.h2 + !c) land mask32;
  ctx.h3 <- (ctx.h3 + !d) land mask32;
  ctx.h4 <- (ctx.h4 + !e) land mask32

let update ctx s =
  let len = String.length s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* Top up a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      process_block ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while len - !pos >= 64 do
    Bytes.blit_string s !pos ctx.buf 0 64;
    process_block ctx ctx.buf 0;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.buf 0 (len - !pos);
    ctx.buf_len <- len - !pos
  end

let finalize ctx =
  let bit_len = ctx.total * 8 in
  (* Padding: 0x80, zeros, 64-bit big-endian length. *)
  let pad_len =
    let rem = (ctx.total + 1 + 8) mod 64 in
    if rem = 0 then 1 else 1 + (64 - rem)
  in
  let pad = Bytes.make (pad_len + 8) '\000' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad (pad_len + i) (Char.chr ((bit_len lsr (8 * (7 - i))) land 0xff))
  done;
  update ctx (Bytes.to_string pad);
  assert (ctx.buf_len = 0);
  let out = Bytes.create 20 in
  let put i v =
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xff))
  in
  put 0 ctx.h0;
  put 1 ctx.h1;
  put 2 ctx.h2;
  put 3 ctx.h3;
  put 4 ctx.h4;
  Bytes.to_string out

let digest msg =
  let ctx = init () in
  update ctx msg;
  finalize ctx

let digest_bytes b = digest (Bytes.to_string b)

let hex msg =
  let d = digest msg in
  let buf = Buffer.create 40 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf
