(* Little-endian arrays of 31-bit limbs, canonical (no trailing zero limb).
   Base B = 2^31 keeps every inner-loop step inside a 63-bit int: a limb
   plus a limb product plus a carry below B is at most
   (B-1) + (B-1)^2 + (B-1) = B^2 - 1 = max_int, and its carry is again
   below B. *)

let limb_bits = 31
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let is_zero a = Array.length a = 0

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignum.of_int: negative";
  if n = 0 then zero
  else begin
    let rec count acc v = if v = 0 then acc else count (acc + 1) (v lsr limb_bits) in
    let len = count 0 n in
    Array.init len (fun i -> (n lsr (i * limb_bits)) land limb_mask)
  end

let to_int_opt a =
  (* max_int is 2^62-1: values of up to three limbs may fit (3*31 = 93 > 62),
     so accumulate carefully and detect overflow. *)
  let rec go acc shift i =
    if i >= Array.length a then Some acc
    else if shift >= 63 then None
    else
      let limb = a.(i) in
      if shift + limb_bits > 62 && limb lsr (62 - shift) > 0 then None
      else go (acc lor (limb lsl shift)) (shift + limb_bits) (i + 1)
  in
  go 0 0 0

let equal a b = a = b

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let bit_length a =
  let l = Array.length a in
  if l = 0 then 0
  else
    let top = a.(l - 1) in
    let rec msb n v = if v = 0 then n else msb (n + 1) (v lsr 1) in
    ((l - 1) * limb_bits) + msb 0 top

let test_bit a i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let av = if i < la then a.(i) else 0 in
    let bv = if i < lb then b.(i) else 0 in
    let s = av + bv + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize r

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bv = if i < lb then b.(i) else 0 in
    let d = a.(i) - bv - !borrow in
    if d < 0 then begin
      r.(i) <- d + limb_base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let cur = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- cur land limb_mask;
        carry := cur lsr limb_bits
      done;
      (* Row [i] is the first to reach limb [i + lb]. *)
      r.(i + lb) <- !carry
    done;
    normalize r
  end

let shift_left a n =
  if n < 0 then invalid_arg "Bignum.shift_left: negative shift";
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / limb_bits and bits = n mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
      r.(i + limbs + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let shift_right a n =
  if n < 0 then invalid_arg "Bignum.shift_right: negative shift";
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / limb_bits and bits = n mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi =
          if bits = 0 || i + limbs + 1 >= la then 0
          else (a.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* Short division by one limb [d]: the running remainder stays below [d],
   so [r * B + limb] < B^2. *)
let divmod_limb a d =
  let q = Array.make (Array.length a) 0 in
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur - (q.(i) * d)
  done;
  (normalize q, of_int !r)

(* Knuth, TAOCP vol. 2, §4.3.1, Algorithm D, for a divisor of n >= 2 limbs
   and a >= b. Both operands are shifted so the divisor's top bit is set,
   which bounds each trial quotient digit to at most one too large once
   it passes the second-limb test. *)
let divmod_knuth a b =
  let n = Array.length b in
  let s = limb_bits - bit_length [| b.(n - 1) |] in
  let v = shift_left b s in
  let u = Array.make (Array.length a + 1) 0 in
  let a' = shift_left a s in
  Array.blit a' 0 u 0 (Array.length a');
  let m = Array.length a - n in
  let q = Array.make (m + 1) 0 in
  let vtop = v.(n - 1) and vnext = v.(n - 2) in
  for j = m downto 0 do
    let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
    let qhat = ref (num / vtop) in
    (* Clamp below B first, so qhat * vnext and rhat * B stay below 2^62. *)
    if !qhat > limb_mask then qhat := limb_mask;
    let rhat = ref (num - (!qhat * vtop)) in
    while
      !rhat <= limb_mask
      && !qhat * vnext > (!rhat lsl limb_bits) lor u.(j + n - 2)
    do
      decr qhat;
      rhat := !rhat + vtop
    done;
    (* u[j .. j+n] -= qhat * v *)
    let carry = ref 0 and borrow = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr limb_bits;
      let d = u.(i + j) - (p land limb_mask) - !borrow in
      u.(i + j) <- d land limb_mask;
      borrow := if d < 0 then 1 else 0
    done;
    let d = u.(j + n) - !carry - !borrow in
    u.(j + n) <- d land limb_mask;
    if d < 0 then begin
      (* qhat was one too large: add v back, dropping the final carry. *)
      decr qhat;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let sum = u.(i + j) + v.(i) + !carry in
        u.(i + j) <- sum land limb_mask;
        carry := sum lsr limb_bits
      done;
      u.(j + n) <- (u.(j + n) + !carry) land limb_mask
    end;
    q.(j) <- !qhat
  done;
  (normalize q, shift_right (normalize (Array.sub u 0 n)) s)

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then divmod_limb a b.(0)
  else divmod_knuth a b

let rem_int a d =
  if d <= 0 || d > limb_mask then invalid_arg "Bignum.rem_int: divisor out of range";
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    r := ((!r lsl limb_bits) lor a.(i)) mod d
  done;
  !r

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let mod_sub a b ~m =
  let a = rem a m and b = rem b m in
  if compare a b >= 0 then sub a b else sub (add a m) b

let mod_mul a b ~m = rem (mul a b) m

(* Bits [pos, pos + w) of [a], for w <= limb_bits. *)
let bits_at a pos w =
  let l = pos / limb_bits and off = pos mod limb_bits in
  if l >= Array.length a then 0
  else
    let v = a.(l) lsr off in
    let v =
      if off + w > limb_bits && l + 1 < Array.length a then
        v lor (a.(l + 1) lsl (limb_bits - off))
      else v
    in
    v land ((1 lsl w) - 1)

(* --- Montgomery machinery for odd moduli --- *)

(* Inverse of [x] modulo 2^31 by Newton iteration; [x] must be odd. *)
let inv_limb x =
  let y = ref x in
  (* Each iteration doubles the number of correct low bits; 5 iterations
     exceed 31 bits starting from the 3 bits correct in x itself. *)
  for _ = 1 to 5 do
    y := !y * (2 - (x * !y)) land limb_mask
  done;
  !y land limb_mask

(* R = B^k for a k-limb modulus m; m0' = -m^-1 mod B; r2 = R^2 mod m,
   zero-padded to k limbs like every operand of [mont_mul]. *)
type mont = { m : t; k : int; m0' : int; r2 : t }

let pad k a =
  let r = Array.make k 0 in
  Array.blit a 0 r 0 (Array.length a);
  r

let mont m =
  if Array.length m = 0 || m.(0) land 1 = 0 || equal m one then
    invalid_arg "Bignum.mont: modulus must be odd and above one";
  let k = Array.length m in
  let r2 = rem (shift_left one (2 * k * limb_bits)) m in
  { m; k; m0' = limb_base - inv_limb m.(0); r2 = pad k r2 }

(* Unchecked limb access for the product below, which carries almost all
   of the exponentiation time: its buffers are built by [mont_pow] with k
   (operands, modulus) or k+2 (scratch) limbs, and no index leaves
   [0, k+1]. *)
external ( .%() ) : int array -> int -> int = "%array_unsafe_get"
external ( .%()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

(* dst <- a * b / R mod m by CIOS (Koç, Acar & Kaliski 1996). [a] and [b]
   are k-limb values below m; [t] is a (k+2)-limb scratch buffer; [dst]
   may alias [a] or [b], since it is written only after the product. *)
let mont_mul ctx t a b dst =
  let { m; k; m0'; _ } = ctx in
  Array.fill t 0 (k + 2) 0;
  for i = 0 to k - 1 do
    let bi = b.%(i) in
    let c = ref 0 in
    for j = 0 to k - 1 do
      let s = t.%(j) + (a.%(j) * bi) + !c in
      t.%(j) <- s land limb_mask;
      c := s lsr limb_bits
    done;
    let s = t.%(k) + !c in
    t.%(k) <- s land limb_mask;
    t.%(k + 1) <- s lsr limb_bits;
    (* Add u*m, which zeroes limb 0, and shift down one limb. *)
    let u = t.%(0) * m0' land limb_mask in
    let c = ref ((t.%(0) + (u * m.%(0))) lsr limb_bits) in
    for j = 1 to k - 1 do
      let s = t.%(j) + (u * m.%(j)) + !c in
      t.%(j - 1) <- s land limb_mask;
      c := s lsr limb_bits
    done;
    let s = t.%(k) + !c in
    t.%(k - 1) <- s land limb_mask;
    t.%(k) <- t.%(k + 1) + (s lsr limb_bits)
  done;
  (* Now t < 2m: subtract m once if t >= m. *)
  let rec geq i = i < 0 || t.%(i) > m.%(i) || (t.%(i) = m.%(i) && geq (i - 1)) in
  if t.%(k) <> 0 || geq (k - 1) then begin
    let borrow = ref 0 in
    for j = 0 to k - 1 do
      let d = t.%(j) - m.%(j) - !borrow in
      dst.(j) <- d land limb_mask;
      borrow := if d < 0 then 1 else 0
    done
  end
  else Array.blit t 0 dst 0 k

let mont_pow ctx ~base ~exp =
  let k = ctx.k in
  if is_zero exp then one
  else begin
    let nbits = bit_length exp in
    (* Fixed windows of w exponent bits: 2^w - 2 products up front cut
       each window's multiplies from up to w to at most one, which pays
       on long (private and Miller-Rabin) exponents but not on
       e = 65537. *)
    let w = if nbits > 64 then 4 else 1 in
    let t = Array.make (k + 2) 0 in
    (* table.(i) = base^i * R mod m *)
    let table = Array.init (1 lsl w) (fun _ -> Array.make k 0) in
    mont_mul ctx t (pad k (rem base ctx.m)) ctx.r2 table.(1);
    for i = 2 to (1 lsl w) - 1 do
      mont_mul ctx t table.(i - 1) table.(1) table.(i)
    done;
    let ndigits = (nbits + w - 1) / w in
    (* The top window holds the top bit, so it is never zero. *)
    let acc = Array.copy table.(bits_at exp ((ndigits - 1) * w) w) in
    for i = ndigits - 2 downto 0 do
      for _ = 1 to w do
        mont_mul ctx t acc acc acc
      done;
      let d = bits_at exp (i * w) w in
      if d <> 0 then mont_mul ctx t acc table.(d) acc
    done;
    (* Out of Montgomery form: multiply by 1. *)
    mont_mul ctx t acc (pad k one) acc;
    normalize acc
  end

let mod_pow ~base ~exp ~m =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else if is_zero exp then one
  else if m.(0) land 1 = 1 then mont_pow (mont m) ~base ~exp
  else begin
    let acc = ref one in
    let b = ref (rem base m) in
    let nbits = bit_length exp in
    for i = 0 to nbits - 1 do
      if test_bit exp i then acc := mod_mul !acc !b ~m;
      b := mod_mul !b !b ~m
    done;
    !acc
  end

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

let mod_inverse a ~m =
  if is_zero m || equal m one then None
  else begin
    (* Iterative extended Euclid keeping Bezout coefficients reduced mod m,
       which keeps everything in the naturals. *)
    let t = ref zero and newt = ref one in
    let r = ref m and newr = ref (rem a m) in
    while not (is_zero !newr) do
      let q, r' = divmod !r !newr in
      let t' = mod_sub !t (mod_mul q !newt ~m) ~m in
      t := !newt;
      newt := t';
      r := !newr;
      newr := r'
    done;
    if equal !r one then Some !t else None
  end

(* --- Conversions: each digit packs into, or reads from, at most two
   limbs, so all four run in linear time. --- *)

(* The value whose [n] big-endian [w]-bit digits are [digit 0 .. n-1]. *)
let pack ~w n digit =
  let r = Array.make (((n * w) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and nacc = ref 0 and k = ref 0 in
  for i = n - 1 downto 0 do
    acc := !acc lor (digit i lsl !nacc);
    nacc := !nacc + w;
    if !nacc >= limb_bits then begin
      r.(!k) <- !acc land limb_mask;
      incr k;
      acc := !acc lsr limb_bits;
      nacc := !nacc - limb_bits
    end
  done;
  if !nacc > 0 then r.(!k) <- !acc;
  normalize r

let of_bytes_be s = pack ~w:8 (String.length s) (fun i -> Char.code s.[i])

let to_bytes_be ?pad_to a =
  let nbytes = max 1 ((bit_length a + 7) / 8) in
  let width =
    match pad_to with
    | None -> nbytes
    | Some w ->
        if w < nbytes then invalid_arg "Bignum.to_bytes_be: value exceeds pad_to";
        w
  in
  String.init width (fun i -> Char.chr (bits_at a (8 * (width - 1 - i)) 8))

let of_hex s =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bignum.of_hex: invalid character"
  in
  pack ~w:4 (String.length s) (fun i -> digit s.[i])

let to_hex a =
  if is_zero a then "0"
  else
    let n = (bit_length a + 3) / 4 in
    String.init n (fun i -> "0123456789abcdef".[bits_at a (4 * (n - 1 - i)) 4])

let of_random_bits gen bits =
  if bits <= 0 then zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let b = gen nbytes in
    let excess = (nbytes * 8) - bits in
    if excess > 0 then
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land (0xff lsr excess)));
    of_bytes_be (Bytes.to_string b)
  end

let pp fmt a = Format.pp_print_string fmt (to_hex a)
