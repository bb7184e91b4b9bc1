type public = { n : Bignum.t; e : Bignum.t; n_ctx : Bignum.mont option }

type private_key = {
  pub : public;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;
  dq : Bignum.t;
  qinv : Bignum.t;
  p_ctx : Bignum.mont;
  q_ctx : Bignum.mont;
}

(* Only odd moduli above one have a Montgomery context; any other [n]
   (a malformed decoded key) falls back to [Bignum.mod_pow]. *)
let odd_ctx m =
  if Bignum.test_bit m 0 && Bignum.compare m Bignum.one > 0 then Some (Bignum.mont m)
  else None

let public ~n ~e = { n; e; n_ctx = odd_ctx n }

let pow_n pub ~base ~exp =
  match pub.n_ctx with
  | Some ctx -> Bignum.mont_pow ctx ~base ~exp
  | None -> Bignum.mod_pow ~base ~exp ~m:pub.n

let of_primes ?(e = 65537) p q =
  let open Bignum in
  (* q has no inverse mod p when p = q or they share a factor. *)
  match (odd_ctx p, odd_ctx q, mod_inverse q ~m:p) with
  | Some p_ctx, Some q_ctx, Some qinv -> (
      let p1 = sub p one and q1 = sub q one in
      let e_big = of_int e in
      match mod_inverse e_big ~m:(mul p1 q1) with
      | None -> None
      | Some d ->
          Some
            {
              pub = public ~n:(mul p q) ~e:e_big;
              d;
              p;
              q;
              dp = rem d p1;
              dq = rem d q1;
              qinv;
              p_ctx;
              q_ctx;
            })
  | _ -> None

(* c^d mod n by the Chinese remainder theorem, recombined with Garner's
   formula: m = m_q + q * (qinv * (m_p - m_q) mod p). For c < n this is
   exactly c^d mod n, at about a quarter of the cost. *)
let private_pow key c =
  let open Bignum in
  let mp = mont_pow key.p_ctx ~base:c ~exp:key.dp in
  let mq = mont_pow key.q_ctx ~base:c ~exp:key.dq in
  let h = mod_mul key.qinv (mod_sub mp mq ~m:key.p) ~m:key.p in
  add mq (mul h key.q)

let small_primes =
  [
    2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67; 71;
    73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139; 149; 151;
    157; 163; 167; 173; 179; 181; 191; 193; 197; 199; 211; 223; 227; 229; 233;
    239; 241; 251;
  ]

let is_probable_prime n ~rounds drbg =
  let open Bignum in
  match to_int_opt n with
  | Some k when k < 251 * 251 ->
      (* Below 251², n is prime iff it is a listed prime or none divides it. *)
      k >= 2 && List.for_all (fun p -> p = k || k mod p <> 0) small_primes
  | _ when List.exists (fun p -> rem_int n p = 0) small_primes -> false
  | _ ->
      (* n - 1 = d * 2^s with d odd *)
      let n1 = sub n one in
      let rec split d s = if test_bit d 0 then (d, s) else split (shift_right d 1) (s + 1) in
      let d, s = split n1 0 in
      let nbits = bit_length n in
      let ctx = mont n in
      let random_base () =
        (* Uniform a in [2, n-2]: rejection sample below n, retry on edges. *)
        let rec go () =
          let a = of_random_bits (fun k -> Drbg.generate drbg k) nbits in
          if compare a two < 0 || compare a (sub n two) > 0 then go () else a
        in
        go ()
      in
      let witness a =
        let x = ref (mont_pow ctx ~base:a ~exp:d) in
        if equal !x one || equal !x n1 then false
        else begin
          let composite = ref true in
          (try
             for _ = 1 to s - 1 do
               x := mod_mul !x !x ~m:n;
               if equal !x n1 then begin
                 composite := false;
                 raise Exit
               end
             done
           with Exit -> ());
          !composite
        end
      in
      let rec rounds_left k = if k = 0 then true else if witness (random_base ()) then false else rounds_left (k - 1) in
      rounds_left rounds

let random_prime ~bits drbg =
  let open Bignum in
  let rec go () =
    let cand = of_random_bits (fun k -> Drbg.generate drbg k) bits in
    (* Force the top bit (exact bit length) and the low bit (odd). *)
    let cand = shift_left (shift_right cand 1) 1 in
    let cand = add cand one in
    let cand =
      if test_bit cand (bits - 1) then cand
      else add cand (shift_left one (bits - 1))
    in
    if is_probable_prime cand ~rounds:12 drbg then cand else go ()
  in
  go ()

let generate ?(e = 65537) ~bits drbg =
  if bits < 32 then invalid_arg "Rsa.generate: modulus too small";
  let open Bignum in
  let half = bits / 2 in
  let rec go () =
    let p = random_prime ~bits:half drbg in
    let q = random_prime ~bits:(bits - half) drbg in
    if equal p q || bit_length (mul p q) <> bits then go ()
    else match of_primes ~e p q with None -> go () | Some key -> key
  in
  go ()

let key_bytes pub = (Bignum.bit_length pub.n + 7) / 8
let max_plaintext pub = key_bytes pub - 11

(* PKCS#1 v1.5 DigestInfo prefix for SHA-1 (RFC 8017 §9.2 notes). *)
let sha1_digest_info =
  "\x30\x21\x30\x09\x06\x05\x2b\x0e\x03\x02\x1a\x05\x00\x04\x14"

let emsa_pkcs1_v15 ~em_len digest =
  let t = sha1_digest_info ^ digest in
  let t_len = String.length t in
  if em_len < t_len + 11 then invalid_arg "Rsa: key too small for signature";
  let ps = String.make (em_len - t_len - 3) '\xff' in
  "\x00\x01" ^ ps ^ "\x00" ^ t

let sign key msg =
  let em_len = key_bytes key.pub in
  let em = emsa_pkcs1_v15 ~em_len (Sha1.digest msg) in
  let m = Bignum.of_bytes_be em in
  let s = private_pow key m in
  Bignum.to_bytes_be ~pad_to:em_len s

let verify pub ~msg ~signature =
  let em_len = key_bytes pub in
  if String.length signature <> em_len then false
  else begin
    let s = Bignum.of_bytes_be signature in
    if Bignum.compare s pub.n >= 0 then false
    else begin
      let m = pow_n pub ~base:s ~exp:pub.e in
      let em = Bignum.to_bytes_be ~pad_to:em_len m in
      let expected = emsa_pkcs1_v15 ~em_len (Sha1.digest msg) in
      Hmac.equal_constant_time em expected
    end
  end

let encrypt pub drbg plaintext =
  let k = key_bytes pub in
  let m_len = String.length plaintext in
  if m_len > k - 11 then invalid_arg "Rsa.encrypt: plaintext too long";
  (* Type-2 padding: 00 02 <nonzero random> 00 <plaintext>. *)
  let ps_len = k - m_len - 3 in
  let ps = Bytes.create ps_len in
  for i = 0 to ps_len - 1 do
    let rec nonzero () =
      let b = Bytes.get (Drbg.generate drbg 1) 0 in
      if b = '\000' then nonzero () else b
    in
    Bytes.set ps i (nonzero ())
  done;
  let em = "\x00\x02" ^ Bytes.to_string ps ^ "\x00" ^ plaintext in
  let m = Bignum.of_bytes_be em in
  let c = pow_n pub ~base:m ~exp:pub.e in
  Bignum.to_bytes_be ~pad_to:k c

let decrypt key ciphertext =
  let k = key_bytes key.pub in
  if String.length ciphertext <> k then None
  else begin
    let c = Bignum.of_bytes_be ciphertext in
    if Bignum.compare c key.pub.n >= 0 then None
    else begin
      let m = private_pow key c in
      let em = Bignum.to_bytes_be ~pad_to:k m in
      if String.length em < 11 || em.[0] <> '\000' || em.[1] <> '\002' then None
      else begin
        (* Find the 00 separator after at least 8 padding bytes. *)
        let rec find i =
          if i >= String.length em then None
          else if em.[i] = '\000' then if i >= 10 then Some i else None
          else find (i + 1)
        in
        match find 2 with
        | None -> None
        | Some sep -> Some (String.sub em (sep + 1) (String.length em - sep - 1))
      end
    end
  end
