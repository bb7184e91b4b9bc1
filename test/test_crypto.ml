(* Tests for the from-scratch crypto substrate: SHA-1/SHA-256 against
   published vectors, HMAC vectors, bignum ring laws (qcheck), RSA
   roundtrips and negative cases, DRBG determinism, AEAD tamper
   resistance, and Wire codec totality. *)

open Sea_crypto

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* --- SHA-1: RFC 3174 / FIPS vectors --- *)

let test_sha1_vectors () =
  checks "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (Sha1.hex "");
  checks "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" (Sha1.hex "abc");
  checks "two-block"
    "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (Sha1.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  checks "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.hex (String.make 1_000_000 'a'))

(* Feeding a message in awkward chunk sizes across block boundaries
   must give the one-shot digest. *)
let streaming_equivalence ~init ~update ~finalize ~digest () =
  let msg = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  List.iter
    (fun chunk ->
      let ctx = init () in
      let rec go off =
        if off < String.length msg then begin
          let len = min chunk (String.length msg - off) in
          update ctx (String.sub msg off len);
          go (off + len)
        end
      in
      go 0;
      checks (Printf.sprintf "chunk=%d" chunk) (digest msg) (finalize ctx))
    [ 1; 3; 63; 64; 65; 127; 1000 ]

let test_sha1_streaming_equivalence =
  Sha1.(streaming_equivalence ~init ~update ~finalize ~digest)

(* Digests of [n] bytes of 'x' from coreutils sha1sum and sha256sum:
   55/56/64 and 119/120 bytes straddle the padding boundary. *)
let padding_edges =
  [
    (0, "da39a3ee5e6b4b0d3255bfef95601890afd80709",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    (1, "11f6ad8ec52a2984abaafd7c3b516503785c2072",
     "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881");
    (55, "cef734ba81a024479e09eb5a75b6ddae62e6abf1",
     "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072");
    (56, "901305367c259952f4e7af8323f480d59f81335b",
     "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e");
    (57, "025ecbd5d70f8fb3c5457cd96bab13fda305dc59",
     "ae14a2563ccf969d99aca69ce6bb74981f734bbf9f655f73b8f06db68cab5217");
    (63, "0ddc4e0cccd9a12850deb5abb0853a4425559fec",
     "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2");
    (64, "bb2fa3ee7afb9f54c6dfb5d021f14b1ffe40c163",
     "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c");
    (65, "78c741ddc482e4cdf8c474a0876347a0905b6233",
     "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9");
    (119, "4300320394f7ee239bcdce7d3b8bcee173a0cd5c",
     "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c");
    (120, "ceb2821639c4b6dcb10bce0e522ca2e608ce056d",
     "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98");
  ]

let test_sha1_length_padding_edges () =
  List.iter
    (fun (n, sha1, _) -> checks (Printf.sprintf "len %d" n) sha1 (Sha1.hex (String.make n 'x')))
    padding_edges

(* --- SHA-256: FIPS 180-4 vectors --- *)

let test_sha256_vectors () =
  checks "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "");
  checks "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc");
  checks "two-block"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_length_padding_edges () =
  List.iter
    (fun (n, _, sha256) ->
      checks (Printf.sprintf "len %d" n) sha256 (Sha256.hex (String.make n 'x')))
    padding_edges

let test_sha256_streaming_equivalence =
  Sha256.(streaming_equivalence ~init ~update ~finalize ~digest)

(* --- HMAC: RFC 2202 / RFC 4231 vectors --- *)

let hex_of s =
  let buf = Buffer.create (String.length s * 2) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let test_hmac_sha1_vectors () =
  checks "rfc2202 case 1" "b617318655057264e28bc0b6fb378c8ef146be00"
    (hex_of (Hmac.sha1 ~key:(String.make 20 '\x0b') "Hi There"));
  checks "rfc2202 case 2" "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
    (hex_of (Hmac.sha1 ~key:"Jefe" "what do ya want for nothing?"))

let test_hmac_sha256_vector () =
  checks "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex_of (Hmac.sha256 ~key:(String.make 20 '\x0b') "Hi There"))

let test_hmac_long_key () =
  (* Keys longer than the block size must be hashed first. *)
  let k = String.make 131 '\xaa' in
  checks "rfc4231 case 6 (sha256)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex_of
       (Hmac.sha256 ~key:k "Test Using Larger Than Block-Size Key - Hash Key First"))

(* Keys around the 64-byte block size: shorter keys are zero-padded,
   longer ones hashed first. Values agree with Python's hmac module. *)
let test_hmac_key_lengths () =
  let msg = "HMAC known answer" in
  List.iter
    (fun (len, sha1, sha256) ->
      let key = String.init len (fun i -> Char.chr (((i * 7) + 1) land 0xff)) in
      checks (Printf.sprintf "sha1 key %d" len) sha1 (hex_of (Hmac.sha1 ~key msg));
      checks (Printf.sprintf "sha256 key %d" len) sha256 (hex_of (Hmac.sha256 ~key msg)))
    [
      (0, "0afafe111860af9c3fa10cbdd77f6dcef8be1ae9",
       "f3705fd15d5d9e2403d6e3700880558d90e8be30a3181ae2d6bafc267c325a27");
      (20, "5e35cb97f03e230ec5756fdef677489c0507b55b",
       "91be401d4e61cc95924c7dc9d543f1fb25ed35c9f9b32fff70ef97917b3a7d4b");
      (63, "1ba3d89daeb36f14782e300df229b90696991cd7",
       "2e85e02f75d7bd5ccfe147c19f2e3dba29b36d02563749a4923136321910b9f1");
      (64, "9c3f84649c6093c2e4c41b1c6b062251e303c868",
       "fa619765f25298093eb97984d89f2e6e80c3ef67b213a42bb7efc97cef9f28b7");
      (65, "ac96951ad2a23ef2bd31fa8264016630c3c76535",
       "7444f105100df0105fb7608a3a5a7e0d4f6e6841839f97742b808fae47a952dd");
      (150, "bc05115e3c2a82f2d28a4e8be088a722bf0801f0",
       "1948233795febc2f9a93a0252ffa788e9658b7db873f09a565abce9c25e5755a");
    ]

let test_constant_time_equal () =
  checkb "equal" true (Hmac.equal_constant_time "abc" "abc");
  checkb "different" false (Hmac.equal_constant_time "abc" "abd");
  checkb "length mismatch" false (Hmac.equal_constant_time "abc" "abcd");
  checkb "empty" true (Hmac.equal_constant_time "" "")

(* --- Bignum: unit tests --- *)

let bn = Alcotest.testable Bignum.pp Bignum.equal

let test_bignum_of_to_int () =
  check bn "zero" Bignum.zero (Bignum.of_int 0);
  checkb "to_int roundtrip" true
    (Bignum.to_int_opt (Bignum.of_int 123456789) = Some 123456789);
  checkb "to_int max_int" true (Bignum.to_int_opt (Bignum.of_int max_int) = Some max_int);
  checkb "to_int overflow" true
    (Bignum.to_int_opt (Bignum.mul (Bignum.of_int max_int) (Bignum.of_int 2)) = None);
  Alcotest.check_raises "negative" (Invalid_argument "Bignum.of_int: negative")
    (fun () -> ignore (Bignum.of_int (-1)))

let test_bignum_hex_roundtrip () =
  let cases = [ "0"; "1"; "ff"; "deadbeef"; "123456789abcdef0123456789abcdef" ] in
  List.iter
    (fun h ->
      checks ("hex " ^ h) h (Bignum.to_hex (Bignum.of_hex h)))
    cases;
  check bn "leading zeros" (Bignum.of_hex "ff") (Bignum.of_hex "00ff")

let test_bignum_bytes_roundtrip () =
  let v = Bignum.of_hex "0102030405060708090a" in
  checks "to_bytes" "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a" (Bignum.to_bytes_be v);
  check bn "of_bytes" v (Bignum.of_bytes_be (Bignum.to_bytes_be v));
  checks "padded" "\x00\x00\x01" (Bignum.to_bytes_be ~pad_to:3 Bignum.one);
  Alcotest.check_raises "pad too small"
    (Invalid_argument "Bignum.to_bytes_be: value exceeds pad_to") (fun () ->
      ignore (Bignum.to_bytes_be ~pad_to:1 (Bignum.of_hex "ffff")))

let test_bignum_sub_negative () =
  Alcotest.check_raises "negative result"
    (Invalid_argument "Bignum.sub: negative result") (fun () ->
      ignore (Bignum.sub Bignum.one Bignum.two))

let test_bignum_division_cases () =
  let a = Bignum.of_hex "ffffffffffffffffffffffffffffffffff" in
  let q, r = Bignum.divmod a (Bignum.of_int 1) in
  check bn "div by 1" a q;
  check bn "rem by 1" Bignum.zero r;
  let q, r = Bignum.divmod Bignum.one a in
  check bn "small / large" Bignum.zero q;
  check bn "small mod large" Bignum.one r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bignum.divmod a Bignum.zero))

let test_bignum_shifts () =
  let v = Bignum.of_hex "1234" in
  check bn "shl 0" v (Bignum.shift_left v 0);
  check bn "shl 4" (Bignum.of_hex "12340") (Bignum.shift_left v 4);
  check bn "shr 4" (Bignum.of_hex "123") (Bignum.shift_right v 4);
  check bn "shr beyond" Bignum.zero (Bignum.shift_right v 100);
  check bn "shl across limbs"
    (Bignum.of_hex "48d000000000000000")
    (Bignum.shift_left v 58)

let test_bignum_bit_ops () =
  Alcotest.(check int) "bitlen 0" 0 (Bignum.bit_length Bignum.zero);
  Alcotest.(check int) "bitlen 1" 1 (Bignum.bit_length Bignum.one);
  Alcotest.(check int) "bitlen 0x100" 9 (Bignum.bit_length (Bignum.of_hex "100"));
  checkb "testbit" true (Bignum.test_bit (Bignum.of_int 5) 0);
  checkb "testbit clear" false (Bignum.test_bit (Bignum.of_int 5) 1);
  checkb "testbit high" true (Bignum.test_bit (Bignum.of_int 5) 2)

let test_bignum_modpow_known () =
  let m = Bignum.of_int 1000000007 in
  (* Fermat: 2^(p-1) = 1 mod p for prime p (odd -> Montgomery path). *)
  check bn "fermat"
    Bignum.one
    (Bignum.mod_pow ~base:Bignum.two ~exp:(Bignum.sub m Bignum.one) ~m);
  (* Even modulus exercises the non-Montgomery path. *)
  check bn "even modulus"
    (Bignum.of_int 6)
    (Bignum.mod_pow ~base:(Bignum.of_int 6) ~exp:Bignum.one ~m:(Bignum.of_int 10));
  check bn "exp zero" Bignum.one
    (Bignum.mod_pow ~base:(Bignum.of_int 12345) ~exp:Bignum.zero ~m);
  check bn "mod one" Bignum.zero
    (Bignum.mod_pow ~base:Bignum.two ~exp:Bignum.two ~m:Bignum.one)

let test_bignum_mod_inverse () =
  (match Bignum.mod_inverse (Bignum.of_int 3) ~m:(Bignum.of_int 7) with
  | Some i -> check bn "3^-1 mod 7" (Bignum.of_int 5) i
  | None -> Alcotest.fail "inverse should exist");
  checkb "no inverse when gcd > 1" true
    (Bignum.mod_inverse (Bignum.of_int 4) ~m:(Bignum.of_int 8) = None);
  checkb "mod 1" true (Bignum.mod_inverse Bignum.two ~m:Bignum.one = None)

let test_bignum_gcd () =
  check bn "gcd(12,18)" (Bignum.of_int 6)
    (Bignum.gcd (Bignum.of_int 12) (Bignum.of_int 18));
  check bn "gcd with zero" (Bignum.of_int 5) (Bignum.gcd (Bignum.of_int 5) Bignum.zero)

(* --- Bignum: qcheck ring laws --- *)

(* Random naturals of up to 67 limbs (2,077 bits), built limb by limb with
   [shift_left] and [add] so the conversions under test play no part.
   One limb in three is a boundary value: zero, all ones, or next to 2^30,
   where Algorithm D's normalising shift is 0 or 1 bit. *)
let boundary_limbs =
  [| 0; 1; 2; (1 lsl 30) - 1; 1 lsl 30; (1 lsl 30) + 1; (1 lsl 31) - 2; (1 lsl 31) - 1 |]

let gen_limb =
  QCheck.Gen.(frequency [ (1, oneofa boundary_limbs); (2, int_bound ((1 lsl 31) - 1)) ])

let of_limbs limbs =
  List.fold_left
    (fun acc l -> Bignum.add (Bignum.shift_left acc 31) (Bignum.of_int l))
    Bignum.zero limbs

let gen_limbs n = QCheck.Gen.map of_limbs (QCheck.Gen.list_repeat n gen_limb)
let gen_bignum = QCheck.Gen.(int_range 0 67 >>= gen_limbs)
let arb_bignum = QCheck.make ~print:Bignum.to_hex gen_bignum

let prop_add_comm =
  QCheck.Test.make ~name:"bignum add commutes" ~count:300
    (QCheck.pair arb_bignum arb_bignum) (fun (a, b) ->
      Bignum.equal (Bignum.add a b) (Bignum.add b a))

let prop_add_assoc =
  QCheck.Test.make ~name:"bignum add associates" ~count:300
    (QCheck.triple arb_bignum arb_bignum arb_bignum) (fun (a, b, c) ->
      Bignum.equal
        (Bignum.add (Bignum.add a b) c)
        (Bignum.add a (Bignum.add b c)))

let prop_mul_comm =
  QCheck.Test.make ~name:"bignum mul commutes" ~count:200
    (QCheck.pair arb_bignum arb_bignum) (fun (a, b) ->
      Bignum.equal (Bignum.mul a b) (Bignum.mul b a))

let prop_distributive =
  QCheck.Test.make ~name:"bignum mul distributes over add" ~count:200
    (QCheck.triple arb_bignum arb_bignum arb_bignum) (fun (a, b, c) ->
      Bignum.equal
        (Bignum.mul a (Bignum.add b c))
        (Bignum.add (Bignum.mul a b) (Bignum.mul a c)))

let prop_divmod_identity =
  QCheck.Test.make ~name:"a = (a/b)*b + a mod b, with a mod b < b" ~count:300
    (QCheck.pair arb_bignum arb_bignum) (fun (a, b) ->
      QCheck.assume (not (Bignum.is_zero b));
      let q, r = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0)

let prop_sub_add_roundtrip =
  QCheck.Test.make ~name:"(a+b)-b = a" ~count:300
    (QCheck.pair arb_bignum arb_bignum) (fun (a, b) ->
      Bignum.equal a (Bignum.sub (Bignum.add a b) b))

let prop_shift_mul =
  QCheck.Test.make ~name:"a << k = a * 2^k" ~count:200
    (QCheck.pair arb_bignum (QCheck.int_bound 100)) (fun (a, k) ->
      Bignum.equal (Bignum.shift_left a k)
        (Bignum.mul a (Bignum.mod_pow ~base:Bignum.two ~exp:(Bignum.of_int k)
                         ~m:(Bignum.shift_left Bignum.one 200))))

let prop_modpow_matches_naive =
  QCheck.Test.make ~name:"Montgomery mod_pow matches naive square-multiply"
    ~count:100
    (QCheck.triple (QCheck.int_range 2 10_000) (QCheck.int_range 0 50)
       (QCheck.int_range 3 10_000))
    (fun (base, e, m) ->
      let m = if m mod 2 = 0 then m + 1 else m in
      let naive =
        let rec go acc k = if k = 0 then acc else go (acc * base mod m) (k - 1) in
        go 1 e
      in
      let fast =
        Bignum.mod_pow ~base:(Bignum.of_int base) ~exp:(Bignum.of_int e)
          ~m:(Bignum.of_int m)
      in
      Bignum.to_int_opt fast = Some naive)

let prop_mod_inverse_correct =
  QCheck.Test.make ~name:"mod_inverse: a * a^-1 = 1 (mod m)" ~count:200
    (QCheck.pair (QCheck.int_range 1 100_000) (QCheck.int_range 3 100_000))
    (fun (a, m) ->
      let a = Bignum.of_int a and m = Bignum.of_int m in
      match Bignum.mod_inverse a ~m with
      | None -> not (Bignum.equal (Bignum.gcd a m) Bignum.one)
      | Some inv -> Bignum.equal (Bignum.mod_mul a inv ~m) (Bignum.rem Bignum.one m))

(* --- Bignum: multi-limb division, Montgomery and conversions --- *)

(* Divisors of exactly 1, 2 or k limbs under a dividend of up to 67. *)
let arb_division =
  let open QCheck.Gen in
  let gen =
    int_range 1 67 >>= fun la ->
    oneof [ return 1; return 2; int_range 1 la ] >>= fun lb ->
    pair (gen_limbs la) (gen_limbs lb)
  in
  QCheck.make ~print:(fun (a, b) -> Bignum.to_hex a ^ " / " ^ Bignum.to_hex b) gen

let prop_divmod_limb_lengths =
  QCheck.Test.make ~name:"divmod identity, divisors of 1, 2 and k limbs" ~count:500
    arb_division (fun (a, b) ->
      QCheck.assume (not (Bignum.is_zero b));
      let q, r = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0)

let prop_rem_int =
  QCheck.Test.make ~name:"rem_int equals rem by a one-limb divisor" ~count:500
    QCheck.(pair arb_bignum (int_range 1 ((1 lsl 31) - 1)))
    (fun (a, d) -> Some (Bignum.rem_int a d) = Bignum.to_int_opt (Bignum.rem a (Bignum.of_int d)))

(* Restoring binary long division, one quotient bit at a time. *)
let reference_divmod a b =
  let open Bignum in
  let q = ref zero and r = ref zero in
  for i = bit_length a - 1 downto 0 do
    r := add (shift_left !r 1) (if test_bit a i then one else zero);
    q := shift_left !q 1;
    if compare !r b >= 0 then begin
      r := sub !r b;
      q := add !q one
    end
  done;
  (!q, !r)

let test_bignum_knuth_corrections () =
  (* With 31-bit limbs, the first three make Algorithm D lower a trial
     quotient digit after the second-limb test; the last three leave it
     one too large, so the step must add the divisor back. *)
  List.iter
    (fun (a, b) ->
      let a = Bignum.of_hex a and b = Bignum.of_hex b in
      let q, r = Bignum.divmod a b in
      let q', r' = reference_divmod a b in
      check bn ("quotient " ^ Bignum.to_hex a) q' q;
      check bn ("remainder " ^ Bignum.to_hex a) r' r)
    [
      ("100000005b5e3bb300000001", "100000001");
      ("100000001fffffffc0000001", "20000000bfffffff");
      ("85fb8456000000000000000", "200000003a7f8004");
      ("fffffffc0000000c00000007fffffff", "7ffffffe000000060000000a079cc36");
      ("7fffffff00000001fffffff7fffffff00000002", "ffffffff00000003");
      ("20000000000000000000000000000003fffffff7ffffffe", "20000000800000007ffffffe");
    ]

let arb_modpow_multilimb =
  let open QCheck.Gen in
  let odd m = if Bignum.test_bit m 0 then m else Bignum.add m Bignum.one in
  let gen =
    triple gen_bignum (int_range 0 4 >>= gen_limbs) (map odd (int_range 2 67 >>= gen_limbs))
  in
  QCheck.make
    ~print:(fun (b, e, m) -> String.concat " " (List.map Bignum.to_hex [ b; e; m ]))
    gen

let prop_modpow_multilimb =
  QCheck.Test.make ~name:"mod_pow matches mod_mul square-multiply, odd multi-limb m"
    ~count:60 arb_modpow_multilimb (fun (base, exp, m) ->
      let acc = ref (Bignum.rem Bignum.one m) and b = ref (Bignum.rem base m) in
      for i = 0 to Bignum.bit_length exp - 1 do
        if Bignum.test_bit exp i then acc := Bignum.mod_mul !acc !b ~m;
        b := Bignum.mod_mul !b !b ~m
      done;
      Bignum.equal !acc (Bignum.mod_pow ~base ~exp ~m))

let test_bignum_conversions_all_lengths () =
  let d = Drbg.create ~seed:"bignum-conversions" in
  let strip c s =
    let i = ref 0 in
    while !i < String.length s && s.[!i] = c do incr i done;
    String.sub s !i (String.length s - !i)
  in
  for len = 0 to 300 do
    let random = Drbg.generate_string d len in
    List.iter
      (fun s ->
        let v = Bignum.of_bytes_be s in
        let expected =
          String.fold_left
            (fun acc c -> Bignum.add (Bignum.shift_left acc 8) (Bignum.of_int (Char.code c)))
            Bignum.zero s
        in
        let label = Printf.sprintf "%d bytes %s" len (hex_of (String.sub s 0 (min 4 len))) in
        check bn ("of_bytes_be " ^ label) expected v;
        if len > 0 then checks ("pad_to " ^ label) s (Bignum.to_bytes_be ~pad_to:len v);
        let minimal = match strip '\000' s with "" -> "\000" | m -> m in
        checks ("to_bytes_be " ^ label) minimal (Bignum.to_bytes_be v);
        let h = match strip '0' (hex_of s) with "" -> "0" | h -> h in
        checks ("to_hex " ^ label) h (Bignum.to_hex v);
        check bn ("of_hex " ^ label) v (Bignum.of_hex (String.uppercase_ascii (hex_of s))))
      [
        random;
        String.make len '\xff';
        (if len = 0 then "" else "\000" ^ String.sub random 1 (len - 1));
        (if len < 2 then random else "\000\000" ^ String.sub random 2 (len - 2));
      ]
  done

(* --- RSA --- *)

let drbg () = Drbg.create ~seed:"test-crypto-rsa"

let test_rsa_sign_verify () =
  let key = Rsa.generate ~bits:512 (drbg ()) in
  let msg = "attestation payload" in
  let s = Rsa.sign key msg in
  Alcotest.(check int) "signature length" (Rsa.key_bytes key.Rsa.pub) (String.length s);
  checkb "verifies" true (Rsa.verify key.Rsa.pub ~msg ~signature:s);
  checkb "wrong message" false (Rsa.verify key.Rsa.pub ~msg:"other" ~signature:s);
  let tampered = String.mapi (fun i c -> if i = 5 then Char.chr (Char.code c lxor 1) else c) s in
  checkb "tampered signature" false (Rsa.verify key.Rsa.pub ~msg ~signature:tampered);
  checkb "wrong length" false (Rsa.verify key.Rsa.pub ~msg ~signature:"short")

let test_rsa_encrypt_decrypt () =
  let d = drbg () in
  let key = Rsa.generate ~bits:512 d in
  let pt = "seal me" in
  let ct = Rsa.encrypt key.Rsa.pub d pt in
  checkb "decrypts" true (Rsa.decrypt key ct = Some pt);
  let other = Rsa.generate ~bits:512 d in
  checkb "wrong key fails" true (Rsa.decrypt other ct = None);
  let tampered =
    String.mapi (fun i c -> if i = 10 then Char.chr (Char.code c lxor 1) else c) ct
  in
  (* Tampered ciphertext: padding check almost surely fails, and even if it
     decodes, the plaintext must differ. *)
  checkb "tampered ciphertext" true (Rsa.decrypt key tampered <> Some pt)

let test_rsa_encrypt_limits () =
  let d = drbg () in
  let key = Rsa.generate ~bits:512 d in
  let max = Rsa.max_plaintext key.Rsa.pub in
  Alcotest.(check int) "max payload" (64 - 11) max;
  let big = String.make (max + 1) 'x' in
  Alcotest.check_raises "too long" (Invalid_argument "Rsa.encrypt: plaintext too long")
    (fun () -> ignore (Rsa.encrypt key.Rsa.pub d big));
  let edge = String.make max 'x' in
  checkb "exactly max roundtrips" true
    (Rsa.decrypt key (Rsa.encrypt key.Rsa.pub d edge) = Some edge);
  checkb "empty roundtrips" true (Rsa.decrypt key (Rsa.encrypt key.Rsa.pub d "") = Some "")

let test_rsa_deterministic_from_seed () =
  let k1 = Rsa.generate ~bits:256 (Drbg.create ~seed:"same") in
  let k2 = Rsa.generate ~bits:256 (Drbg.create ~seed:"same") in
  checkb "same seed, same key" true (Bignum.equal k1.Rsa.pub.Rsa.n k2.Rsa.pub.Rsa.n);
  let k3 = Rsa.generate ~bits:256 (Drbg.create ~seed:"different") in
  checkb "different seed, different key" false
    (Bignum.equal k1.Rsa.pub.Rsa.n k3.Rsa.pub.Rsa.n)

let test_rsa_modulus_size () =
  List.iter
    (fun bits ->
      let k = Rsa.generate ~bits (drbg ()) in
      Alcotest.(check int)
        (Printf.sprintf "%d-bit modulus" bits)
        bits
        (Bignum.bit_length k.Rsa.pub.Rsa.n))
    [ 64; 128; 512 ]

let test_miller_rabin () =
  let d = drbg () in
  let prime p = Rsa.is_probable_prime (Bignum.of_int p) ~rounds:10 d in
  List.iter (fun p -> checkb (Printf.sprintf "%d prime" p) true (prime p))
    [ 2; 3; 5; 101; 251; 257; 65537; 1000003 ];
  List.iter (fun c -> checkb (Printf.sprintf "%d composite" c) false (prime c))
    [ 1; 4; 100; 255; 65535; 1000001; 561 (* Carmichael *); 8911 ];
  (* Every n up to just past 251², where trial division alone decides. *)
  let rec naive n p = p * p > n || (n mod p <> 0 && naive n (p + 1)) in
  for n = 0 to (251 * 251) + 100 do
    if prime n <> (n >= 2 && naive n 2) then Alcotest.failf "%d misclassified" n
  done

(* Known answers captured with the bit-serial division and the plain
   (non-CRT) private exponentiation of the earlier arithmetic: keys,
   signatures and sealed blobs must not move. *)
let test_rsa_known_answers () =
  let msg = "known-answer message" in
  let sig_digest label bits = Sha256.hex (Rsa.sign (Keyvault.get ~label ~bits) msg) in
  checks "privacy-ca/2048 signature"
    "3ecd54e2695ec645ef48dbfeaf1c54d50ef43af7558da350b74a0a20acaeb454"
    (sig_digest "privacy-ca" 2048);
  checks "srk:Broadcom/512 signature"
    "9349dc2f9b2e030639d2853abd360ce12d7aa0e8adec0fee2af0653f4445b505"
    (sig_digest "srk:Broadcom" 512);
  checks "vtpm:0/512 modulus"
    "cbdfbb88947d169497e169bd4b532215729222db4a346f38f573dea48cfecd4c23a73de9b30bc2c191c5d3de6beca5767bd9cd1dbffca0653771df837ba42b3f"
    (Bignum.to_hex (Keyvault.get ~label:"vtpm:0" ~bits:512).Rsa.pub.Rsa.n);
  let srk = Keyvault.get ~label:"srk:Broadcom" ~bits:512 in
  let ct =
    Bignum.to_bytes_be
      (Bignum.of_hex
         "686f9ff5f9c6c972bfaea274ddecfdb61e10b1cede30fb22c97ac16b62b70b01c1e11c95372c6976b5fd866a3804473391df6790db93665eb92561401463155c")
  in
  checks "sealed blob" ct
    (Rsa.encrypt srk.Rsa.pub (Drbg.create ~seed:"known-answer") "sealed secret");
  checkb "plaintext" true (Rsa.decrypt srk ct = Some "sealed secret")

(* sign and decrypt go through CRT; the plain private exponentiation
   c^d mod n must give the same bytes. *)
let prop_rsa_crt_matches_plain =
  QCheck.Test.make ~name:"CRT sign/decrypt equal mod_pow ~exp:d" ~count:8
    QCheck.(pair small_nat (oneofl [ 384; 512 ]))
    (fun (seed, bits) ->
      let key = Rsa.generate ~bits (Drbg.create ~seed:(Printf.sprintf "crt-%d" seed)) in
      let { Rsa.n; e; _ } = key.Rsa.pub in
      let k = Rsa.key_bytes key.Rsa.pub in
      let plain c = Bignum.to_bytes_be ~pad_to:k (Bignum.mod_pow ~base:c ~exp:key.Rsa.d ~m:n) in
      (* EMSA-PKCS1-v1_5 with the SHA-1 DigestInfo (RFC 8017, 9.2). *)
      let msg = Printf.sprintf "message %d" seed in
      let t = "\x30\x21\x30\x09\x06\x05\x2b\x0e\x03\x02\x1a\x05\x00\x04\x14" ^ Sha1.digest msg in
      let em = "\x00\x01" ^ String.make (k - String.length t - 3) '\xff' ^ "\x00" ^ t in
      let signs_alike = Rsa.sign key msg = plain (Bignum.of_bytes_be em) in
      let ct = Rsa.encrypt key.Rsa.pub (Drbg.create ~seed:msg) msg in
      let em' = plain (Bignum.of_bytes_be ct) in
      let decrypts_alike =
        Bignum.equal (Bignum.of_bytes_be ct)
          (Bignum.mod_pow ~base:(Bignum.of_bytes_be em') ~exp:e ~m:n)
        && Rsa.decrypt key ct = Some msg
        && String.sub em' (k - String.length msg) (String.length msg) = msg
      in
      signs_alike && decrypts_alike)

(* --- DRBG --- *)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:"s" and b = Drbg.create ~seed:"s" in
  checks "same stream" (Drbg.generate_string a 64) (Drbg.generate_string b 64);
  checkb "stream advances" true
    (Drbg.generate_string a 16 <> Drbg.generate_string a 16)

let test_drbg_seed_and_reseed () =
  let a = Drbg.create ~seed:"s1" and b = Drbg.create ~seed:"s2" in
  checkb "different seeds" true
    (Drbg.generate_string a 32 <> Drbg.generate_string b 32);
  let c = Drbg.create ~seed:"s1" and d = Drbg.create ~seed:"s1" in
  ignore (Drbg.generate_string c 32);
  ignore (Drbg.generate_string d 32);
  Drbg.reseed c "extra entropy";
  checkb "reseed diverges" true
    (Drbg.generate_string c 32 <> Drbg.generate_string d 32)

let test_drbg_output_sizes () =
  let d = Drbg.create ~seed:"sz" in
  List.iter
    (fun n -> Alcotest.(check int) (Printf.sprintf "%d bytes" n) n
        (String.length (Drbg.generate_string d n)))
    [ 1; 31; 32; 33; 100; 1000 ]

(* Every key, sealed blob and nonce derives from this generator, and
   virtual time does not depend on their bytes, so this pin is what
   catches a drifting stream: draws of 0-130 bytes, each followed by a
   1-byte draw, with a reseed every 13 draws. *)
let test_drbg_known_stream () =
  let d = Drbg.create ~seed:"drbg known-answer stream" in
  let buf = Buffer.create 8646 in
  for n = 0 to 130 do
    Buffer.add_string buf (Drbg.generate_string d n);
    Buffer.add_string buf (Drbg.generate_string d 1);
    if n mod 13 = 0 then Drbg.reseed d (Printf.sprintf "reseed %d" n)
  done;
  let stream = Buffer.contents buf in
  checks "first 32 bytes"
    "80b1778c728d6cf5e08cb6a588bd14f8e56976261487dd6c31d4b81c3879dd23"
    (hex_of (String.sub stream 0 32));
  checks "stream digest"
    "b1cd2b1819fa76f91f56bca672c5621ccb7e4cf4f7fb9bb474357f615d74cba0"
    (Sha256.hex stream)

(* --- AEAD --- *)

let test_aead_roundtrip () =
  let key = String.make Aead.key_size 'k' and nonce = String.make Aead.nonce_size 'n' in
  let pt = "PAL state to protect across a context switch" in
  let ct = Aead.encrypt ~key ~nonce pt in
  Alcotest.(check int) "overhead" (String.length pt + Aead.overhead) (String.length ct);
  checkb "roundtrip" true (Aead.decrypt ~key ~nonce ct = Some pt);
  checkb "empty plaintext" true
    (Aead.decrypt ~key ~nonce (Aead.encrypt ~key ~nonce "") = Some "")

let test_aead_tamper_detect () =
  let key = String.make Aead.key_size 'k' and nonce = String.make Aead.nonce_size 'n' in
  let ct = Aead.encrypt ~key ~nonce "secret" in
  for i = 0 to String.length ct - 1 do
    let t = String.mapi (fun j c -> if i = j then Char.chr (Char.code c lxor 1) else c) ct in
    checkb (Printf.sprintf "bit flip at %d detected" i) true
      (Aead.decrypt ~key ~nonce t = None)
  done

let test_aead_wrong_key_nonce () =
  let key = String.make Aead.key_size 'k' and nonce = String.make Aead.nonce_size 'n' in
  let ct = Aead.encrypt ~key ~nonce "secret" in
  checkb "wrong key" true
    (Aead.decrypt ~key:(String.make Aead.key_size 'x') ~nonce ct = None);
  checkb "wrong nonce" true
    (Aead.decrypt ~key ~nonce:(String.make Aead.nonce_size 'x') ct = None);
  checkb "truncated" true (Aead.decrypt ~key ~nonce "short" = None);
  Alcotest.check_raises "bad key size" (Invalid_argument "Aead: bad key size")
    (fun () -> ignore (Aead.encrypt ~key:"short" ~nonce "x"))

let prop_aead_roundtrip =
  QCheck.Test.make ~name:"AEAD roundtrips arbitrary payloads" ~count:100
    QCheck.(string_of_size (QCheck.Gen.int_bound 2048))
    (fun pt ->
      let key = Sha256.digest "k" and nonce = String.sub (Sha256.digest "n") 0 16 in
      Aead.decrypt ~key ~nonce (Aead.encrypt ~key ~nonce pt) = Some pt)

(* --- Wire --- *)

let test_wire_roundtrip () =
  let enc = Wire.encoder () in
  Wire.add_string enc "hello";
  Wire.add_int enc 123456789;
  Wire.add_list enc (fun x -> Wire.add_string enc x) [ "a"; "bb"; "" ];
  let d = Wire.decoder (Wire.contents enc) in
  checkb "string" true (Wire.read_string d = Some "hello");
  checkb "int" true (Wire.read_int d = Some 123456789);
  checkb "list" true (Wire.read_list d (fun () -> Wire.read_string d) = Some [ "a"; "bb"; "" ]);
  checkb "at end" true (Wire.at_end d)

let test_wire_malformed_is_total () =
  (* Arbitrary junk must decode to None, never raise. *)
  List.iter
    (fun junk ->
      let d = Wire.decoder junk in
      ignore (Wire.read_string d);
      let d = Wire.decoder junk in
      ignore (Wire.read_int d);
      let d = Wire.decoder junk in
      ignore (Wire.read_list d (fun () -> Wire.read_string d)))
    [ ""; "\xff"; "\xff\xff\xff\xff"; "\x00\x00\x00\x10abc"; String.make 3 '\x00' ];
  checkb "truncated string" true (Wire.read_string (Wire.decoder "\x00\x00\x00\x05ab") = None);
  checkb "short int" true (Wire.read_int (Wire.decoder "\x00\x00\x00") = None);
  checkb "huge count rejected" true
    (Wire.read_list (Wire.decoder "\x7f\xff\xff\xff") (fun () -> Some ()) = None)

let prop_wire_string_roundtrip =
  QCheck.Test.make ~name:"wire string roundtrip" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_bound 300))
    (fun s ->
      let enc = Wire.encoder () in
      Wire.add_string enc s;
      Wire.read_string (Wire.decoder (Wire.contents enc)) = Some s)

(* --- Keyvault --- *)

let test_keyvault_memoizes () =
  let a = Keyvault.get ~label:"test-kv" ~bits:256 in
  let b = Keyvault.get ~label:"test-kv" ~bits:256 in
  checkb "same object" true (a == b);
  let c = Keyvault.get ~label:"test-kv-2" ~bits:256 in
  checkb "distinct labels distinct keys" false
    (Bignum.equal a.Rsa.pub.Rsa.n c.Rsa.pub.Rsa.n)

(* The 512-bit keys a vTPM host generates at start-up: 32 vTPM keys and
   the SRK/AIK pair, one SHA-256 over their moduli in hex. *)
let test_keyvault_generated_moduli () =
  let labels =
    List.init 32 (fun i -> "vtpm:" ^ string_of_int i) @ [ "srk:Broadcom"; "aik:Broadcom" ]
  in
  let moduli =
    List.map (fun label -> Bignum.to_hex (Keyvault.get ~label ~bits:512).Rsa.pub.Rsa.n) labels
  in
  checks "moduli digest"
    "f50b9fa5b40d6ea5ff3362bd3abd246675146f185f5502bd747da927bcebfd61"
    (Sha256.hex (String.concat "\n" moduli))

(* Keeps key generation under test now that start-up reads these keys
   from the table: every 512-bit entry must be exactly what the labelled
   derivation draws. *)
let test_keyvault_table_regenerates () =
  let entries = List.filter (fun (_, bits, _) -> bits = 512) Embedded_keys.table in
  checkb "512-bit entries present" true (entries <> []);
  List.iter
    (fun (label, bits, (p, q)) ->
      let key = Keyvault.generate ~label ~bits in
      checks (label ^ " p") p (Bignum.to_hex key.Rsa.p);
      checks (label ^ " q") q (Bignum.to_hex key.Rsa.q))
    entries

let test_keyvault_embedded () =
  (* The embedded 2048-bit keys must load fast and be valid signing keys. *)
  let t0 = Unix.gettimeofday () in
  let k = Keyvault.get ~label:"privacy-ca" ~bits:2048 in
  let elapsed = Unix.gettimeofday () -. t0 in
  checkb "loads without generation" true (elapsed < 1.0);
  Alcotest.(check int) "2048 bits" 2048 (Bignum.bit_length k.Rsa.pub.Rsa.n);
  let s = Rsa.sign k "check" in
  checkb "valid key" true (Rsa.verify k.Rsa.pub ~msg:"check" ~signature:s)

let () =
  Alcotest.run "crypto"
    [
      ( "sha1",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha1_vectors;
          Alcotest.test_case "streaming equivalence" `Quick test_sha1_streaming_equivalence;
          Alcotest.test_case "padding edge lengths" `Quick test_sha1_length_padding_edges;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "streaming equivalence" `Quick test_sha256_streaming_equivalence;
          Alcotest.test_case "padding edge lengths" `Quick test_sha256_length_padding_edges;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "HMAC-SHA1 RFC2202" `Quick test_hmac_sha1_vectors;
          Alcotest.test_case "HMAC-SHA256 RFC4231" `Quick test_hmac_sha256_vector;
          Alcotest.test_case "long key" `Quick test_hmac_long_key;
          Alcotest.test_case "key lengths around the block size" `Quick test_hmac_key_lengths;
          Alcotest.test_case "constant-time equality" `Quick test_constant_time_equal;
        ] );
      ( "bignum",
        [
          Alcotest.test_case "of/to int" `Quick test_bignum_of_to_int;
          Alcotest.test_case "hex roundtrip" `Quick test_bignum_hex_roundtrip;
          Alcotest.test_case "bytes roundtrip" `Quick test_bignum_bytes_roundtrip;
          Alcotest.test_case "sub underflow" `Quick test_bignum_sub_negative;
          Alcotest.test_case "division cases" `Quick test_bignum_division_cases;
          Alcotest.test_case "shifts" `Quick test_bignum_shifts;
          Alcotest.test_case "bit operations" `Quick test_bignum_bit_ops;
          Alcotest.test_case "mod_pow known values" `Quick test_bignum_modpow_known;
          Alcotest.test_case "mod_inverse" `Quick test_bignum_mod_inverse;
          Alcotest.test_case "gcd" `Quick test_bignum_gcd;
          QCheck_alcotest.to_alcotest prop_add_comm;
          QCheck_alcotest.to_alcotest prop_add_assoc;
          QCheck_alcotest.to_alcotest prop_mul_comm;
          QCheck_alcotest.to_alcotest prop_distributive;
          QCheck_alcotest.to_alcotest prop_divmod_identity;
          QCheck_alcotest.to_alcotest prop_sub_add_roundtrip;
          QCheck_alcotest.to_alcotest prop_shift_mul;
          QCheck_alcotest.to_alcotest prop_modpow_matches_naive;
          QCheck_alcotest.to_alcotest prop_mod_inverse_correct;
          QCheck_alcotest.to_alcotest prop_divmod_limb_lengths;
          QCheck_alcotest.to_alcotest prop_rem_int;
          Alcotest.test_case "Knuth D corrections and add-back" `Quick
            test_bignum_knuth_corrections;
          QCheck_alcotest.to_alcotest prop_modpow_multilimb;
          Alcotest.test_case "byte and hex conversions, 0-300 bytes" `Quick
            test_bignum_conversions_all_lengths;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "sign/verify" `Quick test_rsa_sign_verify;
          Alcotest.test_case "encrypt/decrypt" `Quick test_rsa_encrypt_decrypt;
          Alcotest.test_case "payload limits" `Quick test_rsa_encrypt_limits;
          Alcotest.test_case "deterministic from seed" `Quick test_rsa_deterministic_from_seed;
          Alcotest.test_case "modulus size" `Quick test_rsa_modulus_size;
          Alcotest.test_case "Miller-Rabin" `Quick test_miller_rabin;
          Alcotest.test_case "known answers" `Quick test_rsa_known_answers;
          QCheck_alcotest.to_alcotest prop_rsa_crt_matches_plain;
        ] );
      ( "drbg",
        [
          Alcotest.test_case "deterministic" `Quick test_drbg_deterministic;
          Alcotest.test_case "seed and reseed" `Quick test_drbg_seed_and_reseed;
          Alcotest.test_case "output sizes" `Quick test_drbg_output_sizes;
          Alcotest.test_case "known-answer stream" `Quick test_drbg_known_stream;
        ] );
      ( "aead",
        [
          Alcotest.test_case "roundtrip" `Quick test_aead_roundtrip;
          Alcotest.test_case "tamper detection" `Quick test_aead_tamper_detect;
          Alcotest.test_case "wrong key/nonce" `Quick test_aead_wrong_key_nonce;
          QCheck_alcotest.to_alcotest prop_aead_roundtrip;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "malformed input is total" `Quick test_wire_malformed_is_total;
          QCheck_alcotest.to_alcotest prop_wire_string_roundtrip;
        ] );
      ( "keyvault",
        [
          Alcotest.test_case "memoization" `Quick test_keyvault_memoizes;
          Alcotest.test_case "embedded 2048-bit keys" `Quick test_keyvault_embedded;
          Alcotest.test_case "generated 512-bit moduli" `Quick test_keyvault_generated_moduli;
          Alcotest.test_case "512-bit table regenerates" `Quick
            test_keyvault_table_regenerates;
        ] );
    ]
