(* Tests for the crypto substrate: hash functions against FIPS/RFC
   vectors, bignum arithmetic laws (unit + property), primality, RSA,
   Merkle trees, the PRNG and the signature-scheme wrapper. *)

open Secrep_crypto

let check = Alcotest.check
let string_t = Alcotest.string
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------------- SHA-1 ---------------- *)

let sha1_vectors =
  [
    ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
    ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1" );
    ("The quick brown fox jumps over the lazy dog", "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
  ]

let test_sha1_vectors () =
  List.iter
    (fun (msg, expected) -> check string_t ("sha1 of " ^ msg) expected (Sha1.hex_digest msg))
    sha1_vectors

let test_sha1_million_a () =
  let msg = String.make 1_000_000 'a' in
  check string_t "sha1 of 10^6 a's" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.hex_digest msg)

let test_sha1_length () = check int_t "digest size" 20 (String.length (Sha1.digest "x"))

let test_sha1_block_boundaries () =
  (* Messages straddling the 55/56/63/64/65-byte padding boundaries
     must match one-shot hashing of the same bytes. *)
  List.iter
    (fun n ->
      let msg = String.init n (fun i -> Char.chr (i land 0xff)) in
      let ctx = Sha1.init () in
      String.iter (fun c -> Sha1.feed ctx (String.make 1 c)) msg;
      check string_t
        (Printf.sprintf "incremental vs one-shot at %d bytes" n)
        (Hex.encode (Sha1.digest msg))
        (Hex.encode (Sha1.finalize ctx)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 127; 128; 129; 1000 ]

let prop_sha1_incremental =
  qtest "sha1: arbitrary chunking equals one-shot"
    QCheck2.Gen.(pair string (int_bound 7))
    (fun (msg, chunk0) ->
      let chunk = chunk0 + 1 in
      let ctx = Sha1.init () in
      let n = String.length msg in
      let rec go i =
        if i < n then begin
          let len = min chunk (n - i) in
          Sha1.feed ctx (String.sub msg i len);
          go (i + len)
        end
      in
      go 0;
      String.equal (Sha1.finalize ctx) (Sha1.digest msg))

(* ---------------- SHA-256 ---------------- *)

let sha256_vectors =
  [
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (msg, expected) ->
      check string_t ("sha256 of " ^ msg) expected (Sha256.hex_digest msg))
    sha256_vectors

let test_sha256_length () = check int_t "digest size" 32 (String.length (Sha256.digest "x"))

let prop_sha256_incremental =
  qtest "sha256: arbitrary chunking equals one-shot"
    QCheck2.Gen.(pair string (int_bound 7))
    (fun (msg, chunk0) ->
      let chunk = chunk0 + 1 in
      let ctx = Sha256.init () in
      let n = String.length msg in
      let rec go i =
        if i < n then begin
          let len = min chunk (n - i) in
          Sha256.feed ctx (String.sub msg i len);
          go (i + len)
        end
      in
      go 0;
      String.equal (Sha256.finalize ctx) (Sha256.digest msg))

(* ---------------- SHA kernels vs the replaced kernels ---------------- *)

(* The SHA-1 and SHA-256 kernels compress full blocks straight from the
   caller's string and share a per-domain schedule; the kernels they
   replaced survive in [Sha1_oracle]/[Sha256_oracle].  Each case feeds a
   message through a random plan of operations and compares every digest
   with the oracle's digest of the same bytes. *)

type 'ctx hasher = {
  init : unit -> 'ctx;
  copy : 'ctx -> 'ctx;
  feed : 'ctx -> string -> unit;
  feed_bytes : 'ctx -> bytes -> off:int -> len:int -> unit;
  add_char : 'ctx -> char -> unit;
  add_substring : 'ctx -> string -> int -> int -> unit;
  finalize : 'ctx -> string;
  oracle : string -> string;
}

let sha1_hasher =
  {
    init = Sha1.init;
    copy = Sha1.copy;
    feed = Sha1.feed;
    feed_bytes = Sha1.feed_bytes;
    add_char = Sha1.add_char;
    add_substring = Sha1.add_substring;
    finalize = Sha1.finalize;
    oracle = Sha1_oracle.digest;
  }

(* SHA-256 has no sink operations; its plans use [feed] for those steps. *)
let sha256_hasher =
  {
    init = Sha256.init;
    copy = Sha256.copy;
    feed = Sha256.feed;
    feed_bytes = Sha256.feed_bytes;
    add_char = (fun ctx c -> Sha256.feed ctx (String.make 1 c));
    add_substring = (fun ctx s off len -> Sha256.feed ctx (String.sub s off len));
    finalize = Sha256.finalize;
    oracle = Sha256_oracle.digest;
  }

type step =
  | Feed of int
  | Feed_bytes of int * int (* length, nonzero offset into a padded buffer *)
  | Add_chars of int
  | Add_substring of int * int (* length, nonzero offset *)
  | Copy (* fork mid-stream; the original then takes a divergent suffix *)

(* Lengths 0-10 kB, and lengths on every padding edge (55, 56, 63, 64,
   119, 120 mod 64) across the first few dozen blocks. *)
let gen_message =
  QCheck2.Gen.(
    let* len =
      oneof
        [
          int_bound 10_240;
          map2 (fun k e -> (64 * k) + e) (int_bound 40) (oneofl [ 55; 56; 63; 64; 119; 120 ]);
        ]
    in
    string_size ~gen:char (return len))

let gen_plan =
  QCheck2.Gen.(
    list_size (int_bound 12)
      (oneof
         [
           map (fun n -> Feed n) (int_bound 200);
           map2 (fun n off -> Feed_bytes (n, off + 1)) (int_bound 200) (int_bound 9);
           map (fun n -> Add_chars n) (int_bound 70);
           map2 (fun n off -> Add_substring (n, off + 1)) (int_bound 200) (int_bound 9);
           return Copy;
         ]))

let padded off piece = String.make off '\xa5' ^ piece ^ "\x5a\x5a"

let run_plan h msg plan =
  let n = String.length msg in
  let ctx = ref (h.init ()) and pos = ref 0 and ok = ref true in
  let forks = ref [] in
  let take len =
    let len = min len (n - !pos) in
    let piece = String.sub msg !pos len in
    pos := !pos + len;
    piece
  in
  List.iter
    (function
      | Feed len -> h.feed !ctx (take len)
      | Feed_bytes (len, off) ->
        let piece = take len in
        h.feed_bytes !ctx
          (Bytes.of_string (padded off piece))
          ~off ~len:(String.length piece)
      | Add_chars len -> String.iter (h.add_char !ctx) (take len)
      | Add_substring (len, off) ->
        let piece = take len in
        h.add_substring !ctx (padded off piece) off (String.length piece)
      | Copy ->
        (* The fork carries on with the message; the original is fed a
           suffix right away but finalized only at the end, so a shared
           buffer would corrupt one side or the other. *)
        let original = !ctx in
        ctx := h.copy original;
        let suffix = Printf.sprintf "fork@%d" !pos in
        h.feed original suffix;
        forks := (original, String.sub msg 0 !pos ^ suffix) :: !forks)
    plan;
  h.feed !ctx (String.sub msg !pos (n - !pos));
  if not (String.equal (h.finalize !ctx) (h.oracle msg)) then ok := false;
  List.iter
    (fun (fork, bytes) -> if not (String.equal (h.finalize fork) (h.oracle bytes)) then ok := false)
    !forks;
  !ok

let prop_kernel_vs_oracle name h =
  qtest ~count:300 (name ^ ": streamed digest equals the replaced kernel")
    QCheck2.Gen.(pair gen_message gen_plan)
    (fun (msg, plan) -> run_plan h msg plan)

let test_sha_oracle_edges () =
  (* Every length 0..200 in one call and one byte at a time. *)
  for n = 0 to 200 do
    let msg = String.init n (fun i -> Char.chr ((i * 7) land 0xff)) in
    check string_t (Printf.sprintf "sha1 %d bytes" n)
      (Hex.encode (Sha1_oracle.digest msg)) (Hex.encode (Sha1.digest msg));
    check string_t (Printf.sprintf "sha256 %d bytes" n)
      (Hex.encode (Sha256_oracle.digest msg)) (Hex.encode (Sha256.digest msg));
    check bool_t (Printf.sprintf "sha1 %d add_char" n) true
      (run_plan sha1_hasher msg [ Add_chars n ])
  done

let test_sha1_add_substring_bounds () =
  let ctx = Sha1.init () in
  List.iter
    (fun (off, len) ->
      check bool_t (Printf.sprintf "off %d len %d rejected" off len) true
        (try
           Sha1.add_substring ctx "abcd" off len;
           false
         with Invalid_argument _ -> true))
    [ (-1, 1); (0, -1); (0, 5); (3, 2); (5, 0); (max_int, 1) ];
  Sha1.add_substring ctx "abcd" 4 0;
  Sha1.add_substring ctx "abcd" 1 2;
  check string_t "in-range calls feed exactly the range" (Sha1.hex_digest "bc")
    (Hex.encode (Sha1.finalize ctx))

(* ---------------- HMAC ---------------- *)

let test_hmac_rfc4231_case1 () =
  let key = String.make 20 '\x0b' in
  check string_t "hmac-sha256 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.hex_mac ~hash:Hmac.Sha256 ~key "Hi There")

let test_hmac_rfc4231_case2 () =
  check string_t "hmac-sha256 case 2 (short key)"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.hex_mac ~hash:Hmac.Sha256 ~key:"Jefe" "what do ya want for nothing?")

let test_hmac_rfc4231_case3 () =
  let key = String.make 20 '\xaa' in
  let msg = String.make 50 '\xdd' in
  check string_t "hmac-sha256 case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.hex_mac ~hash:Hmac.Sha256 ~key msg)

let test_hmac_long_key () =
  (* Keys longer than the block size are hashed first; RFC 4231 case 6. *)
  let key = String.make 131 '\xaa' in
  check string_t "hmac-sha256 long key"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.hex_mac ~hash:Hmac.Sha256 ~key "Test Using Larger Than Block-Size Key - Hash Key First")

let test_hmac_sha1 () =
  (* RFC 2202 case 1. *)
  let key = String.make 20 '\x0b' in
  check string_t "hmac-sha1" "b617318655057264e28bc0b6fb378c8ef146be00"
    (Hmac.hex_mac ~hash:Hmac.Sha1 ~key "Hi There")

(* The full RFC 2202 §3 HMAC-SHA1 table (cases 2-7; case 1 above). *)
let hmac_sha1_rfc2202 =
  [
    ("case 2", "Jefe", "what do ya want for nothing?", "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    ("case 3", String.make 20 '\xaa', String.make 50 '\xdd', "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
    ( "case 4",
      String.init 25 (fun i -> Char.chr (i + 1)),
      String.make 50 '\xcd',
      "4c9007f4026250c6bc8414f9bf50c86c2d7235da" );
    ("case 5", String.make 20 '\x0c', "Test With Truncation", "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04");
    ( "case 6",
      String.make 80 '\xaa',
      "Test Using Larger Than Block-Size Key - Hash Key First",
      "aa4ae5e15272d00e95705637ce8a3b55ed402112" );
    ( "case 7",
      String.make 80 '\xaa',
      "Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data",
      "e8e99d0f45237d786d6bbaa7965c7808bbff1a91" );
  ]

let test_hmac_sha1_rfc2202 () =
  List.iter
    (fun (name, key, msg, expected) ->
      check string_t ("hmac-sha1 " ^ name) expected (Hmac.hex_mac ~hash:Hmac.Sha1 ~key msg))
    hmac_sha1_rfc2202

(* The schedule cache must be invisible: a reused schedule, the cached
   [mac], and a fresh schedule all agree with the RFC 2202 vectors. *)
let test_hmac_schedule_rfc2202 () =
  List.iter
    (fun (name, key, msg, expected) ->
      let sched = Hmac.schedule ~hash:Hmac.Sha1 ~key in
      check string_t ("schedule " ^ name) expected (Hex.encode (Hmac.mac_with sched msg));
      check string_t ("schedule reused " ^ name) expected (Hex.encode (Hmac.mac_with sched msg));
      check string_t ("cached mac " ^ name) expected (Hmac.hex_mac ~hash:Hmac.Sha1 ~key msg))
    (("case 1", String.make 20 '\x0b', "Hi There", "b617318655057264e28bc0b6fb378c8ef146be00")
    :: hmac_sha1_rfc2202)

let prop_hmac_schedule_equiv =
  qtest ~count:200 "hmac: cached mac = fresh-schedule mac, both hashes"
    QCheck2.Gen.(triple bool string string)
    (fun (use_sha1, key, msg) ->
      let hash = if use_sha1 then Hmac.Sha1 else Hmac.Sha256 in
      String.equal (Hmac.mac ~hash ~key msg) (Hmac.mac_with (Hmac.schedule ~hash ~key) msg))

let test_hmac_schedule_interleaved () =
  (* One schedule serving different messages out of order must behave
     like independent one-shot MACs (the copies really are isolated). *)
  let key = "interleave-key" in
  let sched = Hmac.schedule ~hash:Hmac.Sha256 ~key in
  let msgs = [ "a"; String.make 200 'b'; ""; "a" ] in
  let first = List.map (fun m -> Hmac.mac_with sched m) msgs in
  let second = List.map (fun m -> Hmac.mac ~hash:Hmac.Sha256 ~key m) msgs in
  List.iter2 (fun a b -> check string_t "interleaved" (Hex.encode b) (Hex.encode a)) first second

let test_const_time_eq () =
  check bool_t "equal" true (Hmac.equal_const_time "abcd" "abcd");
  check bool_t "different" false (Hmac.equal_const_time "abcd" "abce");
  check bool_t "length mismatch" false (Hmac.equal_const_time "abc" "abcd");
  check bool_t "empty" true (Hmac.equal_const_time "" "")

(* ---------------- Hex ---------------- *)

let test_hex_known () =
  check string_t "encode" "00ff10" (Hex.encode "\x00\xff\x10");
  check string_t "decode" "\x00\xff\x10" (Hex.decode "00ff10");
  check string_t "decode uppercase" "\xab" (Hex.decode "AB")

let test_hex_errors () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad digit" (Invalid_argument "Hex.decode: bad digit") (fun () ->
      ignore (Hex.decode "zz"))

let prop_hex_roundtrip =
  qtest "hex: decode (encode s) = s" QCheck2.Gen.string (fun s ->
      String.equal (Hex.decode (Hex.encode s)) s)

(* ---------------- Bignum ---------------- *)

let bn = Bignum.of_decimal

let test_bignum_basics () =
  check bool_t "zero is zero" true (Bignum.is_zero Bignum.zero);
  check bool_t "one is not zero" false (Bignum.is_zero Bignum.one);
  check string_t "zero prints" "0" (Bignum.to_decimal Bignum.zero);
  check int_t "of_int roundtrip" 123456789 (Option.get (Bignum.to_int_opt (Bignum.of_int 123456789)));
  check bool_t "is_even 0" true (Bignum.is_even Bignum.zero);
  check bool_t "is_even 2" true (Bignum.is_even Bignum.two);
  check bool_t "is_even 1" false (Bignum.is_even Bignum.one)

let test_bignum_to_int_opt_bounds () =
  (* Native ints hold 62 usable bits.  2^66 + 2^61 is the regression:
     an overflow test on the shifted accumulator let it wrap to
     Some 2^61. *)
  let pow2 k = Bignum.shift_left Bignum.one k in
  check (Alcotest.option int_t) "2^62 - 1 fits" (Some max_int)
    (Bignum.to_int_opt (Bignum.pred (pow2 62)));
  check (Alcotest.option int_t) "2^62 does not fit" None (Bignum.to_int_opt (pow2 62));
  check (Alcotest.option int_t) "2^66 + 2^61 does not fit" None
    (Bignum.to_int_opt (Bignum.add (pow2 66) (pow2 61)));
  check (Alcotest.option int_t) "zero" (Some 0) (Bignum.to_int_opt Bignum.zero)

let test_bignum_of_int_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Bignum.of_int: negative") (fun () ->
      ignore (Bignum.of_int (-1)))

let test_bignum_known_mul () =
  check string_t "big multiplication"
    "121932631137021795226185032733622923332237463801111263526900"
    (Bignum.to_decimal
       (Bignum.mul
          (bn "123456789012345678901234567890")
          (bn "987654321098765432109876543210")))

let test_bignum_known_div () =
  let q, r = Bignum.divmod (bn "1000000000000000000000000000007") (bn "998244353") in
  check string_t "quotient" "1001758734717330276748" (Bignum.to_decimal q);
  check string_t "remainder" "381795963" (Bignum.to_decimal r)

let test_bignum_div_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bignum.divmod Bignum.one Bignum.zero))

let test_bignum_sub_underflow () =
  Alcotest.check_raises "underflow" (Invalid_argument "Bignum.sub: underflow") (fun () ->
      ignore (Bignum.sub Bignum.one Bignum.two))

let test_bignum_bit_ops () =
  check int_t "bit_length 0" 0 (Bignum.bit_length Bignum.zero);
  check int_t "bit_length 1" 1 (Bignum.bit_length Bignum.one);
  check int_t "bit_length 255" 8 (Bignum.bit_length (Bignum.of_int 255));
  check int_t "bit_length 256" 9 (Bignum.bit_length (Bignum.of_int 256));
  check bool_t "testbit" true (Bignum.test_bit (Bignum.of_int 5) 2);
  check bool_t "testbit off" false (Bignum.test_bit (Bignum.of_int 5) 1);
  check string_t "shift_left across limbs" (Bignum.to_decimal (Bignum.mul (bn "12345678901234567890") (bn "4294967296")))
    (Bignum.to_decimal (Bignum.shift_left (bn "12345678901234567890") 32));
  check string_t "shift_right inverse" "12345678901234567890"
    (Bignum.to_decimal (Bignum.shift_right (Bignum.shift_left (bn "12345678901234567890") 57) 57))

let test_bignum_mod_exp_known () =
  (* 5^117 mod 19 = 1 (Fermat: 5^18 = 1, 117 = 6*18+9, 5^9 mod 19 = 1) *)
  check string_t "mod_exp small" "1"
    (Bignum.to_decimal
       (Bignum.mod_exp ~base:(Bignum.of_int 5) ~exp:(Bignum.of_int 117)
          ~modulus:(Bignum.of_int 19)));
  check string_t "mod_exp zero exponent" "1"
    (Bignum.to_decimal
       (Bignum.mod_exp ~base:(bn "987654321") ~exp:Bignum.zero ~modulus:(bn "1000000007")))

let test_bignum_mod_inv_known () =
  (match Bignum.mod_inv (Bignum.of_int 3) (Bignum.of_int 7) with
  | Some x -> check string_t "3^-1 mod 7" "5" (Bignum.to_decimal x)
  | None -> Alcotest.fail "expected inverse");
  check bool_t "no inverse when not coprime" true (Bignum.mod_inv (Bignum.of_int 4) (Bignum.of_int 8) = None)

let test_bignum_bytes_roundtrip () =
  let v = bn "123456789123456789123456789" in
  check string_t "bytes roundtrip" (Bignum.to_decimal v)
    (Bignum.to_decimal (Bignum.of_bytes_be (Bignum.to_bytes_be v)));
  check int_t "padded length" 32 (String.length (Bignum.to_bytes_be ~length:32 v));
  Alcotest.check_raises "too large for length"
    (Invalid_argument "Bignum.to_bytes_be: value too large") (fun () ->
      ignore (Bignum.to_bytes_be ~length:2 v))

let test_bignum_hex () =
  check string_t "to_hex" "ff" (Bignum.to_hex (Bignum.of_int 255));
  check string_t "of_hex" "255" (Bignum.to_decimal (Bignum.of_hex "ff"));
  check string_t "hex zero" "0" (Bignum.to_hex Bignum.zero)

(* Generator for bignums of varying sizes via decimal digit strings. *)
let gen_bignum =
  QCheck2.Gen.(
    map
      (fun digits ->
        let s = String.concat "" (List.map string_of_int digits) in
        if s = "" then Bignum.zero else bn s)
      (list_size (int_range 1 40) (int_bound 9)))

let gen_bignum_pos =
  QCheck2.Gen.map (fun v -> Bignum.add v Bignum.one) gen_bignum

let prop_add_sub =
  qtest "bignum: (a + b) - b = a" QCheck2.Gen.(pair gen_bignum gen_bignum) (fun (a, b) ->
      Bignum.equal (Bignum.sub (Bignum.add a b) b) a)

let prop_add_commutes =
  qtest "bignum: a + b = b + a" QCheck2.Gen.(pair gen_bignum gen_bignum) (fun (a, b) ->
      Bignum.equal (Bignum.add a b) (Bignum.add b a))

let prop_mul_commutes =
  qtest "bignum: a * b = b * a" QCheck2.Gen.(pair gen_bignum gen_bignum) (fun (a, b) ->
      Bignum.equal (Bignum.mul a b) (Bignum.mul b a))

let prop_mul_distributes =
  qtest "bignum: a*(b+c) = a*b + a*c"
    QCheck2.Gen.(triple gen_bignum gen_bignum gen_bignum)
    (fun (a, b, c) ->
      Bignum.equal
        (Bignum.mul a (Bignum.add b c))
        (Bignum.add (Bignum.mul a b) (Bignum.mul a c)))

let prop_divmod_invariant =
  qtest "bignum: a = (a/b)*b + a mod b, 0 <= r < b"
    QCheck2.Gen.(pair gen_bignum gen_bignum_pos)
    (fun (a, b) ->
      let q, r = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0)

let prop_decimal_roundtrip =
  qtest "bignum: of_decimal (to_decimal a) = a" gen_bignum (fun a ->
      Bignum.equal (bn (Bignum.to_decimal a)) a)

let prop_hex_roundtrip_bn =
  qtest "bignum: of_hex (to_hex a) = a" gen_bignum (fun a ->
      Bignum.equal (Bignum.of_hex (Bignum.to_hex a)) a)

let prop_bytes_roundtrip_bn =
  qtest "bignum: of_bytes_be (to_bytes_be a) = a" gen_bignum (fun a ->
      Bignum.equal (Bignum.of_bytes_be (Bignum.to_bytes_be a)) a)

let prop_shift_is_mul_pow2 =
  qtest "bignum: a lsl k = a * 2^k"
    QCheck2.Gen.(pair gen_bignum (int_bound 100))
    (fun (a, k) ->
      let pow = Bignum.mod_exp ~base:Bignum.two ~exp:(Bignum.of_int k)
          ~modulus:(Bignum.shift_left Bignum.one 200)
      in
      Bignum.equal (Bignum.shift_left a k) (Bignum.mul a pow))

(* Bias toward all-ones limbs: divisors with a saturated top limb and
   near-miss numerators exercise Knuth D's qhat-correction and add-back
   paths, which uniform random inputs almost never reach. *)
let gen_bignum_hexy =
  QCheck2.Gen.(
    map
      (fun nibbles ->
        let s =
          String.concat ""
            (List.map
               (fun (heavy, d) -> if heavy then "f" else String.make 1 "0123456789abcdef".[d])
               nibbles)
        in
        Bignum.of_hex s)
      (list_size (int_range 1 60) (pair bool (int_bound 15))))

let prop_divmod_adversarial =
  qtest ~count:500 "bignum: divmod invariant on f-heavy operands"
    QCheck2.Gen.(pair gen_bignum_hexy gen_bignum_hexy)
    (fun (a, b) ->
      let b = Bignum.add b Bignum.one in
      let q, r = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0)

let test_divmod_addback_cases () =
  (* Hand-picked shapes around limb boundaries (26-bit limbs): maximal
     limbs, power-of-two straddles, q = base-1 digits. *)
  let cases =
    [
      (* (2^52 - 1, 2^26 - 1) -> q = 2^26 + 1, r = 0 *)
      ("fffffffffffff", "3ffffff");
      (* all-ones over all-ones, equal length *)
      ("ffffffffffffffffffffffff", "ffffffffffff");
      (* numerator just below divisor * base *)
      ("fffffffffffffffffffffffe", "ffffffffffff");
      ("100000000000000000000000000000000", "ffffffffffffffff");
      ("123456789abcdef0123456789abcdef0", "fedcba9876543210");
    ]
  in
  List.iter
    (fun (ah, bh) ->
      let a = Bignum.of_hex ah and b = Bignum.of_hex bh in
      let q, r = Bignum.divmod a b in
      check bool_t (ah ^ " / " ^ bh ^ " invariant") true
        (Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0))
    cases

let prop_compare_total =
  qtest "bignum: compare consistent with sub"
    QCheck2.Gen.(pair gen_bignum gen_bignum)
    (fun (a, b) ->
      match Bignum.compare a b with
      | 0 -> Bignum.equal a b
      | c when c < 0 -> Bignum.compare b a > 0
      | _ -> Bignum.compare b a < 0)

let prop_mod_exp_matches_naive =
  qtest ~count:50 "bignum: mod_exp matches repeated multiplication"
    QCheck2.Gen.(triple (int_bound 1000) (int_bound 12) (int_range 2 1000))
    (fun (base, e, m) ->
      let expected = ref 1 in
      for _ = 1 to e do
        expected := !expected * base mod m
      done;
      let got =
        Bignum.mod_exp ~base:(Bignum.of_int base) ~exp:(Bignum.of_int e)
          ~modulus:(Bignum.of_int m)
      in
      Bignum.to_int_opt got = Some !expected)

let prop_gcd_divides =
  qtest "bignum: gcd divides both" QCheck2.Gen.(pair gen_bignum_pos gen_bignum_pos)
    (fun (a, b) ->
      let g = Bignum.gcd a b in
      Bignum.is_zero (Bignum.rem a g) && Bignum.is_zero (Bignum.rem b g))

let prop_mod_inv_correct =
  qtest "bignum: a * mod_inv a m = 1 (mod m) when coprime"
    QCheck2.Gen.(pair gen_bignum_pos gen_bignum_pos)
    (fun (a, m0) ->
      let m = Bignum.add m0 Bignum.two in
      match Bignum.mod_inv a m with
      | None -> not (Bignum.equal (Bignum.gcd a m) Bignum.one)
      | Some x -> Bignum.equal (Bignum.rem (Bignum.mul (Bignum.rem a m) x) m) (Bignum.rem Bignum.one m))

(* ---------------- Montgomery kernel ---------------- *)

(* Odd moduli > 1 across the shapes the kernel cares about: single-limb
   (26-bit) values, plain multi-limb randoms, f-heavy saturated limbs
   that stress the fused carry chains, and exact-width top-bit-set
   moduli.  Bases are drawn independently, so base >= modulus happens
   routinely. *)
let gen_odd_modulus =
  QCheck2.Gen.(
    oneof
      [
        map (fun v -> Bignum.of_int ((2 * v) + 3)) (int_bound ((1 lsl 25) - 2));
        map
          (fun v -> Bignum.succ (Bignum.shift_left (Bignum.succ v) 1))
          gen_bignum;
        map
          (fun v ->
            let v = Bignum.add v Bignum.two in
            if Bignum.is_even v then Bignum.succ v else v)
          gen_bignum_hexy;
        map2
          (fun bits v ->
            let top = Bignum.shift_left Bignum.one bits in
            let c = Bignum.add top (Bignum.rem v top) in
            if Bignum.is_even c then Bignum.succ c else c)
          (int_range 2 200) gen_bignum;
      ])

let prop_montgomery_vs_schoolbook =
  qtest ~count:300 "bignum: Montgomery mod_exp = schoolbook on random odd moduli"
    QCheck2.Gen.(triple gen_bignum gen_bignum gen_odd_modulus)
    (fun (b, e, m) ->
      Bignum.equal
        (Bignum.mod_exp ~base:b ~exp:e ~modulus:m)
        (Bignum.mod_exp_schoolbook ~base:b ~exp:e ~modulus:m))

let prop_mont_mul_matches =
  qtest ~count:300 "bignum: Mont.mul round-trips to a*b mod m"
    QCheck2.Gen.(triple gen_bignum gen_bignum gen_odd_modulus)
    (fun (a, b, m) ->
      match Bignum.Mont.make m with
      | None -> false (* gen only produces odd moduli > 1 *)
      | Some ctx ->
        let r =
          Bignum.Mont.from_mont ctx
            (Bignum.Mont.mul ctx (Bignum.Mont.to_mont ctx a) (Bignum.Mont.to_mont ctx b))
        in
        Bignum.equal r (Bignum.rem (Bignum.mul a b) m))

let prop_mont_to_from_roundtrip =
  qtest ~count:200 "bignum: from_mont (to_mont a) = a mod m"
    QCheck2.Gen.(pair gen_bignum gen_odd_modulus)
    (fun (a, m) ->
      match Bignum.Mont.make m with
      | None -> false
      | Some ctx ->
        Bignum.equal (Bignum.Mont.from_mont ctx (Bignum.Mont.to_mont ctx a)) (Bignum.rem a m))

let test_mont_edges () =
  check bool_t "even modulus rejected" true (Option.is_none (Bignum.Mont.make (Bignum.of_int 10)));
  check bool_t "modulus one rejected" true (Option.is_none (Bignum.Mont.make Bignum.one));
  check bool_t "zero rejected" true (Option.is_none (Bignum.Mont.make Bignum.zero));
  check string_t "mod_exp with modulus 1 is 0" "0"
    (Bignum.to_decimal
       (Bignum.mod_exp ~base:(Bignum.of_int 7) ~exp:(Bignum.of_int 3) ~modulus:Bignum.one));
  let m = bn "1000000007" in
  let ctx = Option.get (Bignum.Mont.make m) in
  check string_t "Mont.one is 1's residue" "1"
    (Bignum.to_decimal (Bignum.Mont.from_mont ctx (Bignum.Mont.one ctx)));
  check string_t "exp 0 = 1" "1"
    (Bignum.to_decimal (Bignum.Mont.exp ctx ~base:(bn "123456789") ~exp:Bignum.zero));
  let big = bn "123456789123456789123456789" in
  check string_t "exp 1 reduces an oversized base" (Bignum.to_decimal (Bignum.rem big m))
    (Bignum.to_decimal (Bignum.Mont.exp ctx ~base:big ~exp:Bignum.one));
  check string_t "base = 0" "0"
    (Bignum.to_decimal (Bignum.Mont.exp ctx ~base:Bignum.zero ~exp:(Bignum.of_int 5)));
  check string_t "base a multiple of m" "0"
    (Bignum.to_decimal (Bignum.Mont.exp ctx ~base:(Bignum.mul m Bignum.two) ~exp:(Bignum.of_int 5)))

let test_mont_e65537_fast_path () =
  (* The dedicated 16-squarings path must agree with schoolbook on
     moduli of several shapes, including single-limb ones. *)
  let e = Bignum.of_int 65537 in
  List.iter
    (fun (bh, mh) ->
      let b = Bignum.of_hex bh and m = Bignum.of_hex mh in
      let ctx = Option.get (Bignum.Mont.make m) in
      check string_t (Printf.sprintf "%s^65537 mod %s" bh mh)
        (Bignum.to_hex (Bignum.mod_exp_schoolbook ~base:b ~exp:e ~modulus:m))
        (Bignum.to_hex (Bignum.Mont.exp ctx ~base:b ~exp:e)))
    [
      ("2", "3b9aca07");
      ("123456789abcdef0", "ffffffffffffffffffffffffffffff61");
      ("fffffffffffffffffffffffffff", "10000000000000000000000000000000000000000000000000001");
      ("3", "2b5");
    ]

let prop_mod_exp_even_modulus =
  (* Even moduli take the schoolbook fallback inside mod_exp; the two
     entry points must still agree there. *)
  qtest ~count:100 "bignum: mod_exp = schoolbook on even moduli"
    QCheck2.Gen.(triple gen_bignum (int_bound 2000) gen_bignum_pos)
    (fun (b, e, m0) ->
      let m = Bignum.shift_left m0 1 in
      Bignum.equal
        (Bignum.mod_exp ~base:b ~exp:(Bignum.of_int e) ~modulus:m)
        (Bignum.mod_exp_schoolbook ~base:b ~exp:(Bignum.of_int e) ~modulus:m))

(* ---------------- Montgomery kernel vs the CIOS oracle ---------------- *)

(* A uniformly random value of exactly [bits] bits. *)
let gen_exact_bits bits =
  QCheck2.Gen.map
    (fun raw ->
      let v = Bignum.shift_right (Bignum.of_bytes_be raw) ((8 * ((bits + 7) / 8)) - bits) in
      let top = Bignum.shift_left Bignum.one (bits - 1) in
      if Bignum.test_bit v (bits - 1) then v else Bignum.add v top)
    (QCheck2.Gen.string_size ~gen:QCheck2.Gen.char (QCheck2.Gen.return ((bits + 7) / 8)))

let make_odd v = if Bignum.is_even v then Bignum.succ v else v
let all_ones_limbs k = Bignum.pred (Bignum.shift_left Bignum.one (26 * k))
let bound_bits = 26 * Bignum.Mont.max_limbs

(* Moduli for the differential properties: RSA sizes, all-ones limbs
   (2^26 - 1 everywhere, the largest column sums), and moduli exactly
   at the kernel's limb bound.  Each comes with a cap on exponent bits
   that keeps the oracle's big cases quick. *)
let gen_kernel_modulus =
  QCheck2.Gen.(
    frequency
      [
        ( 6,
          oneofl [ 256; 512; 1024; 2048 ] >>= fun bits ->
          map (fun m -> (make_odd m, 1024)) (gen_exact_bits bits) );
        (2, map (fun k -> (all_ones_limbs k, 256)) (int_range 1 80));
        (1, return (all_ones_limbs Bignum.Mont.max_limbs, 48));
        (1, map (fun m -> (make_odd m, 48)) (gen_exact_bits bound_bits));
      ])

(* Operands for modulus [m]: random below m, all-ones low limbs under
   m's top limb, m - 1, 0, and unreduced values up to twice m's
   width. *)
let gen_operand m =
  let bits = Bignum.bit_length m in
  let low = 26 * ((bits - 1) / 26) in
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun v -> Bignum.rem v m) (gen_exact_bits bits));
        (2, return (Bignum.pred (Bignum.shift_left (Bignum.shift_right m low) low)));
        (1, return (Bignum.pred m));
        (1, return Bignum.zero);
        (2, int_range (bits + 1) (2 * bits) >>= gen_exact_bits);
      ])

let gen_exponent cap =
  QCheck2.Gen.(
    frequency
      [
        (4, int_range 9 cap >>= gen_exact_bits);
        (2, int_range 1 8 >>= gen_exact_bits);
        (1, return (Bignum.of_int 65537));
        (1, oneofl [ Bignum.zero; Bignum.one ]);
      ])

let gen_kernel_case =
  QCheck2.Gen.(
    gen_kernel_modulus >>= fun (m, cap) ->
    triple (gen_operand m) (gen_operand m) (gen_exponent cap) >|= fun (a, b, e) -> (m, a, b, e))

let print_kernel_case (m, a, b, e) =
  Printf.sprintf "m=%s a=%s b=%s e=%s" (Bignum.to_hex m) (Bignum.to_hex a) (Bignum.to_hex b)
    (Bignum.to_hex e)

let kernel_qtest ?(count = 150) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:print_kernel_case gen_kernel_case (fun (m, a, b, e) ->
         match (Bignum.Mont.make m, Mont_oracle.make m) with
         | Some ctx, Some octx -> prop ctx octx (m, a, b, e)
         | _ -> false))

(* The oracle's product of [a mod m] and [b mod m] as padded limbs. *)
let oracle_limbs octx m a b =
  let k = octx.Mont_oracle.k in
  Mont_oracle.mul_raw octx (Mont_oracle.pad k (Bignum.rem a m)) (Mont_oracle.pad k (Bignum.rem b m))

let prop_kernel_mul =
  kernel_qtest "montgomery: kernel mul = CIOS oracle, in place too" (fun ctx octx (m, a, b, _) ->
      let want = oracle_limbs octx m a b in
      let u = Bignum.Mont.scratch ctx in
      let into_a = Bignum.Mont.limbs ctx a and into_b = Bignum.Mont.limbs ctx b in
      Bignum.Mont.mul_into ctx ~scratch:u ~dst:into_a into_a (Bignum.Mont.limbs ctx b);
      Bignum.Mont.mul_into ctx ~scratch:u ~dst:into_b (Bignum.Mont.limbs ctx a) into_b;
      Bignum.equal (Bignum.Mont.mul ctx a b) (Mont_oracle.mul octx a b)
      && into_a = want && into_b = want)

let prop_kernel_sqr =
  kernel_qtest "montgomery: kernel square = CIOS oracle, in place too" (fun ctx octx (m, a, _, _) ->
      let want = oracle_limbs octx m a a in
      let u = Bignum.Mont.scratch ctx in
      let sq = Bignum.Mont.limbs ctx a and prod = Bignum.Mont.limbs ctx a in
      Bignum.Mont.sqr_into ctx ~scratch:u ~dst:sq sq;
      Bignum.Mont.mul_into ctx ~scratch:u ~dst:prod prod prod;
      Bignum.equal (Bignum.Mont.sqr ctx a) (Mont_oracle.mul octx a a) && sq = want && prod = want)

let prop_kernel_exp =
  kernel_qtest ~count:100 "montgomery: kernel exp = CIOS oracle" (fun ctx octx (_, b, _, e) ->
      Bignum.equal (Bignum.Mont.exp ctx ~base:b ~exp:e) (Mont_oracle.exp octx ~base:b ~exp:e)
      && Bignum.equal
           (Bignum.Mont.exp_mont ctx ~base:b ~exp:e)
           (Mont_oracle.exp_mont octx ~base:b ~exp:e))

let test_kernel_limb_bound () =
  let at = make_odd (all_ones_limbs Bignum.Mont.max_limbs) in
  let above = Bignum.add (Bignum.shift_left Bignum.one bound_bits) Bignum.one in
  check int_t "bound is 256 limbs" 256 Bignum.Mont.max_limbs;
  check bool_t "modulus at the bound accepted" true (Option.is_some (Bignum.Mont.make at));
  check bool_t "one bit above the bound rejected" true (Option.is_none (Bignum.Mont.make above));
  (* Above the bound mod_exp takes the schoolbook path. *)
  let b = Bignum.of_int 3 and e = Bignum.of_int 1_000_003 in
  check string_t "mod_exp above the bound"
    (Bignum.to_hex (Mont_oracle.exp (Option.get (Mont_oracle.make above)) ~base:b ~exp:e))
    (Bignum.to_hex (Bignum.mod_exp ~base:b ~exp:e ~modulus:above));
  let ctx = Option.get (Bignum.Mont.make (bn "1000000007")) in
  Alcotest.check_raises "short dst" (Invalid_argument "Bignum.Mont.mul_into: wrong length")
    (fun () ->
      let x = Bignum.Mont.limbs ctx Bignum.two in
      Bignum.Mont.mul_into ctx ~scratch:(Bignum.Mont.scratch ctx) ~dst:[||] x x)

let prop_kernel_above_bound =
  qtest ~count:10 "montgomery: moduli above the limb bound are rejected"
    QCheck2.Gen.(int_range (bound_bits + 1) (bound_bits + 300) >>= gen_exact_bits)
    (fun m -> Option.is_none (Bignum.Mont.make (make_odd m)))

(* ---------------- Radix conversions vs the seed algorithms ---------------- *)

let gen_bignum_mixed = QCheck2.Gen.oneof [ gen_bignum; gen_bignum_hexy ]

let ref_to_bytes_be v =
  let b256 = Bignum.of_int 256 in
  let rec go v acc =
    if Bignum.is_zero v then acc
    else begin
      let q, r = Bignum.divmod v b256 in
      go q (String.make 1 (Char.chr (Option.get (Bignum.to_int_opt r))) ^ acc)
    end
  in
  let s = go v "" in
  if s = "" then "\000" else s

let ref_to_radix digits base v =
  let b = Bignum.of_int base in
  let rec go v acc =
    if Bignum.is_zero v then acc
    else begin
      let q, r = Bignum.divmod v b in
      go q (String.make 1 digits.[Option.get (Bignum.to_int_opt r)] ^ acc)
    end
  in
  let s = go v "" in
  if s = "" then "0" else s

let prop_to_bytes_matches_seed =
  qtest ~count:200 "bignum: linear to_bytes_be = byte-at-a-time reference" gen_bignum_mixed
    (fun a -> String.equal (Bignum.to_bytes_be a) (ref_to_bytes_be a))

let prop_to_hex_matches_seed =
  qtest ~count:200 "bignum: linear to_hex = digit-at-a-time reference" gen_bignum_mixed
    (fun a -> String.equal (Bignum.to_hex a) (ref_to_radix "0123456789abcdef" 16 a))

let prop_to_decimal_matches_seed =
  qtest ~count:200 "bignum: chunked to_decimal = digit-at-a-time reference" gen_bignum_mixed
    (fun a -> String.equal (Bignum.to_decimal a) (ref_to_radix "0123456789" 10 a))

let prop_of_bytes_ignores_leading_zeros =
  qtest ~count:100 "bignum: of_bytes_be ignores leading zero bytes" QCheck2.Gen.string
    (fun s -> Bignum.equal (Bignum.of_bytes_be ("\000\000" ^ s)) (Bignum.of_bytes_be s))

let test_radix_underscores () =
  check string_t "hex underscores" "255" (Bignum.to_decimal (Bignum.of_hex "f_f"));
  check string_t "decimal underscores" "1234567890123456789"
    (Bignum.to_decimal (bn "1_234_567_890_123_456_789"));
  check string_t "padded bytes keep leading zeros"
    (Bignum.to_decimal (bn "65793"))
    (Bignum.to_decimal (Bignum.of_bytes_be (Bignum.to_bytes_be ~length:9 (bn "65793"))))

(* ---------------- Miller-Rabin ---------------- *)

let test_primes_recognized () =
  let g = Prng.create ~seed:5L in
  List.iter
    (fun p ->
      check bool_t (Printf.sprintf "%s is prime" p) true
        (Mr_prime.is_probable_prime g (bn p)))
    [ "2"; "3"; "17"; "101"; "7919"; "998244353"; "1000000007"; "170141183460469231731687303715884105727" ]

let test_composites_rejected () =
  let g = Prng.create ~seed:6L in
  List.iter
    (fun c ->
      check bool_t (Printf.sprintf "%s is composite" c) false
        (Mr_prime.is_probable_prime g (bn c)))
    [ "1"; "0"; "4"; "100"; "561"; "1105"; "6601"; "8911"; "1000000006" ]
(* 561, 1105, 6601, 8911 are Carmichael numbers: Fermat-liars that
   Miller-Rabin must still reject. *)

let test_random_prime_bits () =
  let g = Prng.create ~seed:7L in
  List.iter
    (fun bits ->
      let p = Mr_prime.random_prime g ~bits in
      check int_t (Printf.sprintf "%d-bit prime" bits) bits (Bignum.bit_length p);
      check bool_t "is prime" true (Mr_prime.is_probable_prime g p))
    [ 8; 16; 32; 64; 128 ]

(* ---------------- RSA ---------------- *)

let shared_key =
  lazy
    (let g = Prng.create ~seed:99L in
     Rsa.generate g ~bits:512)

let test_rsa_roundtrip () =
  let key = Lazy.force shared_key in
  let s = Rsa.sign key "a message" in
  check bool_t "verifies" true (Rsa.verify key.Rsa.pub ~msg:"a message" ~signature:s);
  check int_t "signature length" (Rsa.key_bytes key.Rsa.pub) (String.length s)

let test_rsa_rejects_tampered () =
  let key = Lazy.force shared_key in
  let s = Rsa.sign key "a message" in
  check bool_t "wrong message" false (Rsa.verify key.Rsa.pub ~msg:"b message" ~signature:s);
  let tampered = Bytes.of_string s in
  Bytes.set tampered 0 (Char.chr (Char.code (Bytes.get tampered 0) lxor 1));
  check bool_t "tampered signature" false
    (Rsa.verify key.Rsa.pub ~msg:"a message" ~signature:(Bytes.to_string tampered));
  check bool_t "truncated signature" false
    (Rsa.verify key.Rsa.pub ~msg:"a message" ~signature:(String.sub s 0 (String.length s - 1)))

let test_rsa_rejects_degenerate_signatures () =
  let key = Lazy.force shared_key in
  let len = Rsa.key_bytes key.Rsa.pub in
  List.iter
    (fun (name, signature) ->
      check bool_t name false (Rsa.verify key.Rsa.pub ~msg:"a message" ~signature))
    [
      ("empty signature", "");
      ("all-zero signature", String.make len '\x00');
      ("all-ones signature", String.make len '\xff');
      ("over-long signature", String.make (len + 1) '\x01');
      ("single byte", "\x01");
    ]

let test_rsa_every_byte_flip_rejected () =
  (* Flip one bit in each signature byte: none may verify. *)
  let key = Lazy.force shared_key in
  let s = Rsa.sign key "a message" in
  for i = 0 to String.length s - 1 do
    let tampered = Bytes.of_string s in
    Bytes.set tampered i (Char.chr (Char.code (Bytes.get tampered i) lxor 0x80));
    check bool_t
      (Printf.sprintf "flip at byte %d" i)
      false
      (Rsa.verify key.Rsa.pub ~msg:"a message" ~signature:(Bytes.to_string tampered))
  done

let test_rsa_crt_matches_reference () =
  let key = Lazy.force shared_key in
  List.iter
    (fun msg ->
      check string_t ("crt = no-crt for " ^ msg) (Hex.encode (Rsa.sign_no_crt key msg))
        (Hex.encode (Rsa.sign key msg)))
    [ ""; "x"; "hello world"; String.make 1000 'q' ]

let test_rsa_signature_bit_identity () =
  (* The Montgomery kernel is a pure speedup: signatures over a fixed
     corpus must be bit-identical to the seed schoolbook path, and each
     must verify under both paths. *)
  let corpus =
    [ ""; "x"; "pledge:42"; String.make 1000 'q'; "\x00\xff\x80binary\x01\x7f" ]
  in
  let keys =
    [ ("512-bit", Lazy.force shared_key);
      ("256-bit", Rsa.generate (Prng.create ~seed:41L) ~bits:256);
      ("1024-bit", Rsa.generate (Prng.create ~seed:43L) ~bits:1024) ]
  in
  let with_flag v f =
    let saved = !Bignum.use_montgomery in
    Bignum.use_montgomery := v;
    Fun.protect ~finally:(fun () -> Bignum.use_montgomery := saved) f
  in
  List.iter
    (fun (kname, key) ->
      List.iteri
        (fun i msg ->
          let fast = with_flag true (fun () -> Rsa.sign key msg) in
          let slow = with_flag false (fun () -> Rsa.sign key msg) in
          let label = Printf.sprintf "%s corpus[%d]" kname i in
          check string_t (label ^ " bit-identical") (Hex.encode slow) (Hex.encode fast);
          check bool_t (label ^ " verifies (mont)") true
            (with_flag true (fun () -> Rsa.verify key.Rsa.pub ~msg ~signature:fast));
          check bool_t (label ^ " verifies (schoolbook)") true
            (with_flag false (fun () -> Rsa.verify key.Rsa.pub ~msg ~signature:fast)))
        corpus)
    keys

(* Key generation and signing pinned to values recorded with the CIOS
   Montgomery kernel: keygen runs Miller-Rabin chains, modular inverses
   and the CRT precomputation, so a kernel that drifted anywhere would
   move [n], [d] or the signature. *)
let test_rsa_keygen_pinned () =
  let key = Lazy.force shared_key in
  check string_t "n"
    "6f80f6abc02c5edaa2a6efc800642b5af334e4aad0c21bd7dfad90ee6524be1c\
     06a3a494cb3f42d2af2a1a87f9ea6dbb0b2e11a1c8e684ab0d2de301e0e3f63b"
    (Bignum.to_hex key.Rsa.pub.Rsa.n);
  check string_t "d"
    "695297ad83c865907f32d02b4ab353808559e0e4b86ba1813776eaff43ea80e7\
     0eae44d7820e3b88f64b2d25e628344d9163462e9c45028898bcef918a7e4201"
    (Bignum.to_hex key.Rsa.d);
  check string_t "signature of pledge:42"
    "53af8d7a417575823d73abfce0c4cfd23329b9c4fe21015723726b2a3eeae7ef\
     ebe52d38abfa8a4dc2f4dd04cff907d66fbaf0c95443f769df15c50f6c3ee0f3"
    (Hex.encode (Rsa.sign key "pledge:42"))

let test_rsa_distinct_keys_dont_cross_verify () =
  let g = Prng.create ~seed:100L in
  let k1 = Rsa.generate g ~bits:256 in
  let k2 = Rsa.generate g ~bits:256 in
  let s = Rsa.sign k1 "msg" in
  check bool_t "other key rejects" false (Rsa.verify k2.Rsa.pub ~msg:"msg" ~signature:s);
  check bool_t "fingerprints differ" false
    (String.equal (Rsa.fingerprint k1.Rsa.pub) (Rsa.fingerprint k2.Rsa.pub))

let prop_rsa_sign_verify =
  qtest ~count:20 "rsa: sign/verify roundtrip on random messages" QCheck2.Gen.string
    (fun msg ->
      let key = Lazy.force shared_key in
      Rsa.verify key.Rsa.pub ~msg ~signature:(Rsa.sign key msg))

(* ---------------- Merkle ---------------- *)

let test_merkle_all_indices () =
  List.iter
    (fun n ->
      let leaves = List.init n (fun i -> Printf.sprintf "leaf-%d" i) in
      let tree = Merkle.build leaves in
      Alcotest.(check int) "leaf count" n (Merkle.leaf_count tree);
      List.iteri
        (fun i leaf ->
          let proof = Merkle.prove tree i in
          check bool_t
            (Printf.sprintf "n=%d i=%d verifies" n i)
            true
            (Merkle.verify ~root:(Merkle.root tree) ~leaf proof))
        leaves)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 16; 33 ]

let test_merkle_rejects_wrong_leaf () =
  let tree = Merkle.build [ "a"; "b"; "c"; "d" ] in
  let proof = Merkle.prove tree 1 in
  check bool_t "wrong leaf" false (Merkle.verify ~root:(Merkle.root tree) ~leaf:"x" proof);
  let other = Merkle.build [ "a"; "b"; "c"; "e" ] in
  check bool_t "wrong root" false (Merkle.verify ~root:(Merkle.root other) ~leaf:"b" proof)

let test_merkle_proof_length () =
  let tree = Merkle.build (List.init 16 string_of_int) in
  check int_t "log2(16) levels" 4 (Merkle.proof_length (Merkle.prove tree 0))

let test_merkle_domain_separation () =
  (* A two-leaf tree's root must differ from hashing the concatenation
     of raw leaves as a single leaf — leaf/node tags prevent
     second-preimage-style confusion. *)
  let t1 = Merkle.build [ "ab" ] in
  let t2 = Merkle.build [ "a"; "b" ] in
  check bool_t "tagged" false (String.equal (Merkle.root t1) (Merkle.root t2))

let test_merkle_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Merkle.build: no leaves") (fun () ->
      ignore (Merkle.build []))

let prop_merkle_random =
  qtest ~count:50 "merkle: every proof of a random tree verifies"
    QCheck2.Gen.(list_size (int_range 1 40) (string_size (int_bound 20)))
    (fun leaves ->
      let tree = Merkle.build leaves in
      List.for_all
        (fun i -> Merkle.verify ~root:(Merkle.root tree) ~leaf:(List.nth leaves i) (Merkle.prove tree i))
        (List.init (List.length leaves) Fun.id))

(* Distinct leaves so a bit-flipped leaf cannot accidentally equal a
   sibling; sizes deliberately include 1 and non-powers-of-two, where
   odd-level duplication shapes the path. *)
let gen_merkle_case =
  QCheck2.Gen.(
    int_range 1 23 >>= fun n ->
    int_bound (n - 1) >>= fun i ->
    nat >|= fun salt -> (n, i, salt))

let leaves_of n salt = List.init n (fun i -> Printf.sprintf "leaf-%d-%d" salt i)

let flip_bit s bit =
  let b = Bytes.of_string s in
  let byte = bit / 8 mod Bytes.length b in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

let prop_merkle_root_of_proof_consistent =
  qtest ~count:100 "merkle: root_of_proof agrees with the tree root" gen_merkle_case
    (fun (n, i, salt) ->
      let leaves = leaves_of n salt in
      let tree = Merkle.build leaves in
      String.equal
        (Merkle.root_of_proof ~leaf:(List.nth leaves i) (Merkle.prove tree i))
        (Merkle.root tree))

let prop_merkle_bitflip_fails =
  qtest ~count:100 "merkle: bit-flipped leaf, root and proof all fail"
    QCheck2.Gen.(pair gen_merkle_case nat)
    (fun ((n, i, salt), bit) ->
      let leaves = leaves_of n salt in
      let tree = Merkle.build leaves in
      let root = Merkle.root tree in
      let leaf = List.nth leaves i in
      let proof = Merkle.prove tree i in
      let flipped_leaf = not (Merkle.verify ~root ~leaf:(flip_bit leaf bit) proof) in
      let flipped_root = not (Merkle.verify ~root:(flip_bit root bit) ~leaf proof) in
      let flipped_proof =
        (* Flip one bit in one sibling digest; a single-leaf tree has an
           empty path, so there is no proof to corrupt. *)
        match proof.Merkle.path with
        | [] -> n = 1
        | path ->
          let victim = bit mod List.length path in
          let path =
            List.mapi
              (fun j (sibling, side) ->
                if j = victim then (flip_bit sibling bit, side) else (sibling, side))
              path
          in
          not (Merkle.verify ~root ~leaf { proof with Merkle.path })
      in
      flipped_leaf && flipped_root && flipped_proof)

(* ---------------- PRNG ---------------- *)

let test_prng_determinism () =
  let a = Prng.create ~seed:42L and b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    check bool_t "same stream" true (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b))
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:42L and b = Prng.create ~seed:43L in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b)) then differs := true
  done;
  check bool_t "different seeds differ" true !differs

let test_prng_split_independent () =
  let parent = Prng.create ~seed:42L in
  let child = Prng.split parent in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.next_int64 parent) (Prng.next_int64 child)) then differs := true
  done;
  check bool_t "split stream differs" true !differs

let test_prng_int_bounds () =
  let g = Prng.create ~seed:1L in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    check bool_t "in range" true (v >= 0 && v < 17)
  done;
  check int_t "bound 1" 0 (Prng.int g 1);
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_float_range () =
  let g = Prng.create ~seed:2L in
  for _ = 1 to 1000 do
    let v = Prng.float g in
    check bool_t "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_bernoulli_edges () =
  let g = Prng.create ~seed:3L in
  check bool_t "p=0" false (Prng.bernoulli g 0.0);
  check bool_t "p=1" true (Prng.bernoulli g 1.0)

let test_prng_shuffle_permutes () =
  let g = Prng.create ~seed:4L in
  let arr = Array.init 20 Fun.id in
  Prng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  check bool_t "is a permutation" true (sorted = Array.init 20 Fun.id)

let test_prng_int_roughly_uniform () =
  let g = Prng.create ~seed:8L in
  let counts = Array.make 8 0 in
  let n = 8000 in
  for _ = 1 to n do
    let v = Prng.int g 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      check bool_t (Printf.sprintf "bucket %d near uniform" i) true (c > 800 && c < 1200))
    counts

let test_prng_exponential_mean () =
  let g = Prng.create ~seed:9L in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential g ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  check bool_t "mean near 2" true (mean > 1.9 && mean < 2.1)

(* ---------------- Sig_scheme ---------------- *)

let test_sig_scheme_roundtrip scheme () =
  let g = Prng.create ~seed:11L in
  let kp = Sig_scheme.generate scheme g in
  let public = Sig_scheme.public_of kp in
  let s = Sig_scheme.sign kp "payload" in
  check bool_t "verifies" true (Sig_scheme.verify public ~msg:"payload" ~signature:s);
  check bool_t "wrong msg" false (Sig_scheme.verify public ~msg:"payloae" ~signature:s);
  check bool_t "wrong sig" false (Sig_scheme.verify public ~msg:"payload" ~signature:"junk");
  check int_t "key id length" 16 (String.length (Sig_scheme.key_id public))

let test_sig_scheme_distinct_keys () =
  let g = Prng.create ~seed:12L in
  let k1 = Sig_scheme.generate Sig_scheme.Hmac_sim g in
  let k2 = Sig_scheme.generate Sig_scheme.Hmac_sim g in
  let s = Sig_scheme.sign k1 "m" in
  check bool_t "cross-verify fails" false
    (Sig_scheme.verify (Sig_scheme.public_of k2) ~msg:"m" ~signature:s)

let () =
  Alcotest.run "secrep_crypto"
    [
      ( "sha1",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha1_vectors;
          Alcotest.test_case "million a's" `Slow test_sha1_million_a;
          Alcotest.test_case "digest length" `Quick test_sha1_length;
          Alcotest.test_case "block boundaries" `Quick test_sha1_block_boundaries;
          prop_sha1_incremental;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "digest length" `Quick test_sha256_length;
          prop_sha256_incremental;
        ] );
      ( "sha-oracle",
        [
          prop_kernel_vs_oracle "sha1" sha1_hasher;
          prop_kernel_vs_oracle "sha256" sha256_hasher;
          Alcotest.test_case "every length to 200 bytes" `Quick test_sha_oracle_edges;
          Alcotest.test_case "sha1 add_substring bounds" `Quick test_sha1_add_substring_bounds;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 case 1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "rfc4231 case 2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "rfc4231 case 3" `Quick test_hmac_rfc4231_case3;
          Alcotest.test_case "long key" `Quick test_hmac_long_key;
          Alcotest.test_case "hmac-sha1" `Quick test_hmac_sha1;
          Alcotest.test_case "hmac-sha1 rfc2202 cases 2-7" `Quick test_hmac_sha1_rfc2202;
          Alcotest.test_case "schedule cache vs rfc2202" `Quick test_hmac_schedule_rfc2202;
          Alcotest.test_case "schedule copies are isolated" `Quick test_hmac_schedule_interleaved;
          prop_hmac_schedule_equiv;
          Alcotest.test_case "constant-time equality" `Quick test_const_time_eq;
        ] );
      ( "hex",
        [
          Alcotest.test_case "known values" `Quick test_hex_known;
          Alcotest.test_case "errors" `Quick test_hex_errors;
          prop_hex_roundtrip;
        ] );
      ( "bignum",
        [
          Alcotest.test_case "basics" `Quick test_bignum_basics;
          Alcotest.test_case "of_int negative" `Quick test_bignum_of_int_negative;
          Alcotest.test_case "known multiplication" `Quick test_bignum_known_mul;
          Alcotest.test_case "known division" `Quick test_bignum_known_div;
          Alcotest.test_case "division by zero" `Quick test_bignum_div_by_zero;
          Alcotest.test_case "subtraction underflow" `Quick test_bignum_sub_underflow;
          Alcotest.test_case "bit operations" `Quick test_bignum_bit_ops;
          Alcotest.test_case "mod_exp known" `Quick test_bignum_mod_exp_known;
          Alcotest.test_case "mod_inv known" `Quick test_bignum_mod_inv_known;
          Alcotest.test_case "bytes roundtrip" `Quick test_bignum_bytes_roundtrip;
          Alcotest.test_case "hex" `Quick test_bignum_hex;
          prop_add_sub;
          prop_add_commutes;
          prop_mul_commutes;
          prop_mul_distributes;
          prop_divmod_invariant;
          prop_divmod_adversarial;
          Alcotest.test_case "divmod add-back shapes" `Quick test_divmod_addback_cases;
          prop_decimal_roundtrip;
          prop_hex_roundtrip_bn;
          prop_bytes_roundtrip_bn;
          prop_shift_is_mul_pow2;
          prop_compare_total;
          prop_mod_exp_matches_naive;
          prop_gcd_divides;
          prop_mod_inv_correct;
          prop_to_bytes_matches_seed;
          prop_to_hex_matches_seed;
          prop_to_decimal_matches_seed;
          prop_of_bytes_ignores_leading_zeros;
          Alcotest.test_case "radix parsing details" `Quick test_radix_underscores;
          Alcotest.test_case "to_int_opt bounds" `Quick test_bignum_to_int_opt_bounds;
        ] );
      ( "montgomery",
        [
          prop_montgomery_vs_schoolbook;
          prop_mont_mul_matches;
          prop_mont_to_from_roundtrip;
          prop_mod_exp_even_modulus;
          Alcotest.test_case "context edge cases" `Quick test_mont_edges;
          Alcotest.test_case "e=65537 fast path" `Quick test_mont_e65537_fast_path;
          prop_kernel_mul;
          prop_kernel_sqr;
          prop_kernel_exp;
          Alcotest.test_case "limb bound" `Quick test_kernel_limb_bound;
          prop_kernel_above_bound;
        ] );
      ( "miller-rabin",
        [
          Alcotest.test_case "primes recognized" `Quick test_primes_recognized;
          Alcotest.test_case "composites (incl. Carmichael) rejected" `Quick
            test_composites_rejected;
          Alcotest.test_case "random_prime sizes" `Slow test_random_prime_bits;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "sign/verify roundtrip" `Quick test_rsa_roundtrip;
          Alcotest.test_case "rejects tampering" `Quick test_rsa_rejects_tampered;
          Alcotest.test_case "rejects degenerate signatures" `Quick
            test_rsa_rejects_degenerate_signatures;
          Alcotest.test_case "rejects every byte flip" `Quick test_rsa_every_byte_flip_rejected;
          Alcotest.test_case "CRT matches reference" `Quick test_rsa_crt_matches_reference;
          Alcotest.test_case "signature bit-identity across kernels" `Quick
            test_rsa_signature_bit_identity;
          Alcotest.test_case "keys do not cross-verify" `Quick
            test_rsa_distinct_keys_dont_cross_verify;
          prop_rsa_sign_verify;
          Alcotest.test_case "keygen and signature pinned (512-bit)" `Quick
            test_rsa_keygen_pinned;
        ] );
      ( "merkle",
        [
          Alcotest.test_case "all indices, many sizes" `Quick test_merkle_all_indices;
          Alcotest.test_case "rejects wrong leaf/root" `Quick test_merkle_rejects_wrong_leaf;
          Alcotest.test_case "proof length" `Quick test_merkle_proof_length;
          Alcotest.test_case "leaf/node domain separation" `Quick test_merkle_domain_separation;
          Alcotest.test_case "empty rejected" `Quick test_merkle_empty;
          prop_merkle_random;
          prop_merkle_root_of_proof_consistent;
          prop_merkle_bitflip_fails;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "bernoulli edges" `Quick test_prng_bernoulli_edges;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "int roughly uniform" `Quick test_prng_int_roughly_uniform;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
        ] );
      ( "sig_scheme",
        [
          Alcotest.test_case "hmac-sim roundtrip" `Quick
            (test_sig_scheme_roundtrip Sig_scheme.Hmac_sim);
          Alcotest.test_case "rsa roundtrip" `Quick
            (test_sig_scheme_roundtrip (Sig_scheme.Rsa { bits = 256 }));
          Alcotest.test_case "distinct keys" `Quick test_sig_scheme_distinct_keys;
        ] );
    ]
