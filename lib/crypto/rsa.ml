type public_key = {
  n : Bignum.t;
  e : Bignum.t;
  n_mont : Bignum.Mont.ctx option;
}

type private_key = {
  pub : public_key;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;
  dq : Bignum.t;
  qinv : Bignum.t;
  p_mont : Bignum.Mont.ctx option;
  q_mont : Bignum.Mont.ctx option;
}

let e65537 = Bignum.of_int 65537

let make_public ~n ~e = { n; e; n_mont = Bignum.Mont.make n }

(* All exponentiations go through here: the cached Montgomery context
   when there is one and the kernel is enabled, the seed schoolbook
   path otherwise (even/degenerate moduli from hostile decodes, moduli
   above [Bignum.Mont.max_limbs], or the E15 baseline flag).  Both
   compute the identical value. *)
let mexp ctx ~base ~exp ~modulus =
  match ctx with
  | Some c when !Bignum.use_montgomery -> Bignum.Mont.exp c ~base ~exp
  | _ -> Bignum.mod_exp_schoolbook ~base ~exp ~modulus

let generate g ~bits =
  if bits < 64 then invalid_arg "Rsa.generate: modulus too small";
  let half = bits / 2 in
  let rec attempt () =
    let p = Mr_prime.random_prime g ~bits:half in
    let q = Mr_prime.random_prime g ~bits:(bits - half) in
    if Bignum.equal p q then attempt ()
    else begin
      let n = Bignum.mul p q in
      let p1 = Bignum.pred p and q1 = Bignum.pred q in
      let phi = Bignum.mul p1 q1 in
      match Bignum.mod_inv e65537 phi with
      | None -> attempt () (* gcd(e, phi) <> 1; rare, retry *)
      | Some d ->
        let qinv =
          match Bignum.mod_inv q p with
          | Some x -> x
          | None -> assert false (* p, q distinct primes *)
        in
        (* Keep p the larger factor so the CRT recombination below can
           subtract without underflow. *)
        let p, q, p1, q1, qinv =
          if Bignum.compare p q > 0 then (p, q, p1, q1, qinv)
          else begin
            match Bignum.mod_inv p q with
            | Some x -> (q, p, q1, p1, x)
            | None -> assert false
          end
        in
        {
          pub = make_public ~n ~e:e65537;
          d;
          p;
          q;
          dp = Bignum.rem d p1;
          dq = Bignum.rem d q1;
          qinv;
          p_mont = Bignum.Mont.make p;
          q_mont = Bignum.Mont.make q;
        }
    end
  in
  attempt ()

let key_bytes pub = (Bignum.bit_length pub.n + 7) / 8

(* EMSA-PKCS1-v1.5 style: 0x00 0x01 FF..FF 0x00 <ascii tag> <digest>.
   We use a short ASCII tag instead of the DER DigestInfo blob; the
   encoding is fixed-width and collision-free, which is all the
   simulation's security model needs.  For the small simulation keys
   the experiments sweep (256+ bits) the digest is truncated to fit,
   with a 16-byte floor — the usual move (cf. ECDSA) when the modulus
   is narrower than the hash. *)
let emsa_encode ~em_len msg =
  let tag = "s:" in
  let digest =
    let full = Sha256.digest msg in
    let room = em_len - 8 - 3 - String.length tag in
    if room >= String.length full then full
    else if room >= 16 then String.sub full 0 room
    else invalid_arg "Rsa: modulus too small for encoding"
  in
  let fixed = 3 + String.length tag + String.length digest in
  let ps_len = em_len - fixed in
  let buf = Bytes.make em_len '\xff' in
  Bytes.set buf 0 '\x00';
  Bytes.set buf 1 '\x01';
  Bytes.set buf (2 + ps_len) '\x00';
  Bytes.blit_string tag 0 buf (3 + ps_len) (String.length tag);
  Bytes.blit_string digest 0 buf (3 + ps_len + String.length tag) (String.length digest);
  Bytes.unsafe_to_string buf

let sign_no_crt key msg =
  let em_len = key_bytes key.pub in
  let m = Bignum.of_bytes_be (emsa_encode ~em_len msg) in
  let s = mexp key.pub.n_mont ~base:m ~exp:key.d ~modulus:key.pub.n in
  Bignum.to_bytes_be ~length:em_len s

let sign key msg =
  (* CRT: two half-size exponentiations instead of one full-size one,
     each in Montgomery form over its own cached context. *)
  let em_len = key_bytes key.pub in
  let m = Bignum.of_bytes_be (emsa_encode ~em_len msg) in
  let sp = mexp key.p_mont ~base:m ~exp:key.dp ~modulus:key.p in
  let sq = mexp key.q_mont ~base:m ~exp:key.dq ~modulus:key.q in
  (* h = qinv * (sp - sq) mod p; invariant from generate: p > q so the
     subtraction is done modulo p. *)
  let diff =
    if Bignum.compare sp sq >= 0 then Bignum.sub sp sq
    else Bignum.sub (Bignum.add sp key.p) sq
  in
  let h = Bignum.rem (Bignum.mul key.qinv diff) key.p in
  let s = Bignum.add sq (Bignum.mul h key.q) in
  Bignum.to_bytes_be ~length:em_len s

let verify pub ~msg ~signature =
  let em_len = key_bytes pub in
  String.length signature = em_len
  && begin
       let s = Bignum.of_bytes_be signature in
       Bignum.compare s pub.n < 0
       && begin
            let m = mexp pub.n_mont ~base:s ~exp:pub.e ~modulus:pub.n in
            let em = Bignum.to_bytes_be ~length:em_len m in
            Hmac.equal_const_time em (emsa_encode ~em_len msg)
          end
     end

let fingerprint pub =
  Hex.encode (Sha256.digest (Bignum.to_hex pub.n ^ "/" ^ Bignum.to_hex pub.e))

let pp_public fmt pub =
  Format.fprintf fmt "rsa-%d:%s" (8 * key_bytes pub) (String.sub (fingerprint pub) 0 12)
