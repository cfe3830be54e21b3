(* Reference Montgomery kernel for differential tests: the word-at-a-time
   CIOS multiply and the windowed exponentiation that the
   product-scanning kernel in [Secrep_crypto.Bignum.Mont] replaced.
   [mul_raw] and [exp_raw] are the original bodies.  [Bignum.t] is
   abstract outside the library, so values cross over as padded arrays
   of 26-bit limbs through [pad] and [of_limbs], built from the public
   API; [exp_raw] tests for the verify exponent with [Bignum.equal]
   instead of reading the limbs of [e]. *)

open Secrep_crypto

let limb_bits = 26
let base = 1 lsl limb_bits
let mask = base - 1
let base_bn = Bignum.of_int base

(* [a] as exactly [k] little-endian limbs; [a] must fit. *)
let pad k (a : Bignum.t) =
  Array.init k (fun i ->
      Option.get (Bignum.to_int_opt (Bignum.rem (Bignum.shift_right a (limb_bits * i)) base_bn)))

let of_limbs (a : int array) =
  Array.fold_right
    (fun limb acc -> Bignum.add (Bignum.shift_left acc limb_bits) (Bignum.of_int limb))
    a Bignum.zero

type ctx = {
  m : Bignum.t;
  limbs : int array;
  k : int;
  m0' : int;
  r2 : int array;
  one_m : int array;
  one_lit : int array;
}

let make (m : Bignum.t) : ctx option =
  if Bignum.is_zero m || Bignum.is_even m || Bignum.equal m Bignum.one then None
  else begin
    let k = (Bignum.bit_length m + limb_bits - 1) / limb_bits in
    let limbs = pad k m in
    let m0 = limbs.(0) in
    let inv = ref 1 in
    for _ = 1 to 5 do
      let t = (m0 * !inv) land mask in
      inv := (!inv * ((2 - t) land mask)) land mask
    done;
    assert ((m0 * !inv) land mask = 1);
    let m0' = (base - !inv) land mask in
    let r2 = pad k (Bignum.rem (Bignum.shift_left Bignum.one (2 * limb_bits * k)) m) in
    let one_m = pad k (Bignum.rem (Bignum.shift_left Bignum.one (limb_bits * k)) m) in
    Some { m; limbs; k; m0'; r2; one_m; one_lit = pad k Bignum.one }
  end

(* c = mont(a, b) = a * b * R^-1 mod m, all as k-limb arrays, using
   the coarsely-integrated operand-scanning (CIOS) schedule.  Inputs
   must be < m; the output is fully reduced. *)
let mul_raw ctx (a : int array) (b : int array) : int array =
  let k = ctx.k and m = ctx.limbs and m0' = ctx.m0' in
  let t = Array.make (k + 2) 0 in
  for i = 0 to k - 1 do
    let ai = a.(i) in
    let c = ref 0 in
    for j = 0 to k - 1 do
      let x = t.(j) + (ai * b.(j)) + !c in
      t.(j) <- x land mask;
      c := x lsr limb_bits
    done;
    let x = t.(k) + !c in
    t.(k) <- x land mask;
    t.(k + 1) <- x lsr limb_bits;
    (* u makes t divisible by 2^26; add u*m and shift one limb down. *)
    let u = (t.(0) * m0') land mask in
    let c = ref ((t.(0) + (u * m.(0))) lsr limb_bits) in
    for j = 1 to k - 1 do
      let x = t.(j) + (u * m.(j)) + !c in
      t.(j - 1) <- x land mask;
      c := x lsr limb_bits
    done;
    let x = t.(k) + !c in
    t.(k - 1) <- x land mask;
    t.(k) <- t.(k + 1) + (x lsr limb_bits);
    t.(k + 1) <- 0
  done;
  (* CIOS leaves t < 2m (m < R), so at most one subtraction. *)
  let ge =
    t.(k) <> 0
    ||
    let rec cmp i = if i < 0 then true else if t.(i) <> m.(i) then t.(i) > m.(i) else cmp (i - 1) in
    cmp (k - 1)
  in
  let r = Array.sub t 0 k in
  if ge then begin
    let borrow = ref 0 in
    for i = 0 to k - 1 do
      let d = r.(i) - m.(i) - !borrow in
      if d < 0 then begin
        r.(i) <- d + base;
        borrow := 1
      end
      else begin
        r.(i) <- d;
        borrow := 0
      end
    done
  end;
  r

(* b^e mod m as a Montgomery residue (k-limb array). *)
let exp_raw ctx (b : Bignum.t) (e : Bignum.t) : int array =
  let x = mul_raw ctx (pad ctx.k (Bignum.rem b ctx.m)) ctx.r2 in
  let ebits = Bignum.bit_length e in
  if ebits = 0 then Array.copy ctx.one_m
  else if Bignum.equal e (Bignum.of_int 65537) then begin
    (* The RSA verify exponent: 16 squarings and one multiply, no
       window table to fill. *)
    let acc = ref x in
    for _ = 1 to 16 do
      acc := mul_raw ctx !acc !acc
    done;
    mul_raw ctx !acc x
  end
  else if ebits <= 8 then begin
    (* Short exponents don't amortize a window table. *)
    let acc = ref (Array.copy x) in
    for i = ebits - 2 downto 0 do
      acc := mul_raw ctx !acc !acc;
      if Bignum.test_bit e i then acc := mul_raw ctx !acc x
    done;
    !acc
  end
  else begin
    (* 4-bit sliding windows over the precomputed odd powers
       x^1, x^3, ..., x^15: one multiply per window instead of one
       per set bit. *)
    let x2 = mul_raw ctx x x in
    let odd = Array.make 8 x in
    for i = 1 to 7 do
      odd.(i) <- mul_raw ctx odd.(i - 1) x2
    done;
    let acc = ref (Array.copy ctx.one_m) in
    let i = ref (ebits - 1) in
    while !i >= 0 do
      if not (Bignum.test_bit e !i) then begin
        acc := mul_raw ctx !acc !acc;
        decr i
      end
      else begin
        (* Largest window of <= 4 bits ending in a set bit. *)
        let l = ref (max (!i - 3) 0) in
        while not (Bignum.test_bit e !l) do
          incr l
        done;
        let w = ref 0 in
        for j = !i downto !l do
          w := (!w lsl 1) lor (if Bignum.test_bit e j then 1 else 0)
        done;
        for _ = !l to !i do
          acc := mul_raw ctx !acc !acc
        done;
        acc := mul_raw ctx !acc odd.((!w - 1) / 2);
        i := !l - 1
      end
    done;
    !acc
  end

(* The public entry points of the replaced kernel, on [Bignum.t]. *)
let mul ctx a b =
  of_limbs (mul_raw ctx (pad ctx.k (Bignum.rem a ctx.m)) (pad ctx.k (Bignum.rem b ctx.m)))

let exp_mont ctx ~base:b ~exp:e = of_limbs (exp_raw ctx b e)
let exp ctx ~base:b ~exp:e = of_limbs (mul_raw ctx (exp_raw ctx b e) ctx.one_lit)
