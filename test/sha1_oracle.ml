(* Reference SHA-1 for differential tests: the kernel that
   [Secrep_crypto.Sha1] replaced, copied verbatim apart from this header
   and the [open] that resolves [Hex].  It stages every block through a
   copy, keeps a per-context message schedule and (for SHA-1) picks each
   round's function and constant with a branch. *)

open Secrep_crypto

(* SHA-1 over native ints masked to 32 bits.  The compression function is
   the FIPS 180-1 80-round schedule; padding is the usual 0x80 + length
   suffix.  Streaming contexts buffer one 64-byte block. *)

let digest_size = 20
let m32 = 0xFFFFFFFF

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  block : bytes; (* 64-byte staging buffer *)
  mutable fill : int; (* bytes currently staged *)
  mutable total : int; (* total message bytes fed *)
  w : int array; (* 80-entry message schedule, reused across blocks *)
}

let init () =
  {
    h0 = 0x67452301;
    h1 = 0xEFCDAB89;
    h2 = 0x98BADCFE;
    h3 = 0x10325476;
    h4 = 0xC3D2E1F0;
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    w = Array.make 80 0;
  }

let copy ctx =
  {
    h0 = ctx.h0;
    h1 = ctx.h1;
    h2 = ctx.h2;
    h3 = ctx.h3;
    h4 = ctx.h4;
    block = Bytes.copy ctx.block;
    fill = ctx.fill;
    total = ctx.total;
    w = Array.make 80 0;
  }

let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land m32

let compress ctx =
  let b = ctx.block and w = ctx.w in
  for t = 0 to 15 do
    w.(t) <-
      (Char.code (Bytes.get b (4 * t)) lsl 24)
      lor (Char.code (Bytes.get b ((4 * t) + 1)) lsl 16)
      lor (Char.code (Bytes.get b ((4 * t) + 2)) lsl 8)
      lor Char.code (Bytes.get b ((4 * t) + 3))
  done;
  for t = 16 to 79 do
    w.(t) <- rotl32 (w.(t - 3) lxor w.(t - 8) lxor w.(t - 14) lxor w.(t - 16)) 1
  done;
  let a = ref ctx.h0
  and bb = ref ctx.h1
  and c = ref ctx.h2
  and d = ref ctx.h3
  and e = ref ctx.h4 in
  for t = 0 to 79 do
    let f, k =
      if t < 20 then ((!bb land !c) lor (lnot !bb land !d) land m32, 0x5A827999)
      else if t < 40 then (!bb lxor !c lxor !d, 0x6ED9EBA1)
      else if t < 60 then ((!bb land !c) lor (!bb land !d) lor (!c land !d), 0x8F1BBCDC)
      else (!bb lxor !c lxor !d, 0xCA62C1D6)
    in
    let tmp = (rotl32 !a 5 + (f land m32) + !e + k + w.(t)) land m32 in
    e := !d;
    d := !c;
    c := rotl32 !bb 30;
    bb := !a;
    a := tmp
  done;
  ctx.h0 <- (ctx.h0 + !a) land m32;
  ctx.h1 <- (ctx.h1 + !bb) land m32;
  ctx.h2 <- (ctx.h2 + !c) land m32;
  ctx.h3 <- (ctx.h3 + !d) land m32;
  ctx.h4 <- (ctx.h4 + !e) land m32

let feed_bytes ctx src ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length src then invalid_arg "Sha1.feed_bytes";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  while !remaining > 0 do
    let space = 64 - ctx.fill in
    let chunk = min space !remaining in
    Bytes.blit src !pos ctx.block ctx.fill chunk;
    ctx.fill <- ctx.fill + chunk;
    pos := !pos + chunk;
    remaining := !remaining - chunk;
    if ctx.fill = 64 then begin
      compress ctx;
      ctx.fill <- 0
    end
  done

let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let finalize ctx =
  let total_bits = ctx.total * 8 in
  (* Append 0x80, pad with zeros to 56 mod 64, then the 64-bit length. *)
  Bytes.set ctx.block ctx.fill '\x80';
  ctx.fill <- ctx.fill + 1;
  if ctx.fill > 56 then begin
    Bytes.fill ctx.block ctx.fill (64 - ctx.fill) '\000';
    compress ctx;
    ctx.fill <- 0
  end;
  Bytes.fill ctx.block ctx.fill (64 - ctx.fill) '\000';
  for i = 0 to 7 do
    Bytes.set ctx.block (56 + i) (Char.chr ((total_bits lsr (8 * (7 - i))) land 0xff))
  done;
  compress ctx;
  let out = Bytes.create digest_size in
  let put i v =
    Bytes.set out i (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out (i + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out (i + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out (i + 3) (Char.chr (v land 0xff))
  in
  put 0 ctx.h0;
  put 4 ctx.h1;
  put 8 ctx.h2;
  put 12 ctx.h3;
  put 16 ctx.h4;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let hex_digest s = Hex.encode (digest s)
