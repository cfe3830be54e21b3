(* Reference SHA-256 for differential tests: the kernel that
   [Secrep_crypto.Sha256] replaced, copied verbatim apart from this header
   and the [open] that resolves [Hex].  It stages every block through a
   copy and keeps a per-context message schedule and chaining array. *)

open Secrep_crypto

(* SHA-256 over native ints masked to 32 bits, mirroring the structure of
   Sha1 (64-byte staging buffer, reusable message schedule). *)

let digest_size = 32
let m32 = 0xFFFFFFFF

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
  h : int array; (* 8 chaining words *)
  block : bytes;
  mutable fill : int;
  mutable total : int;
  w : int array; (* 64-entry message schedule *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
        0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    w = Array.make 64 0;
  }

let copy ctx =
  {
    h = Array.copy ctx.h;
    block = Bytes.copy ctx.block;
    fill = ctx.fill;
    total = ctx.total;
    w = Array.make 64 0;
  }

let rotr32 x n = ((x lsr n) lor (x lsl (32 - n))) land m32

let compress ctx =
  let b = ctx.block and w = ctx.w and h = ctx.h in
  for t = 0 to 15 do
    w.(t) <-
      (Char.code (Bytes.get b (4 * t)) lsl 24)
      lor (Char.code (Bytes.get b ((4 * t) + 1)) lsl 16)
      lor (Char.code (Bytes.get b ((4 * t) + 2)) lsl 8)
      lor Char.code (Bytes.get b ((4 * t) + 3))
  done;
  for t = 16 to 63 do
    let s0 = rotr32 w.(t - 15) 7 lxor rotr32 w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
    let s1 = rotr32 w.(t - 2) 17 lxor rotr32 w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land m32
  done;
  let a = ref h.(0)
  and bb = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for t = 0 to 63 do
    let s1 = rotr32 !e 6 lxor rotr32 !e 11 lxor rotr32 !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) land m32 in
    let t1 = (!hh + s1 + (ch land m32) + k.(t) + ctx.w.(t)) land m32 in
    let s0 = rotr32 !a 2 lxor rotr32 !a 13 lxor rotr32 !a 22 in
    let maj = (!a land !bb) lxor (!a land !c) lxor (!bb land !c) in
    let t2 = (s0 + maj) land m32 in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land m32;
    d := !c;
    c := !bb;
    bb := !a;
    a := (t1 + t2) land m32
  done;
  h.(0) <- (h.(0) + !a) land m32;
  h.(1) <- (h.(1) + !bb) land m32;
  h.(2) <- (h.(2) + !c) land m32;
  h.(3) <- (h.(3) + !d) land m32;
  h.(4) <- (h.(4) + !e) land m32;
  h.(5) <- (h.(5) + !f) land m32;
  h.(6) <- (h.(6) + !g) land m32;
  h.(7) <- (h.(7) + !hh) land m32

let feed_bytes ctx src ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length src then invalid_arg "Sha256.feed_bytes";
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
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let hex_digest s = Hex.encode (digest s)
