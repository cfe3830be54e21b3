(* SHA-256 over native ints masked to 32 bits, with the structure of
   Sha1: full blocks are compressed straight from the caller's string,
   a partial block is staged in the context, and the 64-word message
   schedule is per-domain scratch, so [init] and [copy] allocate only
   the record and its staging block (safe while no systhreads run). *)

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
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  mutable h5 : int;
  mutable h6 : int;
  mutable h7 : int;
  block : bytes; (* 64-byte staging buffer for a partial block *)
  mutable fill : int;
  mutable total : int;
}

let init () =
  {
    h0 = 0x6a09e667;
    h1 = 0xbb67ae85;
    h2 = 0x3c6ef372;
    h3 = 0xa54ff53a;
    h4 = 0x510e527f;
    h5 = 0x9b05688c;
    h6 = 0x1f83d9ab;
    h7 = 0x5be0cd19;
    block = Bytes.create 64;
    fill = 0;
    total = 0;
  }

let copy ctx =
  let block = Bytes.create 64 in
  Bytes.blit ctx.block 0 block 0 ctx.fill;
  { ctx with block }

let schedule = Domain.DLS.new_key (fun () -> Array.make 64 0)

external get32u : string -> int -> int32 = "%caml_string_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let load_be s off =
  let v = if Sys.big_endian then get32u s off else bswap32 (get32u s off) in
  Int32.to_int v land m32

let rotr32 x n = ((x lsr n) lor (x lsl (32 - n))) land m32

let compress ctx src off =
  let w = Domain.DLS.get schedule in
  for t = 0 to 15 do
    Array.unsafe_set w t (load_be src (off + (4 * t)))
  done;
  for t = 16 to 63 do
    let w15 = Array.unsafe_get w (t - 15) and w2 = Array.unsafe_get w (t - 2) in
    let s0 = rotr32 w15 7 lxor rotr32 w15 18 lxor (w15 lsr 3) in
    let s1 = rotr32 w2 17 lxor rotr32 w2 19 lxor (w2 lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land m32)
  done;
  let a = ref ctx.h0
  and b = ref ctx.h1
  and c = ref ctx.h2
  and d = ref ctx.h3
  and e = ref ctx.h4
  and f = ref ctx.h5
  and g = ref ctx.h6
  and h = ref ctx.h7 in
  for t = 0 to 63 do
    let s1 = rotr32 !e 6 lxor rotr32 !e 11 lxor rotr32 !e 25 in
    let ch = !g lxor (!e land (!f lxor !g)) in
    let t1 = !h + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let s0 = rotr32 !a 2 lxor rotr32 !a 13 lxor rotr32 !a 22 in
    let maj = (!a land !b) lor (!c land (!a lor !b)) in
    h := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land m32;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + s0 + maj) land m32
  done;
  ctx.h0 <- (ctx.h0 + !a) land m32;
  ctx.h1 <- (ctx.h1 + !b) land m32;
  ctx.h2 <- (ctx.h2 + !c) land m32;
  ctx.h3 <- (ctx.h3 + !d) land m32;
  ctx.h4 <- (ctx.h4 + !e) land m32;
  ctx.h5 <- (ctx.h5 + !f) land m32;
  ctx.h6 <- (ctx.h6 + !g) land m32;
  ctx.h7 <- (ctx.h7 + !h) land m32

let compress_block ctx =
  compress ctx (Bytes.unsafe_to_string ctx.block) 0;
  ctx.fill <- 0

let add_substring ctx s off len =
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  if ctx.fill > 0 then begin
    let chunk = min (64 - ctx.fill) len in
    Bytes.blit_string s off ctx.block ctx.fill chunk;
    ctx.fill <- ctx.fill + chunk;
    pos := off + chunk;
    remaining := len - chunk;
    if ctx.fill = 64 then compress_block ctx
  end;
  while !remaining >= 64 do
    compress ctx s !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit_string s !pos ctx.block 0 !remaining;
    ctx.fill <- !remaining
  end

let feed ctx s = add_substring ctx s 0 (String.length s)

let feed_bytes ctx src ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length src - len then invalid_arg "Sha256.feed_bytes";
  add_substring ctx (Bytes.unsafe_to_string src) off len

let finalize ctx =
  let total_bits = ctx.total * 8 in
  Bytes.set ctx.block ctx.fill '\x80';
  ctx.fill <- ctx.fill + 1;
  if ctx.fill > 56 then begin
    Bytes.fill ctx.block ctx.fill (64 - ctx.fill) '\000';
    compress_block ctx
  end;
  Bytes.fill ctx.block ctx.fill (64 - ctx.fill) '\000';
  for i = 0 to 7 do
    Bytes.set ctx.block (56 + i) (Char.chr ((total_bits lsr (8 * (7 - i))) land 0xff))
  done;
  compress_block ctx;
  let out = Bytes.create digest_size in
  Bytes.set_int32_be out 0 (Int32.of_int ctx.h0);
  Bytes.set_int32_be out 4 (Int32.of_int ctx.h1);
  Bytes.set_int32_be out 8 (Int32.of_int ctx.h2);
  Bytes.set_int32_be out 12 (Int32.of_int ctx.h3);
  Bytes.set_int32_be out 16 (Int32.of_int ctx.h4);
  Bytes.set_int32_be out 20 (Int32.of_int ctx.h5);
  Bytes.set_int32_be out 24 (Int32.of_int ctx.h6);
  Bytes.set_int32_be out 28 (Int32.of_int ctx.h7);
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let hex_digest s = Hex.encode (digest s)
