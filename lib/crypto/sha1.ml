(* SHA-1 over native ints masked to 32 bits.  The compression function is
   the FIPS 180-1 80-round schedule, written as four branch-free 20-round
   stages; padding is the usual 0x80 + length suffix.

   Full 64-byte blocks are compressed straight from the caller's string;
   only a trailing partial block is staged in the context.  The 80-word
   message schedule is scratch that no context owns: one array per
   domain, so [init] and [copy] allocate only the record and its staging
   block.  That holds only while no two hashes interleave on one domain,
   which is true while the program runs no systhreads. *)

let digest_size = 20
let m32 = 0xFFFFFFFF

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  block : bytes; (* 64-byte staging buffer for a partial block *)
  mutable fill : int; (* bytes currently staged *)
  mutable total : int; (* total message bytes fed *)
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
  }

let copy ctx =
  let block = Bytes.create 64 in
  Bytes.blit ctx.block 0 block 0 ctx.fill;
  { ctx with block }

let schedule = Domain.DLS.new_key (fun () -> Array.make 80 0)

external get32u : string -> int -> int32 = "%caml_string_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

(* Big-endian 32-bit word at [off]; the caller guarantees [off + 4]
   bytes are there. *)
let load_be s off =
  let v = if Sys.big_endian then get32u s off else bswap32 (get32u s off) in
  Int32.to_int v land m32

let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land m32

(* Compress the 64 bytes of [src] at [off] into the chaining words.
   Each stage runs five rounds per iteration with the working variables
   renamed instead of shifted, so a stage is four passes of straight-line
   code.  Choose and majority are written without [lnot] so every value
   stays within 32 bits. *)
let compress ctx src off =
  let w = Domain.DLS.get schedule in
  for t = 0 to 15 do
    Array.unsafe_set w t (load_be src (off + (4 * t)))
  done;
  for t = 16 to 79 do
    Array.unsafe_set w t
      (rotl32
         (Array.unsafe_get w (t - 3)
         lxor Array.unsafe_get w (t - 8)
         lxor Array.unsafe_get w (t - 14)
         lxor Array.unsafe_get w (t - 16))
         1)
  done;
  let a = ref ctx.h0
  and b = ref ctx.h1
  and c = ref ctx.h2
  and d = ref ctx.h3
  and e = ref ctx.h4 in
  for i = 0 to 3 do
    let t = 5 * i in
    let k = 0x5A827999 in
    e := (!e + rotl32 !a 5 + (!d lxor (!b land (!c lxor !d))) + k + Array.unsafe_get w t) land m32;
    b := rotl32 !b 30;
    d := (!d + rotl32 !e 5 + (!c lxor (!a land (!b lxor !c))) + k + Array.unsafe_get w (t + 1)) land m32;
    a := rotl32 !a 30;
    c := (!c + rotl32 !d 5 + (!b lxor (!e land (!a lxor !b))) + k + Array.unsafe_get w (t + 2)) land m32;
    e := rotl32 !e 30;
    b := (!b + rotl32 !c 5 + (!a lxor (!d land (!e lxor !a))) + k + Array.unsafe_get w (t + 3)) land m32;
    d := rotl32 !d 30;
    a := (!a + rotl32 !b 5 + (!e lxor (!c land (!d lxor !e))) + k + Array.unsafe_get w (t + 4)) land m32;
    c := rotl32 !c 30
  done;
  for i = 4 to 7 do
    let t = 5 * i in
    let k = 0x6ED9EBA1 in
    e := (!e + rotl32 !a 5 + (!b lxor !c lxor !d) + k + Array.unsafe_get w t) land m32;
    b := rotl32 !b 30;
    d := (!d + rotl32 !e 5 + (!a lxor !b lxor !c) + k + Array.unsafe_get w (t + 1)) land m32;
    a := rotl32 !a 30;
    c := (!c + rotl32 !d 5 + (!e lxor !a lxor !b) + k + Array.unsafe_get w (t + 2)) land m32;
    e := rotl32 !e 30;
    b := (!b + rotl32 !c 5 + (!d lxor !e lxor !a) + k + Array.unsafe_get w (t + 3)) land m32;
    d := rotl32 !d 30;
    a := (!a + rotl32 !b 5 + (!c lxor !d lxor !e) + k + Array.unsafe_get w (t + 4)) land m32;
    c := rotl32 !c 30
  done;
  for i = 8 to 11 do
    let t = 5 * i in
    let k = 0x8F1BBCDC in
    e :=
      (!e + rotl32 !a 5 + ((!b land !c) lor (!d land (!b lor !c))) + k + Array.unsafe_get w t)
      land m32;
    b := rotl32 !b 30;
    d :=
      (!d + rotl32 !e 5 + ((!a land !b) lor (!c land (!a lor !b))) + k
     + Array.unsafe_get w (t + 1))
      land m32;
    a := rotl32 !a 30;
    c :=
      (!c + rotl32 !d 5 + ((!e land !a) lor (!b land (!e lor !a))) + k
     + Array.unsafe_get w (t + 2))
      land m32;
    e := rotl32 !e 30;
    b :=
      (!b + rotl32 !c 5 + ((!d land !e) lor (!a land (!d lor !e))) + k
     + Array.unsafe_get w (t + 3))
      land m32;
    d := rotl32 !d 30;
    a :=
      (!a + rotl32 !b 5 + ((!c land !d) lor (!e land (!c lor !d))) + k
     + Array.unsafe_get w (t + 4))
      land m32;
    c := rotl32 !c 30
  done;
  for i = 12 to 15 do
    let t = 5 * i in
    let k = 0xCA62C1D6 in
    e := (!e + rotl32 !a 5 + (!b lxor !c lxor !d) + k + Array.unsafe_get w t) land m32;
    b := rotl32 !b 30;
    d := (!d + rotl32 !e 5 + (!a lxor !b lxor !c) + k + Array.unsafe_get w (t + 1)) land m32;
    a := rotl32 !a 30;
    c := (!c + rotl32 !d 5 + (!e lxor !a lxor !b) + k + Array.unsafe_get w (t + 2)) land m32;
    e := rotl32 !e 30;
    b := (!b + rotl32 !c 5 + (!d lxor !e lxor !a) + k + Array.unsafe_get w (t + 3)) land m32;
    d := rotl32 !d 30;
    a := (!a + rotl32 !b 5 + (!c lxor !d lxor !e) + k + Array.unsafe_get w (t + 4)) land m32;
    c := rotl32 !c 30
  done;
  ctx.h0 <- (ctx.h0 + !a) land m32;
  ctx.h1 <- (ctx.h1 + !b) land m32;
  ctx.h2 <- (ctx.h2 + !c) land m32;
  ctx.h3 <- (ctx.h3 + !d) land m32;
  ctx.h4 <- (ctx.h4 + !e) land m32

let compress_block ctx =
  compress ctx (Bytes.unsafe_to_string ctx.block) 0;
  ctx.fill <- 0

let add_char ctx ch =
  Bytes.unsafe_set ctx.block ctx.fill ch;
  ctx.fill <- ctx.fill + 1;
  ctx.total <- ctx.total + 1;
  if ctx.fill = 64 then compress_block ctx

let add_substring ctx s off len =
  if off < 0 || len < 0 || off > String.length s - len then invalid_arg "Sha1.add_substring";
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
  if off < 0 || len < 0 || off > Bytes.length src - len then invalid_arg "Sha1.feed_bytes";
  add_substring ctx (Bytes.unsafe_to_string src) off len

let finalize ctx =
  let total_bits = ctx.total * 8 in
  (* Append 0x80, pad with zeros to 56 mod 64, then the 64-bit length. *)
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
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let hex_digest s = Hex.encode (digest s)
