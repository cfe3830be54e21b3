(* Tagged, length-prefixed encoding.  Every variant starts with a
   distinct tag character and variable-length payloads carry explicit
   byte counts, so the encoding is injective (prefix-free per field).

   The encoder is written once against a byte/substring sink and
   instantiated twice: for [Buffer] (the [of_*] strings) and for a
   SHA-1 context (the digests), so a digest never builds the string it
   hashes. *)

module type Sink = sig
  type t

  val add_char : t -> char -> unit
  val add_substring : t -> string -> int -> int -> unit
end

module Encoder (S : Sink) = struct
  (* Decimal digits of [n <= 0], most significant first; working on the
     non-positive side covers [min_int]. *)
  let rec add_neg_digits s n =
    if n <= -10 then add_neg_digits s (n / 10);
    S.add_char s (Char.unsafe_chr (48 - (n mod 10)))

  (* The bytes of [string_of_int i]. *)
  let add_decimal s i =
    if i < 0 then begin
      S.add_char s '-';
      add_neg_digits s i
    end
    else add_neg_digits s (-i)

  let hex_digits = "0123456789abcdef"

  (* The low [n] nibbles of [v], most significant first. *)
  let add_nibbles s v n =
    for i = n - 1 downto 0 do
      S.add_char s (String.unsafe_get hex_digits ((v lsr (4 * i)) land 15))
    done

  let rec nibble_count v = if v < 16 then 1 else 1 + nibble_count (v lsr 4)

  (* The bytes of [Printf.sprintf "%Lx" (Int64.bits_of_float f)]: the
     unsigned 64-bit pattern in lower-case hex without leading zeros.
     The two 32-bit halves are native ints, so nothing is boxed. *)
  let add_float_bits s f =
    let bits = Int64.bits_of_float f in
    let hi = Int64.to_int (Int64.shift_right_logical bits 32)
    and lo = Int64.to_int bits land 0xFFFF_FFFF in
    if hi = 0 then add_nibbles s lo (nibble_count lo)
    else begin
      add_nibbles s hi (nibble_count hi);
      add_nibbles s lo 8
    end

  (* A count header: [tag], the decimal count, ':'. *)
  let add_count s tag n =
    S.add_char s tag;
    add_decimal s n;
    S.add_char s ':'

  let enc_string s str =
    add_count s 's' (String.length str);
    S.add_substring s str 0 (String.length str)

  let rec enc_strings s = function
    | [] -> ()
    | str :: rest ->
      enc_string s str;
      enc_strings s rest

  let enc_int s i =
    S.add_char s 'i';
    add_decimal s i;
    S.add_char s ';'

  let rec enc_value s (v : Value.t) =
    match v with
    | Null -> S.add_char s 'n'
    | Bool b ->
      S.add_char s 'b';
      S.add_char s (if b then '1' else '0')
    | Int i -> enc_int s i
    | Float f ->
      S.add_char s 'f';
      add_float_bits s f;
      S.add_char s ';'
    | String str -> enc_string s str
    | List items ->
      add_count s 'l' (List.length items);
      enc_values s items

  and enc_values s = function
    | [] -> ()
    | v :: rest ->
      enc_value s v;
      enc_values s rest

  (* Folded with the sink as the accumulator, so walking a document
     allocates no closure. *)
  let enc_field name v s =
    enc_string s name;
    enc_value s v;
    s

  let enc_document s doc =
    add_count s 'd' (Document.field_count doc);
    ignore (Document.fold enc_field doc s)

  let enc_selector s (sel : Query.selector) =
    match sel with
    | All -> S.add_char s 'A'
    | Key k ->
      S.add_char s 'K';
      enc_string s k
    | Prefix p ->
      S.add_char s 'P';
      enc_string s p
    | Key_range { lo; hi } ->
      S.add_char s 'R';
      enc_string s lo;
      enc_string s hi

  let rec enc_predicate s (p : Query.predicate) =
    match p with
    | True -> S.add_char s 'T'
    | Field_equals (f, v) ->
      S.add_char s 'E';
      enc_string s f;
      enc_value s v
    | Field_less (f, v) ->
      S.add_char s 'L';
      enc_string s f;
      enc_value s v
    | Field_greater (f, v) ->
      S.add_char s 'G';
      enc_string s f;
      enc_value s v
    | Field_matches (f, pat) ->
      S.add_char s 'M';
      enc_string s f;
      enc_string s pat
    | Has_field f ->
      S.add_char s 'H';
      enc_string s f
    | Not inner ->
      S.add_char s 'N';
      enc_predicate s inner
    | And (a, b) ->
      S.add_char s '&';
      enc_predicate s a;
      enc_predicate s b
    | Or (a, b) ->
      S.add_char s '|';
      enc_predicate s a;
      enc_predicate s b

  let enc_aggregate s (agg : Query.aggregate) =
    match agg with
    | Count -> S.add_char s 'c'
    | Sum f ->
      S.add_char s '+';
      enc_string s f
    | Min f ->
      S.add_char s 'm';
      enc_string s f
    | Max f ->
      S.add_char s 'x';
      enc_string s f
    | Avg f ->
      S.add_char s 'a';
      enc_string s f

  let enc_query s (q : Query.t) =
    match q with
    | Select { from; where; project; limit } ->
      S.add_char s 'S';
      enc_selector s from;
      enc_predicate s where;
      (match project with
      | None -> S.add_char s '*'
      | Some fs ->
        add_count s 'p' (List.length fs);
        enc_strings s fs);
      (match limit with
      | None -> S.add_char s '_'
      | Some l -> enc_int s l)
    | Grep { from; pattern } ->
      S.add_char s 'G';
      enc_selector s from;
      enc_string s pattern
    | Aggregate { from; where; agg } ->
      S.add_char s 'F';
      enc_selector s from;
      enc_predicate s where;
      enc_aggregate s agg

  let rec enc_rows s = function
    | [] -> ()
    | (k, doc) :: rest ->
      enc_string s k;
      enc_document s doc;
      enc_rows s rest

  let rec enc_matches s = function
    | [] -> ()
    | (k, field, text) :: rest ->
      enc_string s k;
      enc_string s field;
      enc_string s text;
      enc_matches s rest

  let enc_result s (r : Query_result.t) =
    match r with
    | Rows rows ->
      add_count s 'r' (List.length rows);
      enc_rows s rows
    | Matches ms ->
      add_count s 'g' (List.length ms);
      enc_matches s ms
    | Agg v ->
      S.add_char s 'v';
      enc_value s v
end

module To_buffer = Encoder (Buffer)

module To_sha1 = Encoder (struct
  type t = Secrep_crypto.Sha1.ctx

  let add_char = Secrep_crypto.Sha1.add_char
  let add_substring = Secrep_crypto.Sha1.add_substring
end)

let via_buffer enc x =
  let buf = Buffer.create 128 in
  enc buf x;
  Buffer.contents buf

let of_value = via_buffer To_buffer.enc_value
let of_document = via_buffer To_buffer.enc_document
let of_query = via_buffer To_buffer.enc_query
let of_result = via_buffer To_buffer.enc_result

let via_sha1 enc x =
  let ctx = Secrep_crypto.Sha1.init () in
  enc ctx x;
  Secrep_crypto.Sha1.finalize ctx

let result_digest = via_sha1 To_sha1.enc_result
let query_digest = via_sha1 To_sha1.enc_query
let feed_decimal = To_sha1.add_decimal
let feed_document = To_sha1.enc_document
