(* Reference canonical encoder for differential tests: the Buffer-based
   encoder that [Secrep_store.Canonical] replaced with one encoder over a
   byte/substring sink.  Copied verbatim apart from this header and the
   [open]; it formats ints with [string_of_int] and floats with
   [Printf.sprintf "%Lx"], builds the whole string, then hashes it. *)

open Secrep_store

(* Tagged, length-prefixed encoding.  Every variant starts with a
   distinct tag character and variable-length payloads carry explicit
   byte counts, so the encoding is injective (prefix-free per field). *)

let enc_string buf s =
  Buffer.add_char buf 's';
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let enc_int buf i =
  Buffer.add_char buf 'i';
  Buffer.add_string buf (string_of_int i);
  Buffer.add_char buf ';'

let rec enc_value buf (v : Value.t) =
  match v with
  | Null -> Buffer.add_char buf 'n'
  | Bool b -> Buffer.add_string buf (if b then "b1" else "b0")
  | Int i -> enc_int buf i
  | Float f ->
    Buffer.add_char buf 'f';
    Buffer.add_string buf (Printf.sprintf "%Lx" (Int64.bits_of_float f));
    Buffer.add_char buf ';'
  | String s -> enc_string buf s
  | List items ->
    Buffer.add_char buf 'l';
    Buffer.add_string buf (string_of_int (List.length items));
    Buffer.add_char buf ':';
    List.iter (enc_value buf) items

let enc_document buf doc =
  let fields = Document.fields doc in
  Buffer.add_char buf 'd';
  Buffer.add_string buf (string_of_int (List.length fields));
  Buffer.add_char buf ':';
  List.iter
    (fun (name, v) ->
      enc_string buf name;
      enc_value buf v)
    fields

let enc_selector buf (sel : Query.selector) =
  match sel with
  | All -> Buffer.add_char buf 'A'
  | Key k ->
    Buffer.add_char buf 'K';
    enc_string buf k
  | Prefix p ->
    Buffer.add_char buf 'P';
    enc_string buf p
  | Key_range { lo; hi } ->
    Buffer.add_char buf 'R';
    enc_string buf lo;
    enc_string buf hi

let rec enc_predicate buf (p : Query.predicate) =
  match p with
  | True -> Buffer.add_char buf 'T'
  | Field_equals (f, v) ->
    Buffer.add_char buf 'E';
    enc_string buf f;
    enc_value buf v
  | Field_less (f, v) ->
    Buffer.add_char buf 'L';
    enc_string buf f;
    enc_value buf v
  | Field_greater (f, v) ->
    Buffer.add_char buf 'G';
    enc_string buf f;
    enc_value buf v
  | Field_matches (f, pat) ->
    Buffer.add_char buf 'M';
    enc_string buf f;
    enc_string buf pat
  | Has_field f ->
    Buffer.add_char buf 'H';
    enc_string buf f
  | Not inner ->
    Buffer.add_char buf 'N';
    enc_predicate buf inner
  | And (a, b) ->
    Buffer.add_char buf '&';
    enc_predicate buf a;
    enc_predicate buf b
  | Or (a, b) ->
    Buffer.add_char buf '|';
    enc_predicate buf a;
    enc_predicate buf b

let enc_aggregate buf (agg : Query.aggregate) =
  match agg with
  | Count -> Buffer.add_char buf 'c'
  | Sum f ->
    Buffer.add_char buf '+';
    enc_string buf f
  | Min f ->
    Buffer.add_char buf 'm';
    enc_string buf f
  | Max f ->
    Buffer.add_char buf 'x';
    enc_string buf f
  | Avg f ->
    Buffer.add_char buf 'a';
    enc_string buf f

let enc_query buf (q : Query.t) =
  match q with
  | Select { from; where; project; limit } ->
    Buffer.add_char buf 'S';
    enc_selector buf from;
    enc_predicate buf where;
    (match project with
    | None -> Buffer.add_char buf '*'
    | Some fs ->
      Buffer.add_char buf 'p';
      Buffer.add_string buf (string_of_int (List.length fs));
      Buffer.add_char buf ':';
      List.iter (enc_string buf) fs);
    (match limit with
    | None -> Buffer.add_char buf '_'
    | Some l -> enc_int buf l)
  | Grep { from; pattern } ->
    Buffer.add_char buf 'G';
    enc_selector buf from;
    enc_string buf pattern
  | Aggregate { from; where; agg } ->
    Buffer.add_char buf 'F';
    enc_selector buf from;
    enc_predicate buf where;
    enc_aggregate buf agg

let enc_result buf (r : Query_result.t) =
  match r with
  | Rows rows ->
    Buffer.add_char buf 'r';
    Buffer.add_string buf (string_of_int (List.length rows));
    Buffer.add_char buf ':';
    List.iter
      (fun (k, doc) ->
        enc_string buf k;
        enc_document buf doc)
      rows
  | Matches ms ->
    Buffer.add_char buf 'g';
    Buffer.add_string buf (string_of_int (List.length ms));
    Buffer.add_char buf ':';
    List.iter
      (fun (k, field, text) ->
        enc_string buf k;
        enc_string buf field;
        enc_string buf text)
      ms
  | Agg v ->
    Buffer.add_char buf 'v';
    enc_value buf v

let via_buffer enc x =
  let buf = Buffer.create 128 in
  enc buf x;
  Buffer.contents buf

let of_value = via_buffer enc_value
let of_document = via_buffer enc_document
let of_query = via_buffer enc_query
let of_result = via_buffer enc_result

let result_digest r = Secrep_crypto.Sha1.digest (of_result r)
let query_digest q = Secrep_crypto.Sha1.digest (of_query q)
