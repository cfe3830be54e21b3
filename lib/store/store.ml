module Key_map = Snapshot.Key_map

type t = { mutable docs : Document.t Key_map.t; mutable version : int }

let create () = { docs = Key_map.empty; version = 0 }

let version t = t.version
let key_count t = Key_map.cardinal t.docs
let get t key = Key_map.find_opt key t.docs
let mem t key = Key_map.mem key t.docs

let apply t (op : Oplog.op) =
  (match op with
  | Put { key; doc } -> t.docs <- Key_map.add key doc t.docs
  | Delete { key } -> t.docs <- Key_map.remove key t.docs
  | Set_field { key; field; value } ->
    let doc = match get t key with Some d -> d | None -> Document.empty in
    t.docs <- Key_map.add key (Document.set doc field value) t.docs
  | Remove_field { key; field } -> begin
    match get t key with
    | Some doc -> t.docs <- Key_map.add key (Document.remove doc field) t.docs
    | None -> ()
  end);
  t.version <- t.version + 1

let apply_entry t (entry : Oplog.entry) =
  if entry.version <> t.version + 1 then
    invalid_arg
      (Printf.sprintf "Store.apply_entry: version gap (store at %d, entry %d)" t.version
         entry.version);
  apply t entry.op

let string_starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let fold_selector t (sel : Query.selector) ~init ~f =
  match sel with
  | Key key -> begin
    match get t key with Some doc -> f init key doc | None -> init
  end
  | All -> Key_map.fold (fun key doc acc -> f acc key doc) t.docs init
  | Prefix prefix ->
    let seq = Key_map.to_seq_from prefix t.docs in
    let rec go acc seq =
      match seq () with
      | Seq.Nil -> acc
      | Seq.Cons ((key, doc), rest) ->
        if string_starts_with ~prefix key then go (f acc key doc) rest else acc
    in
    go init seq
  | Key_range { lo; hi } ->
    let seq = Key_map.to_seq_from lo t.docs in
    let rec go acc seq =
      match seq () with
      | Seq.Nil -> acc
      | Seq.Cons ((key, doc), rest) -> if key <= hi then go (f acc key doc) rest else acc
    in
    go init seq

let keys t = List.map fst (Key_map.bindings t.docs)

let snapshot t = Snapshot.make t.docs t.version

let restore t snap =
  t.docs <- Snapshot.docs snap;
  t.version <- Snapshot.version snap

let assign t ~from =
  t.docs <- from.docs;
  t.version <- from.version

let to_bytes t =
  let w = Codec.Writer.create () in
  Codec.Writer.varint w t.version;
  Codec.Writer.varint w (Key_map.cardinal t.docs);
  Key_map.iter
    (fun key doc ->
      Codec.Writer.bytes w key;
      Codec.Writer.bytes w (Codec.encode_document doc))
    t.docs;
  Codec.Writer.contents w

let of_bytes s =
  Codec.Reader.run s (fun r ->
      let version = Codec.Reader.varint r in
      let n = Codec.Reader.varint r in
      if n > 10_000_000 then raise (Codec.Reader.Malformed "too many documents");
      let docs = ref Key_map.empty in
      for _ = 1 to n do
        let key = Codec.Reader.bytes r in
        match Codec.decode_document (Codec.Reader.bytes r) with
        | Ok doc -> docs := Key_map.add key doc !docs
        | Error msg -> raise (Codec.Reader.Malformed ("document: " ^ msg))
      done;
      { docs = !docs; version })

let content_hash t =
  let module Sha1 = Secrep_crypto.Sha1 in
  let ctx = Sha1.init () in
  Sha1.add_char ctx 'v';
  Canonical.feed_decimal ctx t.version;
  Sha1.add_char ctx ';';
  Key_map.iter
    (fun key doc ->
      Sha1.feed ctx key;
      Sha1.add_char ctx '=';
      Canonical.feed_document ctx doc;
      Sha1.add_char ctx ';')
    t.docs;
  Sha1.finalize ctx
