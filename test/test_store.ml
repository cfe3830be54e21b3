(* Tests for the content-store substrate: the regex engine, values,
   documents, the query language and evaluator, canonical encodings,
   the versioned store, op log and result cache. *)

open Secrep_store
module Prng = Secrep_crypto.Prng

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let qtest ?(count = 200) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

(* ---------------- Regex ---------------- *)

let m pattern input = Regex.matches (Regex.compile pattern) input

let test_regex_literals () =
  check bool_t "substring found" true (m "ell" "hello");
  check bool_t "absent" false (m "wor" "hello");
  check bool_t "empty pattern matches anything" true (m "" "hello");
  check bool_t "empty input, empty pattern" true (m "" "")

let test_regex_dot_star_plus_opt () =
  check bool_t "dot" true (m "h.llo" "hello");
  check bool_t "dot needs a char" false (m "h.llo" "hllo");
  check bool_t "star zero" true (m "ab*c" "ac");
  check bool_t "star many" true (m "ab*c" "abbbbc");
  check bool_t "plus needs one" false (m "ab+c" "ac");
  check bool_t "plus many" true (m "ab+c" "abbc");
  check bool_t "opt present" true (m "colou?r" "colour");
  check bool_t "opt absent" true (m "colou?r" "color");
  check bool_t "dotstar bridges" true (m "a.*z" "a-------z")

let test_regex_classes () =
  check bool_t "simple class" true (m "[abc]at" "bat");
  check bool_t "class miss" false (m "[abc]at" "rat");
  check bool_t "range" true (m "[a-z]+" "hello");
  check bool_t "digit range" true (m "[0-9]+" "abc123");
  check bool_t "negated" true (m "[^0-9]" "a");
  check bool_t "negated miss" false (m "^[^0-9]+$" "123");
  check bool_t "class with dash last" true (m "[a-]x" "-x");
  check bool_t "escaped bracket in class" true (m "[\\]]" "]")

let test_regex_alternation_groups () =
  check bool_t "alt left" true (m "cat|dog" "a cat here");
  check bool_t "alt right" true (m "cat|dog" "a dog here");
  check bool_t "alt miss" false (m "^(cat|dog)$" "cow");
  check bool_t "group star" true (m "(ab)+" "ababab");
  check bool_t "nested" true (m "a(b(c|d))*e" "abcbde");
  check bool_t "group alt anchored" true (m "^(foo|ba(r|z))$" "baz")

let test_regex_anchors () =
  check bool_t "start anchor hit" true (m "^hel" "hello");
  check bool_t "start anchor miss" false (m "^ell" "hello");
  check bool_t "end anchor hit" true (m "llo$" "hello");
  check bool_t "end anchor miss" false (m "hel$" "hello");
  check bool_t "both anchors exact" true (m "^hello$" "hello");
  check bool_t "both anchors longer" false (m "^hello$" "hello!");
  check bool_t "empty exact" true (m "^$" "");
  check bool_t "empty exact nonempty" false (m "^$" "x")

let test_regex_escapes () =
  check bool_t "escaped dot" true (m "a\\.b" "a.b");
  check bool_t "escaped dot not any" false (m "^a\\.b$" "axb");
  check bool_t "\\d" true (m "\\d+" "abc42");
  check bool_t "\\w" true (m "^\\w+$" "hello_42");
  check bool_t "\\s" true (m "a\\sb" "a b");
  check bool_t "escaped star" true (m "2\\*3" "2*3")

let test_regex_parse_errors () =
  let fails pattern =
    match Regex.compile pattern with
    | (_ : Regex.t) -> false
    | exception Regex.Parse_error _ -> true
  in
  check bool_t "unbalanced (" true (fails "(ab");
  check bool_t "unbalanced )" true (fails "ab)");
  check bool_t "dangling *" true (fails "*ab");
  check bool_t "unterminated class" true (fails "[abc");
  check bool_t "dangling backslash" true (fails "ab\\")

let test_regex_matches_exact () =
  let r = Regex.compile "ab+" in
  check bool_t "exact hit" true (Regex.matches_exact r "abbb");
  check bool_t "exact miss (prefix junk)" false (Regex.matches_exact r "xabbb");
  check bool_t "exact miss (suffix junk)" false (Regex.matches_exact r "abbbx")

let test_regex_no_blowup () =
  (* (a+)+b against aaaa...a! is exponential for backtrackers; the
     automaton must stay linear. *)
  let r = Regex.compile "(a+)+b" in
  let input = String.make 50 'a' ^ "!" in
  let t0 = Unix.gettimeofday () in
  check bool_t "no match" false (Regex.matches r input);
  check bool_t "fast" true (Unix.gettimeofday () -. t0 < 1.0)

let test_regex_source () =
  check string_t "source preserved" "^a(b|c)$" (Regex.source (Regex.compile "^a(b|c)$"))

let test_regex_escaped_end_anchor () =
  (* A trailing '$' is an anchor unless an odd run of backslashes
     escapes it. *)
  check bool_t "\\$ is a literal dollar" true (m "\\$" "cost $5");
  check bool_t "\\$ needs a dollar" false (m "\\$" "cost 5");
  check bool_t "\\\\$ anchors after a backslash" true (m "a\\\\$" "xa\\");
  check bool_t "\\\\$ is not the text a\\$" false (m "a\\\\$" "a\\$");
  check bool_t "\\\\$ rejects a later byte" false (m "a\\\\$" "a\\b");
  check bool_t "\\\\\\$ is the text a\\$" true (m "a\\\\\\$" "xa\\$y");
  check bool_t "\\\\\\$ needs the dollar" false (m "a\\\\\\$" "xa\\");
  List.iter
    (fun (pattern, input) ->
      check bool_t
        (Printf.sprintf "oracle agrees on %S / %S" pattern input)
        (Regex_oracle.matches (Regex_oracle.compile pattern) input)
        (m pattern input))
    [ ("\\$", "$"); ("a\\\\$", "a\\"); ("a\\\\\\$", "a\\$"); ("a\\\\$", "a\\$") ]

(* State budget: (a|b)*a(a|b){10} needs one DFA state per window of
   the last 11 bytes, 2^11 in all, far more than a table holds. *)
let ab10 = String.concat "" (List.init 10 (fun _ -> "(a|b)"))

let budget_pattern = "(a|b)*a" ^ ab10

(* The same language, as an unanchored search for a suffix. *)
let budget_search_pattern = "a" ^ ab10 ^ "$"

let random_ab ~seed n =
  let g = Prng.create ~seed in
  String.init n (fun _ -> if Prng.bool g then 'a' else 'b')

(* Binary de Bruijn sequence of order [k] (prefer-ones construction):
   every k-byte window over {a,b} occurs exactly once. *)
let de_bruijn k =
  let seen = Hashtbl.create (1 lsl k) in
  let buf = Buffer.create ((1 lsl k) + k) in
  Buffer.add_string buf (String.make k 'b');
  Hashtbl.add seen (String.make k 'b') ();
  let rec extend () =
    let len = Buffer.length buf in
    let window c = Buffer.sub buf (len - k + 1) (k - 1) ^ String.make 1 c in
    match List.find_opt (fun c -> not (Hashtbl.mem seen (window c))) [ 'a'; 'b' ] with
    | Some c ->
      Hashtbl.add seen (window c) ();
      Buffer.add_char buf c;
      extend ()
    | None -> ()
  in
  extend ();
  Buffer.contents buf

let test_regex_state_budget () =
  let input = random_ab ~seed:2024L 100_000 in
  let exact = Regex.compile budget_pattern in
  let search = Regex.compile budget_search_pattern in
  let t0 = Unix.gettimeofday () in
  let got_exact = Regex.matches_exact exact input in
  let got_search = Regex.matches search input in
  let elapsed = Unix.gettimeofday () -. t0 in
  let expected = input.[String.length input - 11] = 'a' in
  check bool_t "exact: direct answer" expected got_exact;
  check bool_t "exact: oracle"
    (Regex_oracle.matches_exact (Regex_oracle.compile budget_pattern) input) got_exact;
  check bool_t "search: direct answer" expected got_search;
  check bool_t "search: oracle"
    (Regex_oracle.matches (Regex_oracle.compile budget_search_pattern) input) got_search;
  check bool_t "under a second" true (elapsed < 1.0)

let test_regex_flush_mid_string () =
  (* The de Bruijn walk visits all 2^11 window states, so each table
     flushes several times inside one input; the answer is then decided
     by the 11 bytes appended after the last flush. *)
  let walk = de_bruijn 11 in
  let exact = Regex.compile budget_pattern in
  let search = Regex.compile budget_search_pattern in
  let oracle_exact = Regex_oracle.compile budget_pattern in
  let oracle_search = Regex_oracle.compile budget_search_pattern in
  List.iter
    (fun (tail, expected) ->
      let input = walk ^ tail in
      check bool_t ("exact " ^ tail) expected (Regex.matches_exact exact input);
      check bool_t ("exact oracle " ^ tail) (Regex_oracle.matches_exact oracle_exact input)
        (Regex.matches_exact exact input);
      check bool_t ("search " ^ tail) expected (Regex.matches search input);
      check bool_t ("search oracle " ^ tail) (Regex_oracle.matches oracle_search input)
        (Regex.matches search input))
    [ ("abbbbbbbbbb", true); ("bbbbbbbbbbb", false); ("aaaaaaaaaab", true); ("baaaaaaaaaa", false) ];
  (* A table left mid-flush by one call serves the next. *)
  for len = 0 to 40 do
    let input = random_ab ~seed:(Int64.of_int len) (len * 17) in
    check bool_t (Printf.sprintf "reused table, length %d" (len * 17))
      (Regex_oracle.matches_exact oracle_exact input)
      (Regex.matches_exact exact input)
  done

(* Property: compare the NFA engine against a naive reference matcher
   over a structurally generated pattern AST (alphabet {a,b}). *)
type rx = Chr of char | Seq of rx * rx | Alt of rx * rx | Star of rx

let rec rx_to_string = function
  | Chr c -> String.make 1 c
  | Seq (a, b) -> rx_to_string a ^ rx_to_string b
  | Alt (a, b) -> "(" ^ rx_to_string a ^ "|" ^ rx_to_string b ^ ")"
  | Star a -> "(" ^ rx_to_string a ^ ")*"

exception Ref_gave_up

(* [ref_match rx s ~start ~finish]: can rx consume s from [start] to
   some j with [finish j]?  [depth] bounds the backtracking; when the
   bound trips, the oracle abstains (Ref_gave_up) rather than
   mis-reporting "no match". *)
let ref_match rx s ~start ~finish =
  let n = String.length s in
  let rec go rx i depth k =
    if depth > 400 then raise Ref_gave_up;
    match rx with
    | Chr c -> i < n && s.[i] = c && k (i + 1)
    | Seq (a, b) -> go a i (depth + 1) (fun j -> go b j (depth + 1) k)
    | Alt (a, b) -> go a i (depth + 1) k || go b i (depth + 1) k
    | Star a ->
      k i
      || go a i (depth + 1) (fun j -> if j > i then go (Star a) j (depth + 1) k else false)
  in
  go rx start 0 finish

let ref_match_exact rx s = ref_match rx s ~start:0 ~finish:(fun j -> j = String.length s)

let ref_match_substring rx s =
  List.exists
    (fun start -> ref_match rx s ~start ~finish:(fun _ -> true))
    (List.init (String.length s + 1) Fun.id)

let gen_rx =
  QCheck2.Gen.(
    sized @@ fix (fun self size ->
        if size = 0 then map (fun b -> Chr (if b then 'a' else 'b')) bool
        else
          oneof
            [
              map (fun b -> Chr (if b then 'a' else 'b')) bool;
              map2 (fun a b -> Seq (a, b)) (self (size / 2)) (self (size / 2));
              map2 (fun a b -> Alt (a, b)) (self (size / 2)) (self (size / 2));
              map (fun a -> Star a) (self (size / 2));
            ]))

let gen_ab_string =
  QCheck2.Gen.(map (fun l -> String.concat "" (List.map (fun b -> if b then "a" else "b") l))
                 (list_size (int_bound 8) bool))

let prop_regex_vs_reference =
  qtest ~count:400 "regex: NFA agrees with a naive reference matcher"
    QCheck2.Gen.(pair gen_rx gen_ab_string)
    (fun (rx, s) ->
      let pattern = rx_to_string rx in
      let compiled = Regex.compile pattern in
      (match ref_match_exact rx s with
      | expected -> Regex.matches_exact compiled s = expected
      | exception Ref_gave_up -> true)
      &&
      match ref_match_substring rx s with
      | expected -> Regex.matches compiled s = expected
      | exception Ref_gave_up -> true)

(* Differential properties against the original NFA simulation
   (test/regex_oracle.ml), over the whole pattern syntax. *)
let gen_atom =
  QCheck2.Gen.(
    oneof
      [
        map (String.make 1) (oneofl [ 'a'; 'b'; 'c'; '0'; '1'; ' '; '-'; '\000'; '\233'; '\255' ]);
        return ".";
        oneofl [ "[a-c]"; "[^ab]"; "[b-d0-3]"; "[^a-z]"; "[a-]"; "[\\]a]"; "[.$]"; "[^\\\\]"; "[\128-\255]"; "[^\000-\127]" ];
        oneofl [ "\\d"; "\\w"; "\\s" ];
        oneofl
          [ "\\."; "\\*"; "\\+"; "\\?"; "\\("; "\\)"; "\\["; "\\]"; "\\|"; "\\\\"; "\\$"; "\\^" ];
      ])

let gen_pattern =
  QCheck2.Gen.(
    let body =
      sized_size (int_bound 12)
      @@ fix (fun self size ->
             if size <= 1 then gen_atom
             else
               frequency
                 [
                   (3, gen_atom);
                   (3, map2 ( ^ ) (self (size / 2)) (self (size / 2)));
                   (2, map2 (fun a b -> a ^ "|" ^ b) (self (size / 2)) (self (size / 2)));
                   (1, map (fun a -> "(" ^ a ^ "|)") (self (size - 1)));
                   (2, map (fun a -> "(" ^ a ^ ")") (self (size - 1)));
                   (2, map2 (fun a op -> "(" ^ a ^ ")" ^ op) (self (size / 2)) (oneofl [ "*"; "+"; "?" ]));
                   (2, map2 ( ^ ) gen_atom (oneofl [ "*"; "+"; "?" ]));
                 ])
    in
    map3 (fun caret b dollar -> (if caret then "^" else "") ^ b ^ if dollar then "$" else "") bool body bool)

let gen_inputs char_gen =
  QCheck2.Gen.(list_size (int_range 1 4) (string_size ~gen:char_gen (int_bound 300)))

(* Several inputs per compiled pattern, so later inputs meet a DFA
   table already partly built. *)
let prop_regex_vs_oracle name char_gen =
  qtest ~count:1000 name
    ~print:QCheck2.Print.(pair string (list string))
    QCheck2.Gen.(pair gen_pattern (gen_inputs char_gen))
    (fun (pattern, inputs) ->
      match (Regex.compile pattern, Regex_oracle.compile pattern) with
      | exception Regex.Parse_error _ -> (
        match Regex_oracle.compile pattern with
        | exception Regex_oracle.Parse_error _ -> true
        | _ -> false)
      | dfa, nfa ->
        List.for_all
          (fun s ->
            Regex.matches dfa s = Regex_oracle.matches nfa s
            && Regex.matches_exact dfa s = Regex_oracle.matches_exact nfa s)
          inputs)

let prop_regex_oracle_small_alphabet =
  prop_regex_vs_oracle "regex: DFA agrees with the NFA oracle (small alphabet)"
    (QCheck2.Gen.oneofl [ 'a'; 'b'; 'c'; '0'; '1'; ' '; '-'; '.'; '$'; '\\'; ']'; '\000'; '\233' ])

let prop_regex_oracle_any_byte =
  prop_regex_vs_oracle "regex: DFA agrees with the NFA oracle (any byte)" QCheck2.Gen.char

(* ---------------- Value ---------------- *)

let test_value_compare_order () =
  let open Value in
  check bool_t "null < bool" true (compare Null (Bool false) < 0);
  check bool_t "int by value" true (compare (Int 1) (Int 2) < 0);
  check bool_t "string order" true (compare (String "a") (String "b") < 0);
  check bool_t "list lexicographic" true (compare (List [ Int 1 ]) (List [ Int 1; Int 2 ]) < 0);
  check bool_t "equal lists" true (equal (List [ Int 1 ]) (List [ Int 1 ]))

let test_value_numeric () =
  let open Value in
  check bool_t "int+int" true (equal (Option.get (add_numeric (Int 2) (Int 3))) (Int 5));
  check bool_t "int+float widens" true
    (equal (Option.get (add_numeric (Int 2) (Float 0.5))) (Float 2.5));
  check bool_t "string rejects" true (add_numeric (String "x") (Int 1) = None);
  check bool_t "as_float widens int" true (as_float (Int 2) = Some 2.0);
  check bool_t "as_int strict" true (as_int (Float 2.0) = None)

let gen_value =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        if n = 0 then
          oneof
            [
              return Value.Null;
              map (fun b -> Value.Bool b) bool;
              map (fun i -> Value.Int i) small_int;
              map (fun f -> Value.Float f) (float_bound_inclusive 100.0);
              map (fun s -> Value.String s) (string_size (int_bound 10));
            ]
        else map (fun l -> Value.List l) (list_size (int_bound 4) (self (n / 2)))))

let prop_value_compare_total =
  qtest "value: compare is antisymmetric" QCheck2.Gen.(pair gen_value gen_value)
    (fun (a, b) -> Value.compare a b = -Value.compare b a)

let prop_value_equal_refl =
  qtest "value: equal is reflexive" gen_value (fun v -> Value.equal v v)

(* ---------------- Document ---------------- *)

let test_document_ops () =
  let d = Document.of_fields [ ("b", Value.Int 2); ("a", Value.Int 1) ] in
  check int_t "field count" 2 (Document.field_count d);
  check bool_t "get" true (Document.get d "a" = Some (Value.Int 1));
  check bool_t "mem" true (Document.mem d "b");
  check bool_t "sorted fields" true (List.map fst (Document.fields d) = [ "a"; "b" ]);
  let d2 = Document.set d "c" Value.Null in
  check int_t "set adds" 3 (Document.field_count d2);
  check int_t "original untouched" 2 (Document.field_count d);
  let d3 = Document.remove d2 "a" in
  check bool_t "removed" false (Document.mem d3 "a");
  check bool_t "later binding wins" true
    (Document.get (Document.of_fields [ ("x", Value.Int 1); ("x", Value.Int 2) ]) "x"
    = Some (Value.Int 2))

(* ---------------- Query ---------------- *)

let test_query_validate () =
  check bool_t "good point read" true (Query.validate (Query.point_read "k") = Ok ());
  check bool_t "good grep" true (Query.validate (Query.grep "a+b") = Ok ());
  check bool_t "bad grep regex" true
    (match Query.validate (Query.grep "(((") with Error _ -> true | Ok () -> false);
  check bool_t "bad predicate regex" true
    (match
       Query.validate
         (Query.Select
            {
              from = Query.All;
              where = Query.Field_matches ("f", "[z-a]");
              project = None;
              limit = None;
            })
     with
    | Error _ -> true
    | Ok () -> false);
  check bool_t "negative limit" true
    (match
       Query.validate
         (Query.Select { from = Query.All; where = Query.True; project = None; limit = Some (-1) })
     with
    | Error _ -> true
    | Ok () -> false)

let test_query_cost_class () =
  check bool_t "point" true (Query.cost_class (Query.point_read "k") = `Point);
  check bool_t "prefix scan" true
    (Query.cost_class
       (Query.Select { from = Query.Prefix "p"; where = Query.True; project = None; limit = None })
    = `Scan);
  check bool_t "grep all is full scan" true (Query.cost_class (Query.grep "x") = `Full_scan);
  check bool_t "grep under prefix is scan" true
    (Query.cost_class (Query.grep ~under:"p" "x") = `Scan);
  check bool_t "is_point_read" true (Query.is_point_read (Query.point_read "k"))

(* ---------------- Store + eval fixtures ---------------- *)

let doc fields = Document.of_fields fields

let fixture_store () =
  let s = Store.create () in
  Store.apply s
    (Oplog.Put
       {
         key = "product:001";
         doc =
           doc
             [
               ("name", Value.String "red lamp");
               ("category", Value.String "garden");
               ("price", Value.Float 10.0);
               ("stock", Value.Int 5);
             ];
       });
  Store.apply s
    (Oplog.Put
       {
         key = "product:002";
         doc =
           doc
             [
               ("name", Value.String "blue router");
               ("category", Value.String "electronics");
               ("price", Value.Float 99.0);
               ("stock", Value.Int 2);
             ];
       });
  Store.apply s
    (Oplog.Put
       {
         key = "product:003";
         doc =
           doc
             [
               ("name", Value.String "red kettle");
               ("category", Value.String "kitchen");
               ("price", Value.Float 25.0);
               ("stock", Value.Int 0);
             ];
       });
  Store.apply s
    (Oplog.Put { key = "vendor:acme"; doc = doc [ ("name", Value.String "ACME Corp") ] });
  s

let rows_of result =
  match result with Query_result.Rows rows -> rows | _ -> Alcotest.fail "expected rows"

let agg_of result =
  match result with Query_result.Agg v -> v | _ -> Alcotest.fail "expected aggregate"

(* ---------------- Store ---------------- *)

let test_store_versioning () =
  let s = fixture_store () in
  check int_t "4 writes" 4 (Store.version s);
  check int_t "4 keys" 4 (Store.key_count s);
  Store.apply s (Oplog.Delete { key = "vendor:acme" });
  check int_t "version bumps on delete" 5 (Store.version s);
  check int_t "3 keys" 3 (Store.key_count s);
  Store.apply s (Oplog.Delete { key = "nonexistent" });
  check int_t "no-op delete still bumps" 6 (Store.version s)

let test_store_set_remove_field () =
  let s = fixture_store () in
  Store.apply s (Oplog.Set_field { key = "product:001"; field = "price"; value = Value.Float 12.0 });
  check bool_t "field updated" true
    (Document.get (Option.get (Store.get s "product:001")) "price" = Some (Value.Float 12.0));
  Store.apply s (Oplog.Remove_field { key = "product:001"; field = "stock" });
  check bool_t "field removed" false
    (Document.mem (Option.get (Store.get s "product:001")) "stock");
  Store.apply s (Oplog.Set_field { key = "fresh"; field = "a"; value = Value.Int 1 });
  check bool_t "set_field creates doc" true (Store.mem s "fresh")

let test_store_apply_entry_gap () =
  let s = fixture_store () in
  let v = Store.version s in
  Alcotest.check_raises "gap rejected"
    (Invalid_argument
       (Printf.sprintf "Store.apply_entry: version gap (store at %d, entry %d)" v (v + 2)))
    (fun () ->
      Store.apply_entry s { Oplog.version = v + 2; op = Oplog.Delete { key = "x" } })

let test_store_fold_selector () =
  let s = fixture_store () in
  let keys sel =
    List.rev (Store.fold_selector s sel ~init:[] ~f:(fun acc k _ -> k :: acc))
  in
  check (Alcotest.list string_t) "all"
    [ "product:001"; "product:002"; "product:003"; "vendor:acme" ]
    (keys Query.All);
  check (Alcotest.list string_t) "prefix" [ "product:001"; "product:002"; "product:003" ]
    (keys (Query.Prefix "product:"));
  check (Alcotest.list string_t) "range inclusive" [ "product:001"; "product:002" ]
    (keys (Query.Key_range { lo = "product:001"; hi = "product:002" }));
  check (Alcotest.list string_t) "key" [ "product:002" ] (keys (Query.Key "product:002"));
  check (Alcotest.list string_t) "missing key" [] (keys (Query.Key "nope"))

let test_store_snapshot_restore () =
  let s = fixture_store () in
  let snap = Store.snapshot s in
  Store.apply s (Oplog.Delete { key = "product:001" });
  Store.apply s (Oplog.Delete { key = "product:002" });
  check int_t "mutated" 2 (Store.key_count s - 0 |> fun _ -> Store.key_count s);
  Store.restore s snap;
  check int_t "restored keys" 4 (Store.key_count s);
  check int_t "restored version" 4 (Store.version s)

let test_store_serialization () =
  let s = fixture_store () in
  let bytes = Store.to_bytes s in
  (match Store.of_bytes bytes with
  | Ok s' ->
    check int_t "version preserved" (Store.version s) (Store.version s');
    check int_t "keys preserved" (Store.key_count s) (Store.key_count s');
    check string_t "content hash identical"
      (Secrep_crypto.Hex.encode (Store.content_hash s))
      (Secrep_crypto.Hex.encode (Store.content_hash s'))
  | Error msg -> Alcotest.fail msg);
  check bool_t "garbage rejected" true
    (match Store.of_bytes "not a store" with Error _ -> true | Ok _ -> false);
  check bool_t "truncation rejected" true
    (match Store.of_bytes (String.sub bytes 0 (String.length bytes / 2)) with
    | Error _ -> true
    | Ok _ -> false)

let test_store_content_hash () =
  let a = fixture_store () and b = fixture_store () in
  check string_t "replicas agree" (Secrep_crypto.Hex.encode (Store.content_hash a))
    (Secrep_crypto.Hex.encode (Store.content_hash b));
  Store.apply b (Oplog.Delete { key = "vendor:acme" });
  check bool_t "divergence changes hash" false
    (String.equal (Store.content_hash a) (Store.content_hash b))

(* ---------------- Oplog ---------------- *)

let test_oplog () =
  let log = Oplog.create () in
  check int_t "empty last" 0 (Oplog.last_version log);
  Oplog.append log { Oplog.version = 1; op = Oplog.Delete { key = "a" } };
  Oplog.append log { Oplog.version = 2; op = Oplog.Delete { key = "b" } };
  Oplog.append log { Oplog.version = 5; op = Oplog.Delete { key = "c" } };
  check int_t "length" 3 (Oplog.length log);
  check int_t "last" 5 (Oplog.last_version log);
  check int_t "after 1" 2 (List.length (Oplog.entries_after log 1));
  check int_t "after 5" 0 (List.length (Oplog.entries_after log 5));
  check bool_t "ordered oldest first" true
    (List.map (fun e -> e.Oplog.version) (Oplog.entries_after log 0) = [ 1; 2; 5 ]);
  Alcotest.check_raises "non-monotonic"
    (Invalid_argument "Oplog.append: version must be strictly increasing") (fun () ->
      Oplog.append log { Oplog.version = 4; op = Oplog.Delete { key = "d" } })

(* ---------------- Query_eval ---------------- *)

let test_eval_select_where () =
  let s = fixture_store () in
  let q =
    Query.Select
      {
        from = Query.Prefix "product:";
        where = Query.Field_equals ("category", Value.String "garden");
        project = None;
        limit = None;
      }
  in
  let { Query_eval.result; scanned } = Query_eval.execute_exn s q in
  check int_t "scanned all products" 3 scanned;
  check (Alcotest.list string_t) "matched" [ "product:001" ] (List.map fst (rows_of result))

let test_eval_comparisons () =
  let s = fixture_store () in
  let run where =
    let { Query_eval.result; _ } =
      Query_eval.execute_exn s
        (Query.Select { from = Query.Prefix "product:"; where; project = None; limit = None })
    in
    List.map fst (rows_of result)
  in
  check (Alcotest.list string_t) "less" [ "product:001" ]
    (run (Query.Field_less ("price", Value.Float 20.0)));
  check (Alcotest.list string_t) "greater" [ "product:002"; "product:003" ]
    (run (Query.Field_greater ("price", Value.Float 20.0)));
  check (Alcotest.list string_t) "and" [ "product:003" ]
    (run
       (Query.And
          ( Query.Field_greater ("price", Value.Float 20.0),
            Query.Field_equals ("stock", Value.Int 0) )));
  check (Alcotest.list string_t) "or" [ "product:001"; "product:003" ]
    (run
       (Query.Or
          ( Query.Field_equals ("category", Value.String "garden"),
            Query.Field_equals ("category", Value.String "kitchen") )));
  check (Alcotest.list string_t) "not" [ "product:002"; "product:003" ]
    (run (Query.Not (Query.Field_equals ("category", Value.String "garden"))));
  check (Alcotest.list string_t) "has_field all" [ "product:001"; "product:002"; "product:003" ]
    (run (Query.Has_field "price"));
  check (Alcotest.list string_t) "regex predicate" [ "product:001"; "product:003" ]
    (run (Query.Field_matches ("name", "^red")))

let test_eval_projection_limit () =
  let s = fixture_store () in
  let q =
    Query.Select
      {
        from = Query.Prefix "product:";
        where = Query.True;
        project = Some [ "price"; "ghost" ];
        limit = Some 2;
      }
  in
  let { Query_eval.result; _ } = Query_eval.execute_exn s q in
  let rows = rows_of result in
  check int_t "limited" 2 (List.length rows);
  List.iter
    (fun (_, d) ->
      check bool_t "only price kept" true (Document.mem d "price" && Document.field_count d = 1))
    rows

let test_eval_grep () =
  let s = fixture_store () in
  let { Query_eval.result; _ } = Query_eval.execute_exn s (Query.grep "red") in
  match result with
  | Query_result.Matches ms ->
    check int_t "two reds" 2 (List.length ms);
    List.iter (fun (_, field, _) -> check string_t "in name field" "name" field) ms
  | _ -> Alcotest.fail "expected matches"

let test_eval_aggregates () =
  let s = fixture_store () in
  let run agg =
    agg_of
      (Query_eval.execute_exn s
         (Query.Aggregate { from = Query.Prefix "product:"; where = Query.True; agg }))
        .Query_eval.result
  in
  check bool_t "count" true (Value.equal (run Query.Count) (Value.Int 3));
  check bool_t "sum" true (Value.equal (run (Query.Sum "price")) (Value.Float 134.0));
  check bool_t "min" true (Value.equal (run (Query.Min "price")) (Value.Float 10.0));
  check bool_t "max" true (Value.equal (run (Query.Max "stock")) (Value.Int 5));
  check bool_t "avg" true
    (match run (Query.Avg "price") with
    | Value.Float f -> Float.abs (f -. (134.0 /. 3.0)) < 1e-9
    | _ -> false)

let test_eval_aggregate_empty_and_missing () =
  let s = Store.create () in
  let run agg =
    agg_of
      (Query_eval.execute_exn s (Query.Aggregate { from = Query.All; where = Query.True; agg }))
        .Query_eval.result
  in
  check bool_t "count empty" true (Value.equal (run Query.Count) (Value.Int 0));
  check bool_t "sum empty is null" true (Value.equal (run (Query.Sum "x")) Value.Null);
  check bool_t "avg empty is null" true (Value.equal (run (Query.Avg "x")) Value.Null);
  let s2 = fixture_store () in
  let { Query_eval.result; _ } =
    Query_eval.execute_exn s2
      (Query.Aggregate { from = Query.Key "vendor:acme"; where = Query.True; agg = Query.Sum "price" })
  in
  check bool_t "missing field sums to null" true (Value.equal (agg_of result) Value.Null)

let test_eval_bad_query () =
  let s = fixture_store () in
  check bool_t "bad regex is Error" true
    (match Query_eval.execute s (Query.grep "(((") with Error _ -> true | Ok _ -> false)

let test_eval_deterministic_across_replicas () =
  let a = fixture_store () and b = fixture_store () in
  let queries =
    [
      Query.point_read "product:002";
      Query.grep "red";
      Query.Aggregate { from = Query.All; where = Query.True; agg = Query.Sum "stock" };
      Query.Select
        { from = Query.Prefix "product:"; where = Query.Has_field "price"; project = None; limit = None };
    ]
  in
  List.iter
    (fun q ->
      let ra = (Query_eval.execute_exn a q).Query_eval.result in
      let rb = (Query_eval.execute_exn b q).Query_eval.result in
      check string_t "identical canonical digests"
        (Secrep_crypto.Hex.encode (Canonical.result_digest ra))
        (Secrep_crypto.Hex.encode (Canonical.result_digest rb)))
    queries

let test_eval_cost_seconds () =
  let c1 = Query_eval.cost_seconds ~scanned:0 ~cost_class:`Point ~per_doc:50e-6 in
  let c2 = Query_eval.cost_seconds ~scanned:1000 ~cost_class:`Full_scan ~per_doc:50e-6 in
  check bool_t "point cheap" true (c1 < 1e-4);
  check bool_t "scan pays per doc" true (c2 > 0.05)

(* ---------------- Canonical ---------------- *)

let test_canonical_distinguishes () =
  let open Query_result in
  let pairs =
    [
      (Rows [], Matches []);
      (Agg (Value.Int 1), Agg (Value.Float 1.0));
      (Agg (Value.String "1"), Agg (Value.Int 1));
      (Rows [ ("k", doc [ ("a", Value.Int 1) ]) ], Rows [ ("k", doc [ ("a", Value.Int 2) ]) ]);
      (Matches [ ("k", "f", "ab") ], Matches [ ("ka", "", "b") |> fun (a, b, c) -> (a, b, c) ]);
    ]
  in
  List.iter
    (fun (a, b) ->
      check bool_t "encodings differ" false
        (String.equal (Canonical.of_result a) (Canonical.of_result b)))
    pairs

(* One query of every syntactic form. *)
let query_forms =
  [
    Query.point_read "k";
    Query.Select { from = Query.Key "k"; where = Query.True; project = Some []; limit = None };
    Query.Select { from = Query.Key "k"; where = Query.True; project = None; limit = Some 0 };
    Query.Select { from = Query.Prefix "k"; where = Query.True; project = None; limit = None };
    Query.Select
      { from = Query.Key_range { lo = "k"; hi = "k" }; where = Query.True; project = None; limit = None };
    Query.Select { from = Query.All; where = Query.True; project = None; limit = None };
    Query.Select
      { from = Query.All; where = Query.Has_field "k"; project = None; limit = None };
    Query.Select
      { from = Query.All; where = Query.Field_equals ("k", Value.Null); project = None; limit = None };
    Query.Select
      { from = Query.All; where = Query.Not Query.True; project = None; limit = None };
    Query.Select
      { from = Query.All; where = Query.And (Query.True, Query.True); project = None; limit = None };
    Query.Select
      { from = Query.All; where = Query.Or (Query.True, Query.True); project = None; limit = None };
    Query.grep "k";
    Query.grep ~under:"k" "k";
    Query.Aggregate { from = Query.All; where = Query.True; agg = Query.Count };
    Query.Aggregate { from = Query.All; where = Query.True; agg = Query.Sum "k" };
    Query.Aggregate { from = Query.All; where = Query.True; agg = Query.Min "k" };
    Query.Aggregate { from = Query.All; where = Query.True; agg = Query.Max "k" };
    Query.Aggregate { from = Query.All; where = Query.True; agg = Query.Avg "k" };
    Query.Select
      { from = Query.All; where = Query.Field_less ("k", Value.Int 0); project = None; limit = None };
    Query.Select
      {
        from = Query.All;
        where = Query.Field_greater ("k", Value.Float 0.5);
        project = None;
        limit = None;
      };
    Query.Select
      { from = Query.All; where = Query.Field_matches ("k", "^k$"); project = None; limit = None };
    Query.Select
      { from = Query.Key ""; where = Query.True; project = Some [ "a"; "" ]; limit = Some max_int };
    Query.Select
      { from = Query.Key ""; where = Query.True; project = None; limit = Some min_int };
  ]

let test_canonical_all_query_forms_distinct () =
  (* Each syntactic query form must have a distinct canonical digest:
     the pledge binds "a copy of the request" and two different
     requests must never collide. *)
  let digests =
    List.map (fun q -> Secrep_crypto.Hex.encode (Canonical.query_digest q)) query_forms
  in
  check int_t "all digests distinct" (List.length query_forms)
    (List.length (List.sort_uniq String.compare digests))

let test_canonical_query_digest () =
  let q1 = Query.point_read "a" and q2 = Query.point_read "b" in
  check bool_t "query digests differ" false
    (String.equal (Canonical.query_digest q1) (Canonical.query_digest q2));
  check bool_t "same query same digest" true
    (String.equal (Canonical.query_digest q1) (Canonical.query_digest (Query.point_read "a")))

let prop_canonical_value_injective_ish =
  qtest ~count:300 "canonical: distinct values encode distinctly"
    QCheck2.Gen.(pair gen_value gen_value)
    (fun (a, b) ->
      if Value.equal a b then String.equal (Canonical.of_value a) (Canonical.of_value b)
      else not (String.equal (Canonical.of_value a) (Canonical.of_value b)))

(* ---------------- Codec ---------------- *)

let gen_document =
  QCheck2.Gen.(
    map Document.of_fields
      (list_size (int_bound 6) (pair (string_size (int_bound 8)) gen_value)))

let gen_selector =
  QCheck2.Gen.(
    oneof
      [
        return Query.All;
        map (fun k -> Query.Key k) (string_size (int_bound 8));
        map (fun p -> Query.Prefix p) (string_size (int_bound 8));
        map2 (fun lo hi -> Query.Key_range { lo; hi }) (string_size (int_bound 8))
          (string_size (int_bound 8));
      ])

let gen_predicate =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return Query.True;
              map2 (fun f v -> Query.Field_equals (f, v)) (string_size (int_bound 6)) gen_value;
              map2 (fun f v -> Query.Field_less (f, v)) (string_size (int_bound 6)) gen_value;
              map2
                (fun f p -> Query.Field_matches (f, p))
                (string_size (int_bound 6))
                (string_size (int_bound 6));
              map (fun f -> Query.Has_field f) (string_size (int_bound 6));
            ]
        in
        if n = 0 then leaf
        else
          oneof
            [
              leaf;
              map (fun p -> Query.Not p) (self (n / 2));
              map2 (fun a b -> Query.And (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Query.Or (a, b)) (self (n / 2)) (self (n / 2));
            ]))

let gen_query =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun (from, where) (project, limit) -> Query.Select { from; where; project; limit })
          (pair gen_selector gen_predicate)
          (pair
             (option (list_size (int_bound 4) (string_size (int_bound 6))))
             (option (int_bound 100)));
        map2 (fun from pattern -> Query.Grep { from; pattern }) gen_selector
          (string_size (int_bound 8));
        map2
          (fun (from, where) agg -> Query.Aggregate { from; where; agg })
          (pair gen_selector gen_predicate)
          (oneof
             [
               return Query.Count;
               map (fun f -> Query.Sum f) (string_size (int_bound 6));
               map (fun f -> Query.Min f) (string_size (int_bound 6));
               map (fun f -> Query.Max f) (string_size (int_bound 6));
               map (fun f -> Query.Avg f) (string_size (int_bound 6));
             ]);
      ])

let prop_codec_value_roundtrip =
  qtest ~count:400 "codec: value roundtrip" gen_value (fun v ->
      match Codec.decode_value (Codec.encode_value v) with
      | Ok v' -> Value.equal v v'
      | Error _ -> false)

let prop_codec_document_roundtrip =
  qtest ~count:300 "codec: document roundtrip" gen_document (fun d ->
      match Codec.decode_document (Codec.encode_document d) with
      | Ok d' -> Document.equal d d'
      | Error _ -> false)

let prop_codec_query_roundtrip =
  qtest ~count:300 "codec: query roundtrip" gen_query (fun q ->
      match Codec.decode_query (Codec.encode_query q) with
      | Ok q' -> Query.equal q q'
      | Error _ -> false)

let gen_result =
  QCheck2.Gen.(
    oneof
      [
        map (fun rows -> Query_result.Rows rows)
          (list_size (int_bound 5) (pair (string_size (int_bound 6)) gen_document));
        map (fun ms -> Query_result.Matches ms)
          (list_size (int_bound 5)
             (triple (string_size (int_bound 6)) (string_size (int_bound 6))
                (string_size (int_bound 6))));
        map (fun v -> Query_result.Agg v) gen_value;
      ])

let prop_codec_result_roundtrip =
  qtest ~count:200 "codec: result roundtrip" gen_result
    (fun res ->
      match Codec.decode_result (Codec.encode_result res) with
      | Ok res' -> Query_result.equal res res'
      | Error _ -> false)

(* ---------------- Canonical vs the replaced encoder ---------------- *)

(* [Canonical] writes one encoder against a byte/substring sink and
   streams digests straight into SHA-1; [Canonical_oracle] is the
   Buffer/[Printf] encoder it replaced.  Every [of_*] string must be
   byte-equal to the oracle's, and every streamed digest must equal
   SHA-1 of the oracle's string. *)

let sha1 = Secrep_crypto.Sha1.digest

let canonical_matches_oracle_value v =
  String.equal (Canonical.of_value v) (Canonical_oracle.of_value v)

let canonical_matches_oracle_document d =
  let streamed =
    let ctx = Secrep_crypto.Sha1.init () in
    Canonical.feed_document ctx d;
    Secrep_crypto.Sha1.finalize ctx
  in
  String.equal (Canonical.of_document d) (Canonical_oracle.of_document d)
  && String.equal streamed (sha1 (Canonical_oracle.of_document d))

let canonical_matches_oracle_query q =
  String.equal (Canonical.of_query q) (Canonical_oracle.of_query q)
  && String.equal (Canonical.query_digest q) (sha1 (Canonical_oracle.of_query q))

let canonical_matches_oracle_result r =
  String.equal (Canonical.of_result r) (Canonical_oracle.of_result r)
  && String.equal (Canonical.result_digest r) (sha1 (Canonical_oracle.of_result r))

let edge_ints = [ min_int; min_int + 1; -10; -9; -1; 0; 1; 9; 10; 99; 100; max_int - 1; max_int ]

let edge_floats =
  [
    0.0; -0.0; Float.nan; Float.neg Float.nan; Int64.float_of_bits 0x7FF0000000000001L;
    Float.infinity; Float.neg_infinity; 5e-324; -5e-324;
    Int64.float_of_bits 0x000FFFFFFFFFFFFFL; Float.min_float; Float.max_float;
    Float.neg Float.max_float; 1.0; -1.5; 0.1; Int64.float_of_bits 0x00000000FFFFFFFFL;
    Int64.float_of_bits 0x0000000100000000L;
  ]

let edge_values =
  let open Value in
  [ Null; Bool true; Bool false; String ""; String (String.make 300 's'); List [];
    List [ List [] ]; List [ List [ List [ Null ] ]; String ""; List [] ] ]
  @ List.map (fun i -> Int i) edge_ints
  @ List.map (fun f -> Float f) edge_floats
  @ [ List (List.map (fun f -> Float f) edge_floats); List (List.map (fun i -> Int i) edge_ints) ]

let test_canonical_oracle_edges () =
  List.iter
    (fun v ->
      let name = Canonical_oracle.of_value v in
      check bool_t ("value " ^ String.escaped name) true (canonical_matches_oracle_value v);
      check bool_t ("agg " ^ String.escaped name) true
        (canonical_matches_oracle_result (Query_result.Agg v));
      check bool_t ("document field " ^ String.escaped name) true
        (canonical_matches_oracle_document (doc [ ("", v); ("f", v) ])))
    edge_values;
  List.iter
    (fun i ->
      let ctx = Secrep_crypto.Sha1.init () in
      Canonical.feed_decimal ctx i;
      check string_t ("decimal " ^ string_of_int i)
        (Secrep_crypto.Hex.encode (sha1 (string_of_int i)))
        (Secrep_crypto.Hex.encode (Secrep_crypto.Sha1.finalize ctx)))
    edge_ints;
  List.iter
    (fun r ->
      check bool_t ("result " ^ String.escaped (Canonical_oracle.of_result r)) true
        (canonical_matches_oracle_result r))
    Query_result.
      [
        Rows []; Matches []; Rows [ ("", Document.empty) ]; Matches [ ("", "", "") ];
        Rows [ ("k", doc (List.mapi (fun i v -> (string_of_int i, v)) edge_values)) ];
      ];
  List.iter
    (fun q ->
      check bool_t ("query " ^ String.escaped (Canonical_oracle.of_query q)) true
        (canonical_matches_oracle_query q))
    (query_forms
    @ List.map
        (fun v ->
          Query.Select
            { from = Query.All; where = Query.Field_equals ("f", v); project = None; limit = None })
        edge_values)

(* Full-range ints, arbitrary floats and longer strings, which
   [gen_value] leaves out; lists nest at most three deep. *)
let gen_wide_value =
  QCheck2.Gen.(
    let leaf =
      oneof
        [
          return Value.Null;
          map (fun b -> Value.Bool b) bool;
          map (fun i -> Value.Int i) int;
          map (fun f -> Value.Float f) float;
          map (fun f -> Value.Float f) (oneofl edge_floats);
          map (fun s -> Value.String s) (string_size (int_bound 80));
        ]
    in
    fix
      (fun self depth ->
        if depth = 0 then leaf
        else
          frequency
            [ (3, leaf); (1, map (fun l -> Value.List l) (list_size (int_bound 4) (self (depth - 1)))) ])
      3)

let prop_canonical_oracle_values =
  qtest ~count:300 "canonical: values and documents match the replaced encoder"
    QCheck2.Gen.(
      pair gen_wide_value
        (map Document.of_fields
           (list_size (int_bound 6) (pair (string_size (int_bound 8)) gen_wide_value))))
    (fun (v, d) ->
      canonical_matches_oracle_value v
      && canonical_matches_oracle_result (Query_result.Agg v)
      && canonical_matches_oracle_document d)

(* Every query shape over [gen_wide_value] operands, predicates nested
   at most three deep ([gen_query] draws much larger trees). *)
let gen_wide_query =
  QCheck2.Gen.(
    let name = string_size (int_bound 8) in
    let predicate =
      fix
        (fun self depth ->
          let leaf =
            oneof
              [
                return Query.True;
                map2 (fun f v -> Query.Field_equals (f, v)) name gen_wide_value;
                map2 (fun f v -> Query.Field_less (f, v)) name gen_wide_value;
                map2 (fun f v -> Query.Field_greater (f, v)) name gen_wide_value;
                map2 (fun f p -> Query.Field_matches (f, p)) name name;
                map (fun f -> Query.Has_field f) name;
              ]
          in
          if depth = 0 then leaf
          else
            oneof
              [
                leaf;
                map (fun p -> Query.Not p) (self (depth - 1));
                map2 (fun a b -> Query.And (a, b)) (self (depth - 1)) (self (depth - 1));
                map2 (fun a b -> Query.Or (a, b)) (self (depth - 1)) (self (depth - 1));
              ])
        3
    in
    let aggregate =
      oneof
        [
          return Query.Count;
          map (fun f -> Query.Sum f) name;
          map (fun f -> Query.Min f) name;
          map (fun f -> Query.Max f) name;
          map (fun f -> Query.Avg f) name;
        ]
    in
    oneof
      [
        map2
          (fun (from, where) (project, limit) -> Query.Select { from; where; project; limit })
          (pair gen_selector predicate)
          (pair (option (list_size (int_bound 4) name)) (option int));
        map2 (fun from pattern -> Query.Grep { from; pattern }) gen_selector name;
        map2
          (fun (from, where) agg -> Query.Aggregate { from; where; agg })
          (pair gen_selector predicate) aggregate;
      ])

let gen_wide_result =
  QCheck2.Gen.(
    let name = string_size (int_bound 12) in
    let document = map Document.of_fields (list_size (int_bound 6) (pair name gen_wide_value)) in
    oneof
      [
        map (fun rows -> Query_result.Rows rows) (list_size (int_bound 8) (pair name document));
        map (fun ms -> Query_result.Matches ms) (list_size (int_bound 8) (triple name name name));
        map (fun v -> Query_result.Agg v) gen_wide_value;
      ])

let prop_canonical_oracle_queries_results =
  qtest ~count:300 "canonical: queries and results match the replaced encoder"
    QCheck2.Gen.(pair gen_wide_query gen_wide_result)
    (fun (q, r) -> canonical_matches_oracle_query q && canonical_matches_oracle_result r)

let test_content_hash_oracle () =
  let s = fixture_store () in
  Store.apply s (Oplog.Put { key = "edge"; doc = doc (List.mapi (fun i v -> (string_of_int i, v)) edge_values) });
  let expected =
    Store.fold_selector s Query.All
      ~init:(Printf.sprintf "v%d;" (Store.version s))
      ~f:(fun acc key d -> acc ^ key ^ "=" ^ Canonical_oracle.of_document d ^ ";")
  in
  check string_t "content hash streams the replaced bytes"
    (Secrep_crypto.Hex.encode (sha1 expected))
    (Secrep_crypto.Hex.encode (Store.content_hash s))

let prop_codec_never_raises_on_garbage =
  qtest ~count:500 "codec: decoders never raise on random bytes" QCheck2.Gen.string
    (fun s ->
      let safe f = match f s with Ok _ | Error _ -> true | exception _ -> false in
      safe Codec.decode_value && safe Codec.decode_document && safe Codec.decode_query
      && safe Codec.decode_result && safe Codec.decode_entries)

let prop_codec_truncation_fails_cleanly =
  qtest ~count:200 "codec: truncated encodings yield Error" gen_query (fun q ->
      let s = Codec.encode_query q in
      String.length s = 0
      || begin
           let truncated = String.sub s 0 (String.length s - 1) in
           match Codec.decode_query truncated with
           | Error _ -> true
           | Ok q' ->
             (* A shorter valid encoding may exist only if the final
                byte was redundant — never the case for our writer. *)
             Query.equal q q'
         end)

let test_codec_entries_roundtrip () =
  let entries =
    [
      { Oplog.version = 1; op = Oplog.Put { key = "a"; doc = doc [ ("x", Value.Int 1) ] } };
      { Oplog.version = 2; op = Oplog.Delete { key = "a" } };
      { Oplog.version = 3; op = Oplog.Set_field { key = "b"; field = "f"; value = Value.Null } };
      { Oplog.version = 4; op = Oplog.Remove_field { key = "b"; field = "f" } };
    ]
  in
  match Codec.decode_entries (Codec.encode_entries entries) with
  | Ok back ->
    check int_t "length" 4 (List.length back);
    check bool_t "identical" true (entries = back)
  | Error msg -> Alcotest.fail msg

let test_codec_negative_int () =
  match Codec.decode_value (Codec.encode_value (Value.Int (-42))) with
  | Ok v -> check bool_t "negative int survives" true (Value.equal v (Value.Int (-42)))
  | Error msg -> Alcotest.fail msg

(* ---------------- Result_cache ---------------- *)

let test_result_cache_hit_miss () =
  let c = Result_cache.create ~capacity:10 () in
  let q = Query.point_read "k" in
  check bool_t "miss" true (Result_cache.find c ~version:1 q = None);
  Result_cache.store c ~version:1 q ~digest:"d1";
  check bool_t "hit" true (Result_cache.find c ~version:1 q = Some "d1");
  check bool_t "other version misses" true (Result_cache.find c ~version:2 q = None);
  check int_t "hits" 1 (Result_cache.hits c);
  check int_t "misses" 2 (Result_cache.misses c);
  check bool_t "hit rate" true (Float.abs (Result_cache.hit_rate c -. (1.0 /. 3.0)) < 1e-9)

let test_result_cache_lru () =
  let c = Result_cache.create ~capacity:3 () in
  let q i = Query.point_read (string_of_int i) in
  Result_cache.store c ~version:1 (q 1) ~digest:"d1";
  Result_cache.store c ~version:1 (q 2) ~digest:"d2";
  Result_cache.store c ~version:1 (q 3) ~digest:"d3";
  (* touch q1 so q2 is the oldest *)
  ignore (Result_cache.find c ~version:1 (q 1));
  Result_cache.store c ~version:1 (q 4) ~digest:"d4";
  check int_t "capacity held" 3 (Result_cache.size c);
  check bool_t "q2 evicted" true (Result_cache.find c ~version:1 (q 2) = None);
  check bool_t "q1 kept" true (Result_cache.find c ~version:1 (q 1) = Some "d1");
  check bool_t "q4 present" true (Result_cache.find c ~version:1 (q 4) = Some "d4")

let test_result_cache_restore_updates () =
  (* Regression: [store] on an existing key used to be a silent no-op,
     keeping the stale digest and the stale recency. *)
  let c = Result_cache.create ~capacity:10 () in
  let q = Query.point_read "k" in
  Result_cache.store c ~version:1 q ~digest:"old";
  Result_cache.store c ~version:1 q ~digest:"new";
  check int_t "still one entry" 1 (Result_cache.size c);
  check bool_t "digest updated" true (Result_cache.find c ~version:1 q = Some "new")

let test_result_cache_restore_refreshes_recency () =
  let c = Result_cache.create ~capacity:3 () in
  let q i = Query.point_read (string_of_int i) in
  Result_cache.store c ~version:1 (q 1) ~digest:"d1";
  Result_cache.store c ~version:1 (q 2) ~digest:"d2";
  Result_cache.store c ~version:1 (q 3) ~digest:"d3";
  (* Re-store q1: it must become the most recent, leaving q2 oldest. *)
  Result_cache.store c ~version:1 (q 1) ~digest:"d1'";
  Result_cache.store c ~version:1 (q 4) ~digest:"d4";
  check int_t "capacity held" 3 (Result_cache.size c);
  check bool_t "q2 evicted, not the re-stored q1" true
    (Result_cache.find c ~version:1 (q 2) = None);
  check bool_t "q1 kept with updated digest" true
    (Result_cache.find c ~version:1 (q 1) = Some "d1'");
  check bool_t "q4 present" true (Result_cache.find c ~version:1 (q 4) = Some "d4")

(* ---------------- Query_key ---------------- *)

(* One canonical-digest helper feeds both memoization layers: if these
   ever disagree, the dedup index would settle pledges against digests
   the result cache never produced. *)
let test_query_key_matches_canonical () =
  let queries =
    [
      Query.point_read "k";
      Query.point_read "";
      Query.Select
        {
          from = Query.All;
          where = Query.Field_greater ("stock", Value.Int 3);
          project = None;
          limit = None;
        };
    ]
  in
  List.iter
    (fun q ->
      check string_t "encoding = Canonical.of_query" (Canonical.of_query q)
        (Query_key.of_query q);
      check string_t "digest = Canonical.query_digest" (Canonical.query_digest q)
        (Query_key.digest q);
      check bool_t "versioned pairs version with the encoding" true
        (Query_key.versioned ~version:7 q = (7, Canonical.of_query q)))
    queries

let test_query_key_shared_by_cache_and_index () =
  (* The same (version, query) stored in both layers is found by both;
     a different version or query is found by neither. *)
  let cache = Result_cache.create ~capacity:10 () in
  let index = Audit_index.create () in
  let q = Query.point_read "k" in
  Result_cache.store cache ~version:3 q ~digest:"d";
  Audit_index.store index ~version:3 q ~digest:"d";
  check bool_t "cache hit" true (Result_cache.find cache ~version:3 q = Some "d");
  check bool_t "index hit" true (Audit_index.find index ~version:3 q = Some "d");
  check bool_t "cache: version mismatch misses" true
    (Result_cache.find cache ~version:4 q = None);
  check bool_t "index: version mismatch misses" true
    (Audit_index.find index ~version:4 q = None);
  let q' = Query.point_read "other" in
  check bool_t "cache: query mismatch misses" true
    (Result_cache.find cache ~version:3 q' = None);
  check bool_t "index: query mismatch misses" true
    (Audit_index.find index ~version:3 q' = None)

(* ---------------- Audit_index ---------------- *)

let test_audit_index_hits_distinct () =
  let idx = Audit_index.create () in
  let q i = Query.point_read (string_of_int i) in
  check bool_t "empty miss" true (Audit_index.find idx ~version:1 (q 1) = None);
  Audit_index.store idx ~version:1 (q 1) ~digest:"d1";
  Audit_index.store idx ~version:1 (q 2) ~digest:"d2";
  check int_t "two distinct re-executions" 2 (Audit_index.distinct idx);
  check bool_t "hit q1" true (Audit_index.find idx ~version:1 (q 1) = Some "d1");
  check bool_t "hit q1 again" true (Audit_index.find idx ~version:1 (q 1) = Some "d1");
  check bool_t "hit q2" true (Audit_index.find idx ~version:1 (q 2) = Some "d2");
  check int_t "three hits" 3 (Audit_index.hits idx);
  (* A re-store of an existing key is ignored: within a version the
     honest digest cannot change. *)
  Audit_index.store idx ~version:1 (q 1) ~digest:"clobber";
  check int_t "re-store not counted distinct" 2 (Audit_index.distinct idx);
  check bool_t "original digest kept" true
    (Audit_index.find idx ~version:1 (q 1) = Some "d1");
  check bool_t "hit rate = 4/(4+2)" true
    (Float.abs (Audit_index.hit_rate idx -. (4.0 /. 6.0)) < 1e-9)

let test_audit_index_drop_version () =
  let idx = Audit_index.create () in
  let q i = Query.point_read (string_of_int i) in
  Audit_index.store idx ~version:1 (q 1) ~digest:"a";
  Audit_index.store idx ~version:1 (q 2) ~digest:"b";
  Audit_index.store idx ~version:2 (q 1) ~digest:"c";
  check int_t "three live entries" 3 (Audit_index.size idx);
  Audit_index.drop_version idx ~version:1;
  check int_t "version 1 gone" 1 (Audit_index.size idx);
  check bool_t "v1 entries dropped" true (Audit_index.find idx ~version:1 (q 1) = None);
  check bool_t "v2 entry survives" true (Audit_index.find idx ~version:2 (q 1) = Some "c");
  (* Dropping an absent version is a no-op. *)
  Audit_index.drop_version idx ~version:9;
  check int_t "no-op drop" 1 (Audit_index.size idx);
  (* Counters describe history, not liveness: drop does not rewind them. *)
  check int_t "distinct unchanged by drop" 3 (Audit_index.distinct idx)

(* ---------------- Regex corner cases ---------------- *)

let test_regex_empty_pattern () =
  (* An empty pattern matches everywhere, like grep "". *)
  check bool_t "empty vs empty" true (m "" "");
  check bool_t "empty vs text" true (m "" "anything");
  check bool_t "empty alternative" true (m "(|a)b" "b")

let test_regex_anchor_corners () =
  check bool_t "^$ matches empty" true (m "^$" "");
  check bool_t "^$ rejects non-empty" false (m "^$" "x");
  check bool_t "bare ^ matches anything" true (m "^" "abc");
  check bool_t "bare $ matches anything" true (m "$" "abc");
  check bool_t "^ anchors the search" false (m "^bc" "abc");
  check bool_t "$ anchors the search" false (m "ab$" "abc");
  check bool_t "both anchors" true (m "^abc$" "abc");
  check bool_t "both anchors reject superstring" false (m "^abc$" "xabcx")

let test_regex_star_backtracking () =
  (* Patterns where a greedy/backtracking matcher must give back
     characters; the NFA simulation should just get these right. *)
  check bool_t "a*a needs give-back" true (m "^a*a$" "aaa");
  check bool_t "a*ab" true (m "^a*ab$" "aaab");
  check bool_t "(a|ab)*c" true (m "^(a|ab)*c$" "aababc");
  check bool_t ".*b finds last b" true (m "^.*b$" "abab");
  check bool_t "a*a*a matches single a" true (m "^a*a*a$" "a");
  check bool_t "star of empty-capable group terminates" true (m "^(a?)*b$" "aab")

let test_regex_class_edges () =
  check bool_t "literal - at end" true (m "^[a-]$" "-");
  check bool_t "literal - at start" true (m "^[-a]$" "-");
  check bool_t "single-char range" true (m "^[a-a]$" "a");
  check bool_t "negated class" false (m "^[^a-c]$" "b");
  check bool_t "negated class hit" true (m "^[^a-c]$" "z");
  check bool_t "class with escape" true (m "^[\\]]$" "]");
  check bool_t "caret mid-class is literal" true (m "^[a^]$" "^");
  let parse_fails pattern =
    match Regex.compile pattern with
    | (_ : Regex.t) -> false
    | exception Regex.Parse_error _ -> true
  in
  check bool_t "unterminated class" true (parse_fails "[ab");
  check bool_t "reversed range" true (parse_fails "[z-a]")

(* ---------------- Codec adversarial round-trips ---------------- *)

let test_codec_roundtrip_adversarial_values () =
  let deep =
    (* 200 levels of list nesting: decoders must not overflow or
       misparse length prefixes. *)
    let rec nest n v = if n = 0 then v else nest (n - 1) (Value.List [ v ]) in
    nest 200 (Value.String "core")
  in
  let gnarly =
    [
      deep;
      Value.String (String.init 256 Char.chr);
      Value.String "";
      Value.List [];
      Value.List [ Value.Null; Value.Bool false; Value.List [ Value.Int min_int ] ];
      Value.Int max_int;
      Value.Int min_int;
      Value.Float Float.nan;
      Value.Float Float.infinity;
      Value.Float (-0.0);
    ]
  in
  List.iter
    (fun v ->
      match Codec.decode_value (Codec.encode_value v) with
      | Ok v' ->
        check bool_t "value round-trips" true (Value.equal v v' || Value.compare v v' = 0)
      | Error e -> Alcotest.failf "decode failed: %s" e)
    gnarly

let test_codec_roundtrip_adversarial_strings () =
  (* Keys and fields that look like framing: NULs, length-prefix-ish
     bytes, very long runs. *)
  let keys = [ "\x00"; "\x00\x01\x02"; String.make 300 '\xff'; "\127\128"; "" ] in
  List.iter
    (fun key ->
      let op = Oplog.Set_field { key; field = key; value = Value.String key } in
      match Codec.decode_op (Codec.encode_op op) with
      | Ok op' -> check bool_t "op round-trips" true (op = op')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    keys

let test_codec_rejects_trailing_garbage () =
  let s = Codec.encode_value (Value.Int 7) in
  (match Codec.decode_value (s ^ "\x00") with
  | Ok _ -> Alcotest.fail "accepted trailing garbage"
  | Error _ -> ());
  match Codec.decode_value "" with
  | Ok _ -> Alcotest.fail "accepted empty input"
  | Error _ -> ()

let test_codec_reader_truncation () =
  let w = Codec.Writer.create () in
  Codec.Writer.varint w 300;
  Codec.Writer.bytes w "payload";
  let s = Codec.Writer.contents w in
  (* Every strict prefix must decode to Error, never raise or loop. *)
  for len = 0 to String.length s - 1 do
    match
      Codec.Reader.run (String.sub s 0 len) (fun r ->
          let n = Codec.Reader.varint r in
          let b = Codec.Reader.bytes r in
          (n, b))
    with
    | Ok _ -> Alcotest.failf "prefix of length %d decoded" len
    | Error _ -> ()
  done;
  match
    Codec.Reader.run s (fun r ->
        let n = Codec.Reader.varint r in
        let b = Codec.Reader.bytes r in
        (n, b))
  with
  | Ok (300, "payload") -> ()
  | Ok _ -> Alcotest.fail "wrong decode"
  | Error e -> Alcotest.failf "full input failed: %s" e

let () =
  Alcotest.run "secrep_store"
    [
      ( "regex",
        [
          Alcotest.test_case "literals" `Quick test_regex_literals;
          Alcotest.test_case "dot/star/plus/opt" `Quick test_regex_dot_star_plus_opt;
          Alcotest.test_case "classes" `Quick test_regex_classes;
          Alcotest.test_case "alternation and groups" `Quick test_regex_alternation_groups;
          Alcotest.test_case "anchors" `Quick test_regex_anchors;
          Alcotest.test_case "escapes" `Quick test_regex_escapes;
          Alcotest.test_case "parse errors" `Quick test_regex_parse_errors;
          Alcotest.test_case "matches_exact" `Quick test_regex_matches_exact;
          Alcotest.test_case "no exponential blow-up" `Quick test_regex_no_blowup;
          Alcotest.test_case "source" `Quick test_regex_source;
          Alcotest.test_case "empty pattern" `Quick test_regex_empty_pattern;
          Alcotest.test_case "anchor corners" `Quick test_regex_anchor_corners;
          Alcotest.test_case "star give-back" `Quick test_regex_star_backtracking;
          Alcotest.test_case "class edges" `Quick test_regex_class_edges;
          Alcotest.test_case "escaped end anchor" `Quick test_regex_escaped_end_anchor;
          Alcotest.test_case "state budget" `Quick test_regex_state_budget;
          Alcotest.test_case "flush mid-string" `Quick test_regex_flush_mid_string;
          prop_regex_vs_reference;
          prop_regex_oracle_small_alphabet;
          prop_regex_oracle_any_byte;
        ] );
      ( "value",
        [
          Alcotest.test_case "compare order" `Quick test_value_compare_order;
          Alcotest.test_case "numeric" `Quick test_value_numeric;
          prop_value_compare_total;
          prop_value_equal_refl;
        ] );
      ("document", [ Alcotest.test_case "operations" `Quick test_document_ops ]);
      ( "query",
        [
          Alcotest.test_case "validate" `Quick test_query_validate;
          Alcotest.test_case "cost class" `Quick test_query_cost_class;
        ] );
      ( "store",
        [
          Alcotest.test_case "versioning" `Quick test_store_versioning;
          Alcotest.test_case "set/remove field" `Quick test_store_set_remove_field;
          Alcotest.test_case "apply_entry gap" `Quick test_store_apply_entry_gap;
          Alcotest.test_case "fold_selector" `Quick test_store_fold_selector;
          Alcotest.test_case "snapshot/restore" `Quick test_store_snapshot_restore;
          Alcotest.test_case "serialization roundtrip" `Quick test_store_serialization;
          Alcotest.test_case "content hash" `Quick test_store_content_hash;
        ] );
      ("oplog", [ Alcotest.test_case "append/after" `Quick test_oplog ]);
      ( "query_eval",
        [
          Alcotest.test_case "select + where" `Quick test_eval_select_where;
          Alcotest.test_case "comparison predicates" `Quick test_eval_comparisons;
          Alcotest.test_case "projection + limit" `Quick test_eval_projection_limit;
          Alcotest.test_case "grep" `Quick test_eval_grep;
          Alcotest.test_case "aggregates" `Quick test_eval_aggregates;
          Alcotest.test_case "aggregates: empty/missing" `Quick
            test_eval_aggregate_empty_and_missing;
          Alcotest.test_case "bad query" `Quick test_eval_bad_query;
          Alcotest.test_case "replica determinism" `Quick test_eval_deterministic_across_replicas;
          Alcotest.test_case "cost model" `Quick test_eval_cost_seconds;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "distinguishes results" `Quick test_canonical_distinguishes;
          Alcotest.test_case "all query forms distinct" `Quick
            test_canonical_all_query_forms_distinct;
          Alcotest.test_case "query digests" `Quick test_canonical_query_digest;
          prop_canonical_value_injective_ish;
          Alcotest.test_case "edge values match the replaced encoder" `Quick
            test_canonical_oracle_edges;
          prop_canonical_oracle_values;
          prop_canonical_oracle_queries_results;
          Alcotest.test_case "content hash matches the replaced encoder" `Quick
            test_content_hash_oracle;
        ] );
      ( "query_key",
        [
          Alcotest.test_case "matches canonical encoding" `Quick
            test_query_key_matches_canonical;
          Alcotest.test_case "shared by cache and index" `Quick
            test_query_key_shared_by_cache_and_index;
        ] );
      ( "audit_index",
        [
          Alcotest.test_case "hits and distinct counters" `Quick
            test_audit_index_hits_distinct;
          Alcotest.test_case "drop_version" `Quick test_audit_index_drop_version;
        ] );
      ( "codec",
        [
          prop_codec_value_roundtrip;
          prop_codec_document_roundtrip;
          prop_codec_query_roundtrip;
          prop_codec_result_roundtrip;
          prop_codec_never_raises_on_garbage;
          prop_codec_truncation_fails_cleanly;
          Alcotest.test_case "entries roundtrip" `Quick test_codec_entries_roundtrip;
          Alcotest.test_case "negative int" `Quick test_codec_negative_int;
          Alcotest.test_case "adversarial values" `Quick test_codec_roundtrip_adversarial_values;
          Alcotest.test_case "adversarial strings" `Quick
            test_codec_roundtrip_adversarial_strings;
          Alcotest.test_case "trailing garbage" `Quick test_codec_rejects_trailing_garbage;
          Alcotest.test_case "reader truncation" `Quick test_codec_reader_truncation;
        ] );
      ( "result_cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_result_cache_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_result_cache_lru;
          Alcotest.test_case "re-store updates digest" `Quick test_result_cache_restore_updates;
          Alcotest.test_case "re-store refreshes recency" `Quick
            test_result_cache_restore_refreshes_recency;
        ] );
    ]
