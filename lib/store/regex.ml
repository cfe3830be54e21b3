exception Parse_error of string

(* --- syntax tree ------------------------------------------------------ *)

type charset = Bytes.t (* 256 flags *)

type node =
  | Empty
  | Lit of charset
  | Cat of node * node
  | Alt of node * node
  | Star of node
  | Plus of node
  | Opt of node

let set_empty () = Bytes.make 256 '\000'

let set_add cs c = Bytes.set cs (Char.code c) '\001'

let set_range cs lo hi =
  if Char.code lo > Char.code hi then raise (Parse_error "bad range");
  for i = Char.code lo to Char.code hi do
    Bytes.set cs i '\001'
  done

let set_negate cs =
  Bytes.init 256 (fun i -> if Bytes.get cs i = '\000' then '\001' else '\000')

let set_single c =
  let cs = set_empty () in
  set_add cs c;
  cs

let set_any () = Bytes.make 256 '\001'

(* --- parser ----------------------------------------------------------- *)

type parser_state = { pattern : string; mutable pos : int }

let peek st = if st.pos < String.length st.pattern then Some st.pattern.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | _ -> raise (Parse_error (Printf.sprintf "expected '%c' at %d" c st.pos))

let parse_escape st =
  match peek st with
  | None -> raise (Parse_error "dangling backslash")
  | Some c ->
    advance st;
    (match c with
    | 'n' -> set_single '\n'
    | 't' -> set_single '\t'
    | 'r' -> set_single '\r'
    | 'd' ->
      let cs = set_empty () in
      set_range cs '0' '9';
      cs
    | 'w' ->
      let cs = set_empty () in
      set_range cs 'a' 'z';
      set_range cs 'A' 'Z';
      set_range cs '0' '9';
      set_add cs '_';
      cs
    | 's' ->
      let cs = set_empty () in
      List.iter (set_add cs) [ ' '; '\t'; '\n'; '\r' ];
      cs
    | c -> set_single c)

let parse_class st =
  (* '[' already consumed *)
  let negated =
    match peek st with
    | Some '^' ->
      advance st;
      true
    | _ -> false
  in
  let cs = set_empty () in
  let rec items first =
    match peek st with
    | None -> raise (Parse_error "unterminated character class")
    | Some ']' when not first -> advance st
    | Some c ->
      advance st;
      let c = if c = '\\' then (
          match peek st with
          | None -> raise (Parse_error "dangling backslash in class")
          | Some e -> advance st; e)
        else c
      in
      (match peek st with
      | Some '-' when st.pos + 1 < String.length st.pattern && st.pattern.[st.pos + 1] <> ']' ->
        advance st;
        (match peek st with
        | Some hi ->
          advance st;
          set_range cs c hi
        | None -> raise (Parse_error "unterminated range"))
      | _ -> set_add cs c);
      items false
  in
  items true;
  if negated then Lit (set_negate cs) else Lit cs

let rec parse_alt st =
  let left = parse_cat st in
  match peek st with
  | Some '|' ->
    advance st;
    Alt (left, parse_alt st)
  | _ -> left

and parse_cat st =
  let rec go acc =
    match peek st with
    | None | Some '|' | Some ')' -> acc
    | _ -> go (Cat (acc, parse_rep st))
  in
  match peek st with
  | None | Some '|' | Some ')' -> Empty
  | _ -> go (parse_rep st)

and parse_rep st =
  let atom = parse_atom st in
  let rec reps node =
    match peek st with
    | Some '*' ->
      advance st;
      reps (Star node)
    | Some '+' ->
      advance st;
      reps (Plus node)
    | Some '?' ->
      advance st;
      reps (Opt node)
    | _ -> node
  in
  reps atom

and parse_atom st =
  match peek st with
  | None -> raise (Parse_error "unexpected end of pattern")
  | Some '(' ->
    advance st;
    let inner = parse_alt st in
    expect st ')';
    inner
  | Some '[' ->
    advance st;
    parse_class st
  | Some '.' ->
    advance st;
    Lit (set_any ())
  | Some '\\' ->
    advance st;
    Lit (parse_escape st)
  | Some ('*' | '+' | '?') -> raise (Parse_error "repetition with nothing to repeat")
  | Some ')' -> raise (Parse_error "unbalanced ')'")
  | Some c ->
    advance st;
    Lit (set_single c)

(* --- NFA --------------------------------------------------------------- *)

(* States are integers; transitions are either epsilon edges or a
   single charset edge.  Compilation is the standard Thompson
   construction: each fragment has one entry and one exit. *)

type builder = {
  mutable n_states : int;
  mutable edges : (int * charset * int) list;
  mutable eps_edges : (int * int) list;
}

let new_state b =
  let s = b.n_states in
  b.n_states <- s + 1;
  s

let rec build b node entry exit_ =
  match node with
  | Empty -> b.eps_edges <- (entry, exit_) :: b.eps_edges
  | Lit cs -> b.edges <- (entry, cs, exit_) :: b.edges
  | Cat (l, r) ->
    let mid = new_state b in
    build b l entry mid;
    build b r mid exit_
  | Alt (l, r) ->
    build b l entry exit_;
    build b r entry exit_
  | Star inner ->
    let s = new_state b in
    b.eps_edges <- (entry, s) :: (s, exit_) :: b.eps_edges;
    let s2 = new_state b in
    build b inner s s2;
    b.eps_edges <- (s2, s) :: b.eps_edges
  | Plus inner -> build b (Cat (inner, Star inner)) entry exit_
  | Opt inner ->
    b.eps_edges <- (entry, exit_) :: b.eps_edges;
    build b inner entry exit_

let compile_nfa node =
  let b = { n_states = 0; edges = []; eps_edges = [] } in
  let start = new_state b in
  let accept = new_state b in
  build b node start accept;
  let char_edges = Array.make b.n_states [] in
  List.iter (fun (s, cs, t) -> char_edges.(s) <- (cs, t) :: char_edges.(s)) b.edges;
  let eps = Array.make b.n_states [] in
  List.iter (fun (s, t) -> eps.(s) <- t :: eps.(s)) b.eps_edges;
  (char_edges, eps, start, accept, b.n_states)

(* --- lazy DFA ------------------------------------------------------------ *)

(* Matching runs a DFA built on demand by subset construction over the
   NFA above.  A DFA state is an ε-closed set of NFA states, interned by
   that set; its transition row is filled in the first time each byte
   class is seen from it.  Bytes that every charset in the pattern
   treats alike share a class, so rows are a few entries wide.

   Each compiled pattern has two tables.  The searching table adds the
   NFA start state after every step, which is the ".*" prefix trick for
   unanchored search; the anchored table does not.  The end anchor
   changes only the acceptance test, never the transitions.

   A table holds at most [budget] states.  When a new state would not
   fit, the table is flushed and rebuilt from the state being entered,
   so a hostile pattern costs at most one subset construction, O(NFA
   size), per input byte: matching stays linear in the input. *)

let budget = 256

type table = {
  inject_start : bool;
  ids : (string, int) Hashtbl.t; (* NFA state-set bitmap -> DFA state *)
  mutable members : int array array; (* DFA state -> its NFA states *)
  mutable accepts : bool array; (* DFA state -> its set holds the NFA accept state *)
  mutable trans : int array; (* state * n_classes + class -> state; -1 = not built *)
  mutable size : int;
  mutable flushes : int;
  mutable start_id : int; (* -1 until interned, and after each flush *)
}

type t = {
  source : string;
  char_edges : (charset * int) list array;
  eps : int list array;
  start : int;
  accept : int;
  classes : Bytes.t; (* byte -> class *)
  class_rep : int array; (* class -> one byte in it *)
  n_classes : int;
  anchored_start : bool;
  anchored_end : bool;
  searching : table;
  anchored : table;
  mark : Bytes.t; (* scratch bitmap of the NFA set being built *)
  stack : int array; (* scratch for the ε-closure walk *)
}

(* Partition the 256 bytes so that two bytes share a class exactly
   when every charset in the pattern contains both or neither. *)
let byte_classes char_edges =
  let cls = Array.make 256 0 in
  let count = ref 1 in
  let renumber = Array.make 512 (-1) in
  Array.iter
    (List.iter (fun (cs, _) ->
         Array.fill renumber 0 (2 * !count) (-1);
         let next = ref 0 in
         for b = 0 to 255 do
           let k = (2 * Array.unsafe_get cls b) + Char.code (Bytes.unsafe_get cs b) in
           let r = Array.unsafe_get renumber k in
           if r >= 0 then Array.unsafe_set cls b r
           else begin
             Array.unsafe_set renumber k !next;
             Array.unsafe_set cls b !next;
             incr next
           end
         done;
         count := !next))
    char_edges;
  let class_rep = Array.make !count (-1) in
  for b = 255 downto 0 do
    class_rep.(cls.(b)) <- b
  done;
  (Bytes.init 256 (fun b -> Char.chr cls.(b)), class_rep, !count)

let initial_capacity = 8

let new_table n_classes ~inject_start =
  {
    inject_start;
    ids = Hashtbl.create 16;
    members = Array.make initial_capacity [||];
    accepts = Array.make initial_capacity false;
    trans = Array.make (initial_capacity * n_classes) (-1);
    size = 0;
    flushes = 0;
    start_id = -1;
  }

let marked t s = Char.code (Bytes.unsafe_get t.mark (s lsr 3)) land (1 lsl (s land 7)) <> 0

let set_mark t s =
  let i = s lsr 3 in
  Bytes.unsafe_set t.mark i (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.mark i) lor (1 lsl (s land 7))))

(* Add [s] and everything ε-reachable from it to the set being built. *)
let add_closure t s =
  if not (marked t s) then begin
    set_mark t s;
    t.stack.(0) <- s;
    let sp = ref 1 in
    while !sp > 0 do
      decr sp;
      List.iter
        (fun target ->
          if not (marked t target) then begin
            set_mark t target;
            t.stack.(!sp) <- target;
            incr sp
          end)
        t.eps.(t.stack.(!sp))
    done
  end

let flush tbl n_classes =
  Hashtbl.reset tbl.ids;
  Array.fill tbl.trans 0 (tbl.size * n_classes) (-1);
  tbl.size <- 0;
  tbl.flushes <- tbl.flushes + 1;
  tbl.start_id <- -1

let grow tbl n_classes =
  let cap = min budget (2 * Array.length tbl.members) in
  let extend a ~width ~fill =
    let b = Array.make (cap * width) fill in
    Array.blit a 0 b 0 (tbl.size * width);
    b
  in
  tbl.members <- extend tbl.members ~width:1 ~fill:[||];
  tbl.accepts <- extend tbl.accepts ~width:1 ~fill:false;
  tbl.trans <- extend tbl.trans ~width:n_classes ~fill:(-1)

(* The DFA state for the set in [t.mark], which is cleared. *)
let intern t tbl =
  let key = Bytes.to_string t.mark in
  Bytes.fill t.mark 0 (Bytes.length t.mark) '\000';
  match Hashtbl.find_opt tbl.ids key with
  | Some d -> d
  | None ->
    if tbl.size = budget then flush tbl t.n_classes
    else if tbl.size = Array.length tbl.members then grow tbl t.n_classes;
    let d = tbl.size in
    let states = ref [] in
    for s = Array.length t.eps - 1 downto 0 do
      if Char.code key.[s lsr 3] land (1 lsl (s land 7)) <> 0 then states := s :: !states
    done;
    let states = Array.of_list !states in
    tbl.members.(d) <- states;
    tbl.accepts.(d) <- Array.mem t.accept states;
    Hashtbl.add tbl.ids key d;
    tbl.size <- d + 1;
    d

let start_state t tbl =
  if tbl.start_id < 0 then begin
    add_closure t t.start;
    tbl.start_id <- intern t tbl
  end;
  tbl.start_id

(* Build the transition of state [d] on byte class [k]. *)
let step_slow t tbl d k =
  let byte = t.class_rep.(k) in
  Array.iter
    (fun s ->
      List.iter
        (fun (cs, target) -> if Bytes.get cs byte = '\001' then add_closure t target)
        t.char_edges.(s))
    tbl.members.(d);
  if tbl.inject_start then add_closure t t.start;
  let flushes = tbl.flushes in
  let next = intern t tbl in
  if tbl.flushes = flushes then tbl.trans.((d * t.n_classes) + k) <- next;
  next

let run t tbl input ~anchored_end =
  (* Without an end anchor the first acceptance decides.  State and
     class indices are in range by construction, hence the unchecked
     reads. *)
  let n = String.length input in
  let rec go d i =
    if i = n || ((not anchored_end) && Array.unsafe_get tbl.accepts d) then d
    else
      let k = Char.code (Bytes.unsafe_get t.classes (Char.code (String.unsafe_get input i))) in
      let next = Array.unsafe_get tbl.trans ((d * t.n_classes) + k) in
      go (if next >= 0 then next else step_slow t tbl d k) (i + 1)
  in
  tbl.accepts.(go (start_state t tbl) 0)

let compile pattern =
  let n = String.length pattern in
  let anchored_start = n > 0 && pattern.[0] = '^' in
  let anchored_end =
    (* A trailing '$' is literal only when an odd run of backslashes
       escapes it. *)
    let rec backslashes i = if i >= 0 && pattern.[i] = '\\' then 1 + backslashes (i - 1) else 0 in
    n > 0 && pattern.[n - 1] = '$' && backslashes (n - 2) mod 2 = 0
  in
  let core =
    let lo = if anchored_start then 1 else 0 in
    let hi = n - if anchored_end then 1 else 0 in
    String.sub pattern lo (max 0 (hi - lo))
  in
  let st = { pattern = core; pos = 0 } in
  let ast = parse_alt st in
  if st.pos <> String.length core then raise (Parse_error "trailing garbage (unbalanced ')'?)");
  let char_edges, eps, start, accept, n_states = compile_nfa ast in
  let classes, class_rep, n_classes = byte_classes char_edges in
  {
    source = pattern;
    char_edges;
    eps;
    start;
    accept;
    classes;
    class_rep;
    n_classes;
    anchored_start;
    anchored_end;
    searching = new_table n_classes ~inject_start:true;
    anchored = new_table n_classes ~inject_start:false;
    mark = Bytes.make ((n_states + 7) / 8) '\000';
    stack = Array.make n_states 0;
  }

let source t = t.source

let matches t input =
  run t (if t.anchored_start then t.anchored else t.searching) input ~anchored_end:t.anchored_end

let matches_exact t input = run t t.anchored input ~anchored_end:true
