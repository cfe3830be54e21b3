(* Reference regex matcher for differential tests: the original
   Thompson-NFA simulation that [Secrep_store.Regex] replaced with a
   lazy DFA.  It steps a boolean state set one character at a time and
   rescans every state per character, so it is slow but obviously
   linear.  Its parser and NFA construction are copies of the
   library's.  The one change from the original engine is the
   end-anchor test, which counts the run of backslashes before a
   trailing '$' (an even run leaves the '$' an anchor), as the library
   now does. *)

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

let set_mem cs c = Bytes.get cs (Char.code c) = '\001'

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

type t = {
  source : string;
  char_edges : (charset * int) list array;
  eps : int list array;
  start : int;
  accept : int;
  n_states : int;
  anchored_start : bool;
  anchored_end : bool;
}

let compile pattern =
  let anchored_start = String.length pattern > 0 && pattern.[0] = '^' in
  let anchored_end =
    let n = String.length pattern in
    let rec backslashes i = if i >= 0 && pattern.[i] = '\\' then 1 + backslashes (i - 1) else 0 in
    n > 0 && pattern.[n - 1] = '$' && backslashes (n - 2) mod 2 = 0
  in
  let core =
    let lo = if anchored_start then 1 else 0 in
    let hi = String.length pattern - if anchored_end then 1 else 0 in
    String.sub pattern lo (max 0 (hi - lo))
  in
  let st = { pattern = core; pos = 0 } in
  let ast = parse_alt st in
  if st.pos <> String.length core then raise (Parse_error "trailing garbage (unbalanced ')'?)");
  let char_edges, eps, start, accept, n_states = compile_nfa ast in
  { source = pattern; char_edges; eps; start; accept; n_states; anchored_start; anchored_end }

let source t = t.source

(* Epsilon-closure into a boolean state set. *)
let closure t set =
  let stack = ref [] in
  Array.iteri (fun s in_set -> if in_set then stack := s :: !stack) set;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | s :: rest ->
      stack := rest;
      List.iter
        (fun target ->
          if not set.(target) then begin
            set.(target) <- true;
            stack := target :: !stack
          end)
        t.eps.(s)
  done

let run t input ~anchored_start ~anchored_end =
  let current = Array.make t.n_states false in
  current.(t.start) <- true;
  closure t current;
  let accepted = ref (current.(t.accept) && (anchored_end = false || String.length input = 0)) in
  (* When the search is unanchored at the start we re-inject the start
     state before every character, which is the ".*" prefix trick. *)
  let next = Array.make t.n_states false in
  let n = String.length input in
  let i = ref 0 in
  while (not !accepted) && !i < n do
    let c = input.[!i] in
    Array.fill next 0 t.n_states false;
    Array.iteri
      (fun s in_set ->
        if in_set then
          List.iter (fun (cs, target) -> if set_mem cs c then next.(target) <- true) t.char_edges.(s))
      current;
    if not anchored_start then next.(t.start) <- true;
    closure t next;
    Array.blit next 0 current 0 t.n_states;
    incr i;
    if current.(t.accept) then
      if anchored_end then begin
        if !i = n then accepted := true
        (* else: keep going, may accept again exactly at the end *)
      end
      else accepted := true
  done;
  (* Anchored-end acceptance is only valid after the last character. *)
  if (not !accepted) && anchored_end then accepted := current.(t.accept) && !i = n;
  !accepted

let matches t input = run t input ~anchored_start:t.anchored_start ~anchored_end:t.anchored_end

let matches_exact t input = run t input ~anchored_start:true ~anchored_end:true
