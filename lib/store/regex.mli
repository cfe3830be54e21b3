(** A small regular-expression engine for grep-style content queries.

    Built from scratch: patterns parse to an AST and compile to a
    Thompson NFA, and matching runs a DFA built lazily from that NFA
    by subset construction, one table lookup per input byte once a
    transition has been seen.  The DFA table of each compiled pattern
    holds a bounded number of states and is flushed when full, so
    matching stays linear in the input with no backtracking blow-up: a
    malicious client cannot craft a pathological query.

    A [t] carries mutable caches (the DFA tables and scratch space), so
    it must not be shared across domains.  [Query_eval] compiles one
    per query execution.

    Supported syntax: literal characters, [.] any, [*] [+] [?]
    repetition, [[abc]] / [[a-z]] / [[^...]] classes, [|] alternation,
    [( )] grouping, [\\] escapes, and [^] / [$] anchors at the pattern
    ends.  A trailing [$] after an odd run of backslashes is a literal
    dollar sign. *)

type t

exception Parse_error of string

val compile : string -> t
(** Raises {!Parse_error} on malformed patterns. *)

val matches : t -> string -> bool
(** Substring search semantics (like grep), except where the pattern
    is anchored. *)

val matches_exact : t -> string -> bool
(** Whole-string semantics, ignoring anchors. *)

val source : t -> string
(** The original pattern text. *)
