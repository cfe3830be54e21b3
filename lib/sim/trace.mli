(** Bounded in-memory event trace.

    Protocol components append {!Event.t} records; tests assert on
    them, exporters ({!Export}) turn them into JSONL / Chrome traces,
    and failed experiment runs dump the tail.  The buffer is a ring so
    long simulations cannot exhaust memory.

    [log] is the compatibility shim for the old string API: it wraps
    the message in {!Event.Log}. *)

type t

type record = { time : float; source : string; event : Event.t }

val create : ?capacity:int -> unit -> t
(** Default capacity: 4096 records. *)

val emit : t -> time:float -> source:string -> Event.t -> unit

val on_emit : t -> (record -> unit) -> unit
(** Subscribe to the live event stream: [f] runs synchronously on
    every subsequent {!emit}, before the record can be overwritten by
    the ring.  This is how the fuzz harness captures complete event
    streams regardless of the ring capacity, and how the SLO monitor
    evaluates rules online.  Subscribers fire in registration order.
    A subscriber may itself emit into the same trace (the SLO engine
    emits [Alert_raised] this way) — the nested record is delivered to
    every subscriber too, so a subscriber must not emit in response to
    its own emissions or delivery will never terminate. *)

val log : t -> time:float -> source:string -> string -> unit
(** [log t ~time ~source msg] = [emit t ~time ~source (Event.Log msg)]. *)

val digest : record list -> string
(** Hex SHA-1 of a complete event stream, one
    ["%.9f|source|event\n"] line per record.  Two runs are
    bit-identical exactly when their captured streams have equal
    digests; the fuzz harness, the shard and parallel oracles and the
    pinned end-to-end tests all compare this value. *)

val size : t -> int
(** Records still retained (at most the capacity). *)

val total_logged : t -> int
(** Records ever emitted, including those the ring has overwritten. *)

val capacity : t -> int

val wrapped : t -> bool
(** [total_logged t > capacity t]: the ring has overwritten records,
    so {!to_list} is a truncated view of the run. *)

val to_list : t -> record list
(** Oldest first (of what is still retained). *)

val message : record -> string
(** Rendered event text (compat helper for string assertions). *)

val find : t -> f:(record -> bool) -> record option
val count_matching : t -> f:(record -> bool) -> int

val count_kind : t -> kind:string -> int
(** Retained records whose {!Event.kind} equals [kind]. *)

val kinds : t -> string list
(** Distinct event kinds retained, sorted. *)

val pp_tail : ?n:int -> Format.formatter -> t -> unit
