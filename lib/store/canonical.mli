(** Canonical (deterministic, self-delimiting) encodings.

    Pledge packets hash the query result, and every replica must
    produce byte-identical encodings for equal results, or honest
    slaves would be flagged as cheats.  Floats are encoded by their
    IEEE bit pattern; documents by sorted field order.

    One encoder writes both the strings below and the digests: a digest
    streams the encoding into a SHA-1 context and allocates only that
    context and its 20-byte output. *)

val of_value : Value.t -> string
val of_document : Document.t -> string
val of_query : Query.t -> string
val of_result : Query_result.t -> string

val result_digest : Query_result.t -> string
(** SHA-1 of the canonical result encoding — the hash carried by
    pledge packets (the paper mandates SHA-1, §3.2). *)

val query_digest : Query.t -> string
(** SHA-1 of [of_query]. *)

val feed_decimal : Secrep_crypto.Sha1.ctx -> int -> unit
(** Feeds the bytes of [string_of_int i] without building them. *)

val feed_document : Secrep_crypto.Sha1.ctx -> Document.t -> unit
(** Feeds the bytes of [of_document doc] without building them. *)
