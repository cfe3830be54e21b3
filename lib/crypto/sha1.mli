(** SHA-1 (FIPS 180-1), the hash function the paper specifies for
    pledge packets.  Implemented from the standard; verified against
    the FIPS test vectors in the test suite. *)

type ctx

val init : unit -> ctx

val copy : ctx -> ctx
(** Independent snapshot of a context mid-stream; feeding either copy
    afterwards does not affect the other.  Lets HMAC precompute the
    padded-key block once per key.  Allocates only the new context. *)

val feed : ctx -> string -> unit
val feed_bytes : ctx -> bytes -> off:int -> len:int -> unit

(** {2 Sink operations}

    A context is also a byte sink: an encoder can write its output
    straight into the hash instead of building a string first.  Neither
    operation allocates. *)

val add_char : ctx -> char -> unit

val add_substring : ctx -> string -> int -> int -> unit
(** [add_substring ctx s off len] feeds [len] bytes of [s] from [off],
    with the argument order of [Buffer.add_substring].
    @raise Invalid_argument if the range is not within [s]. *)

val finalize : ctx -> string
(** 20-byte raw digest.  The context must not be reused afterwards. *)

val digest : string -> string
(** One-shot 20-byte raw digest. *)

val hex_digest : string -> string
(** One-shot digest as 40 lower-case hex characters. *)

val digest_size : int
(** 20. *)
