(** SHA-256 (FIPS 180-2).  Offered alongside {!Sha1} so experiments can
    measure the cost of a stronger digest; verified against the FIPS
    test vectors in the test suite. *)

type ctx

val init : unit -> ctx

val copy : ctx -> ctx
(** Independent snapshot of a context mid-stream; feeding either copy
    afterwards does not affect the other.  Lets HMAC precompute the
    padded-key block once per key.  Allocates only the new context. *)

val feed : ctx -> string -> unit
val feed_bytes : ctx -> bytes -> off:int -> len:int -> unit

val finalize : ctx -> string
(** 32-byte raw digest.  The context must not be reused afterwards. *)

val digest : string -> string
val hex_digest : string -> string

val digest_size : int
(** 32. *)
