(** RSA signatures with a PKCS#1 v1.5-style encoding over SHA-256.

    Key sizes are a simulation parameter: the protocol analysis only
    needs unforgeability-by-assumption, so experiments default to small
    keys (256–512 bits) to keep simulated signing realistic in shape
    (signing much more expensive than verification, the asymmetry the
    auditor exploits in §3.4 of the paper) without dominating run time. *)

type public_key = {
  n : Bignum.t;
  e : Bignum.t;
  n_mont : Bignum.Mont.ctx option;
      (* Montgomery context for n, built once at key creation/decode;
         [None] only for degenerate (even or trivial) decoded moduli
         and moduli above [Bignum.Mont.max_limbs] limbs, which then
         verify via the schoolbook path. *)
}

type private_key = {
  pub : public_key;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t; (* d mod (p-1), for CRT signing *)
  dq : Bignum.t; (* d mod (q-1) *)
  qinv : Bignum.t; (* q^-1 mod p *)
  p_mont : Bignum.Mont.ctx option; (* Montgomery contexts for the CRT *)
  q_mont : Bignum.Mont.ctx option; (* half-exponentiations *)
}

val make_public : n:Bignum.t -> e:Bignum.t -> public_key
(** Builds the key together with its cached Montgomery context; every
    decoded or hand-assembled public key should come through here. *)

val generate : Prng.t -> bits:int -> private_key
(** [generate g ~bits] makes a fresh key with a [bits]-bit modulus and
    public exponent 65537.  Requires [bits >= 64]. *)

val key_bytes : public_key -> int
(** Size of the modulus in bytes; signatures have this length. *)

val sign : private_key -> string -> string
(** [sign key msg] is the RSA signature (CRT-accelerated) of the
    PKCS#1-style encoding of [SHA-256(msg)]. *)

val sign_no_crt : private_key -> string -> string
(** Reference signing without the CRT optimisation; used by tests to
    cross-check [sign]. *)

val verify : public_key -> msg:string -> signature:string -> bool

val fingerprint : public_key -> string
(** Stable hex identifier for a public key (SHA-256 of its encoding). *)

val pp_public : Format.formatter -> public_key -> unit
