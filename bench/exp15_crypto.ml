(* E15 — Montgomery-kernel crypto plane: ops/s against the seed path.

   The crypto refactor is a pure speedup: every signature, MAC and
   digest must be bit-identical to the seed schoolbook path.  This
   experiment measures how much faster the hot path got — RSA sign
   (CRT, both halves in Montgomery form) and verify (e=65537 fast
   path) at 256/512/1024-bit keys, plus HMAC with the per-key schedule
   cache against rebuilding the schedule per call — and, for every
   row, cross-checks that both paths produce the same bytes.

   The baseline runs the same key with its Montgomery contexts cleared:
   [Rsa] then exponentiates on [Bignum.mod_exp_schoolbook], the path it
   also takes for degenerate moduli.  Whole-system bit-identity under
   the kernel is pinned by the RSA-512 events-digest test in
   test_core.ml, recorded with the previous kernel.

   Gates: bit-identity of every row, always; >=2x at 512 bits on sign
   and on the sign+verify round, when [gate_applies] (enough completed
   baseline iterations to trust the measurement), the way E14's
   speedup gate is conditioned on core count. *)

module Rsa = Secrep_crypto.Rsa
module Hmac = Secrep_crypto.Hmac
module Prng = Secrep_crypto.Prng

(* Ops/s over a fixed wall-clock budget, [batch] calls per clock read
   so the timer does not distort sub-microsecond operations. *)
let ops_per_sec ~budget ~batch f =
  ignore (Sys.opaque_identity (f ()));
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < budget do
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (f ()))
    done;
    n := !n + batch;
    elapsed := Unix.gettimeofday () -. t0
  done;
  (float_of_int !n /. !elapsed, !n)

type row = {
  op : string;
  bits : int;
  mont : float;  (** ops/s, Montgomery kernel on *)
  seed : float;  (** ops/s, seed schoolbook path *)
  seed_iters : int;  (** completed baseline iterations *)
  identical : bool;  (** outputs byte-identical across paths *)
}

let msg = "e15: the auditor replays the pledge"

let rsa_rows ~budget =
  List.concat_map
    (fun bits ->
      let key =
        let g = Prng.create ~seed:(Int64.of_int (1500 + bits)) in
        Rsa.generate g ~bits
      in
      let school = Rsa.schoolbook key in
      let sig_mont = Rsa.sign key msg in
      let sign_identical = String.equal sig_mont (Rsa.sign school msg) in
      let verify_agrees =
        Rsa.verify key.Rsa.pub ~msg ~signature:sig_mont
        && Rsa.verify school.Rsa.pub ~msg ~signature:sig_mont
      in
      let measure f = ops_per_sec ~budget ~batch:1 f in
      let s_mont, _ = measure (fun () -> Rsa.sign key msg) in
      let s_seed, s_it = measure (fun () -> Rsa.sign school msg) in
      let v_mont, _ =
        measure (fun () -> Rsa.verify key.Rsa.pub ~msg ~signature:sig_mont)
      in
      let v_seed, v_it =
        measure (fun () -> Rsa.verify school.Rsa.pub ~msg ~signature:sig_mont)
      in
      [
        { op = "sign"; bits; mont = s_mont; seed = s_seed; seed_iters = s_it;
          identical = sign_identical };
        { op = "verify"; bits; mont = v_mont; seed = v_seed; seed_iters = v_it;
          identical = verify_agrees };
      ])
    [ 256; 512; 1024 ]

let mac_row ~budget =
  let key = String.init 32 (fun i -> Char.chr ((i * 37) land 0xff)) in
  let cached = Hmac.mac ~hash:Hmac.Sha256 ~key msg in
  let fresh = Hmac.mac_with (Hmac.schedule ~hash:Hmac.Sha256 ~key) msg in
  let m_cached, _ =
    ops_per_sec ~budget ~batch:64 (fun () -> Hmac.mac ~hash:Hmac.Sha256 ~key msg)
  in
  let m_fresh, it =
    ops_per_sec ~budget ~batch:64 (fun () ->
        Hmac.mac_with (Hmac.schedule ~hash:Hmac.Sha256 ~key) msg)
  in
  { op = "hmac"; bits = 256; mont = m_cached; seed = m_fresh; seed_iters = it;
    identical = String.equal cached fresh }

let run ?(quick = false) fmt =
  let budget = if quick then 0.15 else 0.6 in
  let rows = rsa_rows ~budget in
  let all = rows @ [ mac_row ~budget ] in
  Exp_common.table fmt
    ~title:
      "E15  Montgomery crypto kernel vs seed schoolbook baseline\n\
      \     (ops/s per row; hmac row: schedule cache vs rebuild)"
    ~header:[ "op"; "bits"; "montgomery"; "seed"; "speedup"; "outputs" ]
    (List.map
       (fun r ->
         [
           r.op;
           string_of_int r.bits;
           Printf.sprintf "%.1f" r.mont;
           Printf.sprintf "%.1f" r.seed;
           Printf.sprintf "%.2fx" (r.mont /. r.seed);
           (if r.identical then "identical" else "DIVERGED");
         ])
       all);
  let row_512 op = List.find (fun r -> r.op = op && r.bits = 512) rows in
  let sign = row_512 "sign" and verify = row_512 "verify" in
  (* One protocol round is a sign plus a verify; the combined metric is
     the speedup of that round (sign dominates, as in the system). *)
  let combined_512 =
    ((1.0 /. sign.seed) +. (1.0 /. verify.seed))
    /. ((1.0 /. sign.mont) +. (1.0 /. verify.mont))
  in
  let bit_identical = List.for_all (fun r -> r.identical) all in
  (* The measurement is trustworthy when the slow baseline completed a
     handful of full iterations inside the budget. *)
  let gate_applies = sign.seed_iters >= 5 && verify.seed_iters >= 5 in
  Format.fprintf fmt
    "@.all outputs bit-identical across kernels: %b   512-bit speedups: sign %.2fx, \
     verify %.2fx, sign+verify round %.2fx (>=2x gate %s)@."
    bit_identical (sign.mont /. sign.seed) (verify.mont /. verify.seed) combined_512
    (if gate_applies then "applies" else "skipped: too few baseline iterations");
  Exp_common.write_json fmt ~experiment:"e15" (fun oc ->
    let row_json r =
      Printf.sprintf
        "{\"op\": \"%s\", \"bits\": %d, \"ops_s_mont\": %.2f, \"ops_s_seed\": %.2f,\n\
        \  \"speedup\": %.3f, \"seed_iters\": %d, \"identical\": %b}"
        r.op r.bits r.mont r.seed (r.mont /. r.seed) r.seed_iters r.identical
    in
    Printf.fprintf oc
      "{\"experiment\": \"e15\", \"budget_s\": %.2f,\n\
      \ \"sign_speedup_512\": %.3f, \"verify_speedup_512\": %.3f, \
       \"combined_speedup_512\": %.3f,\n\
      \ \"gate_applies\": %b, \"bit_identical\": %b,\n\
      \ \"rows\": [%s]}\n"
      budget (sign.mont /. sign.seed) (verify.mont /. verify.seed) combined_512
      gate_applies bit_identical
      (String.concat ",\n  " (List.map row_json all)));
  Exp_common.gate fmt ~experiment:"e15"
    [
      ("bit_identical", bit_identical);
      ("sign_speedup_512 >= 2", (not gate_applies) || sign.mont /. sign.seed >= 2.0);
      ("combined_speedup_512 >= 2", (not gate_applies) || combined_512 >= 2.0);
    ]
