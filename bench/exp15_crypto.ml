(* E15 — Montgomery-kernel crypto plane: ops/s and end-to-end wall-clock.

   The crypto refactor is a pure speedup: every signature, MAC and
   digest must be bit-identical to the seed schoolbook path.  This
   experiment measures how much faster the hot path got — RSA sign
   (CRT, both halves in Montgomery form) and verify (e=65537 fast
   path) at 256/512/1024-bit keys, plus HMAC with the per-key schedule
   cache against rebuilding the schedule per call — and, for every
   row, cross-checks that both paths produce the same bytes.

   It also replays a small E1-style end-to-end run (RSA scheme so the
   crypto plane actually dominates) with the kernel on and off, and
   compares wall-clock AND the SHA-1 digest of the full event stream:
   speedup without bit-identical replay would be worthless here, the
   same bar E14 sets for the parallel scheduler.

   The >=2x sign/verify gate at 512 bits is enforced by the CI job's
   JSON check, conditioned on [gate_applies] (enough completed
   baseline iterations to trust the measurement) the way E14's
   speedup gate is conditioned on core count; the bit-identity oracle
   is asserted unconditionally, right here. *)

module Bignum = Secrep_crypto.Bignum
module Rsa = Secrep_crypto.Rsa
module Hmac = Secrep_crypto.Hmac
module Prng = Secrep_crypto.Prng
module Sha1 = Secrep_crypto.Sha1
module Hex = Secrep_crypto.Hex
module Sig_scheme = Secrep_crypto.Sig_scheme
module System = Secrep_core.System
module Config = Secrep_core.Config
module Sim = Secrep_sim.Sim
module Event = Secrep_sim.Event
module Trace = Secrep_sim.Trace
module Query = Secrep_store.Query

let with_flag v f =
  let saved = !Bignum.use_montgomery in
  Bignum.use_montgomery := v;
  Fun.protect ~finally:(fun () -> Bignum.use_montgomery := saved) f

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
      let sig_mont = with_flag true (fun () -> Rsa.sign key msg) in
      let sig_seed = with_flag false (fun () -> Rsa.sign key msg) in
      let sign_identical = String.equal sig_mont sig_seed in
      let verify_agrees =
        with_flag true (fun () -> Rsa.verify key.Rsa.pub ~msg ~signature:sig_mont)
        && with_flag false (fun () -> Rsa.verify key.Rsa.pub ~msg ~signature:sig_mont)
      in
      let measure enabled f = with_flag enabled (fun () -> ops_per_sec ~budget ~batch:1 f) in
      let s_mont, _ = measure true (fun () -> Rsa.sign key msg) in
      let s_seed, s_it = measure false (fun () -> Rsa.sign key msg) in
      let v_mont, _ =
        measure true (fun () -> Rsa.verify key.Rsa.pub ~msg ~signature:sig_mont)
      in
      let v_seed, v_it =
        measure false (fun () -> Rsa.verify key.Rsa.pub ~msg ~signature:sig_mont)
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

(* A miniature E1: RSA-scheme system, a lying slave, sequential reads
   with double-checks.  Wall-clock includes key generation — Mr_prime
   runs in Montgomery form too — and the trace digest is the replay
   oracle. *)
let e2e_case ~bits ~reads ~seed =
  let config =
    { Exp_common.base_config with Config.scheme = Sig_scheme.Rsa { bits } }
  in
  let t0 = Unix.gettimeofday () in
  let system, keys =
    Exp_common.build_system ~config ~n_masters:1 ~slaves_per_master:2 ~n_clients:2
      ~seed ~n_items:50 ()
  in
  let ctx = Sha1.init () in
  Trace.on_emit (System.trace system) (fun r ->
      Sha1.feed ctx
        (Printf.sprintf "%.9f|%s|%s\n" r.Trace.time r.Trace.source
           (Event.to_string r.Trace.event)));
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Secrep_core.Fault.Malicious
       { probability = 0.3; mode = Secrep_core.Fault.Corrupt_result; from_time = 2.0 });
  for j = 0 to reads - 1 do
    ignore
      (Sim.schedule (System.sim system)
         ~delay:(1.0 +. (0.05 *. float_of_int j))
         (fun () ->
           System.read system ~client:(j mod 2)
             (Query.point_read keys.(j mod Array.length keys))
             ~on_done:ignore))
  done;
  System.run_for system ((0.05 *. float_of_int reads) +. 30.0);
  let wall = Unix.gettimeofday () -. t0 in
  (wall, Hex.encode (Sha1.finalize ctx))

let run ?(quick = false) fmt =
  let budget = if quick then 0.15 else 0.6 in
  let reads = if quick then 150 else 400 in
  let rows = rsa_rows ~budget in
  let mac = mac_row ~budget in
  let e2e_bits = 256 in
  let wall_mont, digest_mont =
    with_flag true (fun () -> e2e_case ~bits:e2e_bits ~reads ~seed:1515L)
  in
  let wall_seed, digest_seed =
    with_flag false (fun () -> e2e_case ~bits:e2e_bits ~reads ~seed:1515L)
  in
  let e2e_identical = String.equal digest_mont digest_seed in
  let all = rows @ [ mac ] in
  let table_rows =
    List.map
      (fun r ->
        [
          r.op;
          string_of_int r.bits;
          Printf.sprintf "%.1f" r.mont;
          Printf.sprintf "%.1f" r.seed;
          Printf.sprintf "%.2fx" (r.mont /. r.seed);
          (if r.identical then "identical" else "DIVERGED");
        ])
      all
    @ [
        [
          "e1-replay";
          string_of_int e2e_bits;
          Printf.sprintf "%.2fs" wall_mont;
          Printf.sprintf "%.2fs" wall_seed;
          Printf.sprintf "%.2fx" (wall_seed /. wall_mont);
          (if e2e_identical then "identical" else "DIVERGED");
        ];
      ]
  in
  Exp_common.table fmt
    ~title:
      (Printf.sprintf
         "E15  Montgomery crypto kernel vs seed schoolbook baseline\n\
         \     (ops/s per row; e1-replay row is end-to-end wall-clock incl. keygen,\n\
         \     %d sequential reads, RSA-%d scheme; hmac row: schedule cache vs rebuild)"
         reads e2e_bits)
    ~header:[ "op"; "bits"; "montgomery"; "seed"; "speedup"; "outputs" ]
    table_rows;
  let speedup_of op bits =
    match List.find_opt (fun r -> r.op = op && r.bits = bits) rows with
    | Some r -> r.mont /. r.seed
    | None -> 0.0
  in
  let iters_of op bits =
    match List.find_opt (fun r -> r.op = op && r.bits = bits) rows with
    | Some r -> r.seed_iters
    | None -> 0
  in
  let ops_of op bits =
    match List.find_opt (fun r -> r.op = op && r.bits = bits) rows with
    | Some r -> (r.mont, r.seed)
    | None -> (1.0, 1.0)
  in
  (* One protocol round is a sign plus a verify; the combined metric is
     the speedup of that round (sign dominates, as in the system). *)
  let combined_512 =
    let s_m, s_s = ops_of "sign" 512 and v_m, v_s = ops_of "verify" 512 in
    ((1.0 /. s_s) +. (1.0 /. v_s)) /. ((1.0 /. s_m) +. (1.0 /. v_m))
  in
  let bit_identical = e2e_identical && List.for_all (fun r -> r.identical) all in
  (* The measurement is trustworthy when the slow baseline completed a
     handful of full iterations inside the budget. *)
  let gate_applies = iters_of "sign" 512 >= 5 && iters_of "verify" 512 >= 5 in
  Format.fprintf fmt
    "@.all outputs bit-identical across kernels: %b   512-bit speedups: sign %.2fx, \
     verify %.2fx, sign+verify round %.2fx (>=2x gate %s)@."
    bit_identical (speedup_of "sign" 512) (speedup_of "verify" 512) combined_512
    (if gate_applies then "checked in CI" else "skipped: too few baseline iterations");
  if not bit_identical then
    failwith "E15: Montgomery kernel diverged from the schoolbook baseline";
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
      \ \"e2e\": {\"bits\": %d, \"reads\": %d, \"wall_mont_s\": %.3f, \"wall_seed_s\": %.3f,\n\
      \   \"speedup\": %.3f, \"digest_match\": %b, \"digest\": \"%s\"},\n\
      \ \"rows\": [%s]}\n"
      budget (speedup_of "sign" 512) (speedup_of "verify" 512) combined_512 gate_applies
      bit_identical
      e2e_bits reads wall_mont wall_seed (wall_seed /. wall_mont) e2e_identical digest_mont
      (String.concat ",\n  " (List.map row_json all)))
