(* Micro-benchmarks (Bechamel): the primitive costs behind the
   simulation's cost model — hashing, signatures (the slave/auditor
   asymmetry), Merkle proofs, query evaluation by class, regex
   matching, bignum kernels, pledge round-trips and the event queue. *)

open Bechamel
open Toolkit
module Crypto = Secrep_crypto
module Store = Secrep_store

let data_64 = String.make 64 'a'
let data_1k = String.make 1024 'b'
let data_64k = String.make 65536 'c'
let data_2k = String.make 2048 'd'

(* 300 bytes: about the size of an HMAC pledge payload. *)
let data_300 = String.make 300 'e'

let rsa_key =
  lazy
    (let g = Crypto.Prng.create ~seed:11L in
     Crypto.Rsa.generate g ~bits:512)

let rsa_signature = lazy (Crypto.Rsa.sign (Lazy.force rsa_key) data_64)

let hmac_key =
  lazy
    (let g = Crypto.Prng.create ~seed:12L in
     Crypto.Sig_scheme.generate Crypto.Sig_scheme.Hmac_sim g)

let merkle_tree = lazy (Crypto.Merkle.build (List.init 1024 (Printf.sprintf "leaf-%d")))

let fixture_store =
  lazy
    (let g = Crypto.Prng.create ~seed:13L in
     let store = Store.Store.create () in
     List.iter
       (fun (key, doc) -> Store.Store.apply store (Store.Oplog.Put { key; doc }))
       (Secrep_workload.Catalog.product_catalog g ~n:1000);
     store)

let grep_query = Store.Query.grep "deluxe"

let agg_query =
  Store.Query.Aggregate { from = Store.Query.All; where = Store.Query.True; agg = Store.Query.Sum "price" }

(* A Rows result of about 1.9 kB canonical encoding, the size of a
   range read on the default workloads. *)
let range_query =
  Store.Query.Select
    {
      from = Store.Query.Key_range { lo = "product:00100"; hi = "product:00110" };
      where = Store.Query.True;
      project = None;
      limit = None;
    }

let range_result =
  lazy (Store.Query_eval.execute_exn (Lazy.force fixture_store) range_query).Store.Query_eval.result

let regex = lazy (Store.Regex.compile "model [0-9]+")

let bn_a = lazy (Crypto.Bignum.of_hex (String.make 128 '7'))
let bn_b = lazy (Crypto.Bignum.of_hex (String.make 64 '3'))

let mont_fixture =
  lazy
    (let n = (Lazy.force rsa_key).Crypto.Rsa.pub.Crypto.Rsa.n in
     let ctx =
       match Crypto.Bignum.Mont.make n with Some c -> c | None -> assert false
     in
     let x = Crypto.Bignum.Mont.to_mont ctx (Lazy.force bn_b) in
     (n, ctx, x))

let modexp_exp = lazy ((Lazy.force rsa_key).Crypto.Rsa.d)

let pledge_fixture =
  lazy
    (let g = Crypto.Prng.create ~seed:14L in
     let master_key = Crypto.Sig_scheme.generate Crypto.Sig_scheme.Hmac_sim g in
     let slave_key = Crypto.Sig_scheme.generate Crypto.Sig_scheme.Hmac_sim g in
     let keepalive =
       Secrep_core.Keepalive.make ~master_key ~content_id:"cid" ~master_id:0 ~version:1
         ~now:0.0
     in
     let result = Store.Query_result.Agg (Store.Value.Int 7) in
     (slave_key, master_key, keepalive, result))

let tests =
  [
    Test.make ~name:"sha1/64B" (Staged.stage (fun () -> Crypto.Sha1.digest data_64));
    Test.make ~name:"sha1/1KiB" (Staged.stage (fun () -> Crypto.Sha1.digest data_1k));
    Test.make ~name:"sha1/64KiB" (Staged.stage (fun () -> Crypto.Sha1.digest data_64k));
    Test.make ~name:"sha1/2KiB" (Staged.stage (fun () -> Crypto.Sha1.digest data_2k));
    Test.make ~name:"sha256/1KiB" (Staged.stage (fun () -> Crypto.Sha256.digest data_1k));
    Test.make ~name:"sha256/300B" (Staged.stage (fun () -> Crypto.Sha256.digest data_300));
    Test.make ~name:"canonical/result_digest-range"
      (Staged.stage (fun () -> Store.Canonical.result_digest (Lazy.force range_result)));
    Test.make ~name:"canonical/of_query"
      (Staged.stage (fun () -> Store.Canonical.of_query range_query));
    Test.make ~name:"hmac-sha256/64B"
      (Staged.stage (fun () -> Crypto.Hmac.mac ~hash:Crypto.Hmac.Sha256 ~key:"k" data_64));
    Test.make ~name:"rsa512/sign"
      (Staged.stage (fun () -> Crypto.Rsa.sign (Lazy.force rsa_key) data_64));
    Test.make ~name:"rsa512/verify"
      (Staged.stage (fun () ->
           Crypto.Rsa.verify (Lazy.force rsa_key).Crypto.Rsa.pub ~msg:data_64
             ~signature:(Lazy.force rsa_signature)));
    Test.make ~name:"hmac-sim/sign"
      (Staged.stage (fun () -> Crypto.Sig_scheme.sign (Lazy.force hmac_key) data_64));
    Test.make ~name:"merkle/build-1024"
      (Staged.stage (fun () -> Crypto.Merkle.build (List.init 1024 string_of_int)));
    Test.make ~name:"merkle/prove"
      (Staged.stage (fun () -> Crypto.Merkle.prove (Lazy.force merkle_tree) 500));
    Test.make ~name:"merkle/verify"
      (Staged.stage
         (let proof = lazy (Crypto.Merkle.prove (Lazy.force merkle_tree) 500) in
          fun () ->
            Crypto.Merkle.verify
              ~root:(Crypto.Merkle.root (Lazy.force merkle_tree))
              ~leaf:"leaf-500" (Lazy.force proof)));
    Test.make ~name:"query/point-read-1k-docs"
      (Staged.stage (fun () ->
           Store.Query_eval.execute_exn (Lazy.force fixture_store)
             (Store.Query.point_read "product:00500")));
    Test.make ~name:"query/grep-1k-docs"
      (Staged.stage (fun () ->
           Store.Query_eval.execute_exn (Lazy.force fixture_store) grep_query));
    Test.make ~name:"query/aggregate-1k-docs"
      (Staged.stage (fun () ->
           Store.Query_eval.execute_exn (Lazy.force fixture_store) agg_query));
    Test.make ~name:"regex/match-64B"
      (Staged.stage (fun () -> Store.Regex.matches (Lazy.force regex) data_64));
    Test.make ~name:"bignum/mul-512x256"
      (Staged.stage (fun () -> Crypto.Bignum.mul (Lazy.force bn_a) (Lazy.force bn_b)));
    Test.make ~name:"bignum/divmod-512/256"
      (Staged.stage (fun () -> Crypto.Bignum.divmod (Lazy.force bn_a) (Lazy.force bn_b)));
    Test.make ~name:"bignum/mont-mul-512"
      (Staged.stage (fun () ->
           let _, ctx, x = Lazy.force mont_fixture in
           Crypto.Bignum.Mont.mul ctx x x));
    Test.make ~name:"bignum/modexp-mont-512"
      (Staged.stage (fun () ->
           let n, _, _ = Lazy.force mont_fixture in
           Crypto.Bignum.mod_exp ~base:(Lazy.force bn_b) ~exp:(Lazy.force modexp_exp)
             ~modulus:n));
    Test.make ~name:"bignum/modexp-schoolbook-512"
      (Staged.stage (fun () ->
           let n, _, _ = Lazy.force mont_fixture in
           Crypto.Bignum.mod_exp_schoolbook ~base:(Lazy.force bn_b)
             ~exp:(Lazy.force modexp_exp) ~modulus:n));
    Test.make ~name:"bignum/to_decimal-512"
      (Staged.stage (fun () -> Crypto.Bignum.to_decimal (Lazy.force bn_a)));
    Test.make ~name:"hmac-fresh-schedule/64B"
      (Staged.stage (fun () ->
           Crypto.Hmac.mac_with (Crypto.Hmac.schedule ~hash:Crypto.Hmac.Sha256 ~key:"k")
             data_64));
    Test.make ~name:"pledge/make+verify"
      (Staged.stage (fun () ->
           let slave_key, master_key, keepalive, result = Lazy.force pledge_fixture in
           let pledge =
             Secrep_core.Pledge.make ~slave_key ~slave_id:0
               ~query:(Store.Query.point_read "k")
               ~result_digest:(Store.Canonical.result_digest result)
               ~keepalive ()
           in
           Secrep_core.Pledge.verify
             ~slave_public:(Crypto.Sig_scheme.public_of slave_key)
             ~master_public:(Crypto.Sig_scheme.public_of master_key)
             ~result ~now:1.0 ~max_latency:10.0 pledge));
    Test.make ~name:"event_queue/push+pop-1k"
      (Staged.stage (fun () ->
           let q = Secrep_sim.Event_queue.create () in
           for i = 0 to 999 do
             ignore (Secrep_sim.Event_queue.push q ~time:(float_of_int (i * 7919 mod 1000)) i)
           done;
           while Secrep_sim.Event_queue.pop q <> None do
             ()
           done));
  ]

let run ?(quick = false) fmt =
  let quota = if quick then 0.2 else 0.5 in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:true () in
  Format.fprintf fmt "@.Micro-benchmarks (ns per call, OLS fit)@.%s@."
    (String.make 64 '-');
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysis = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> Format.fprintf fmt "%-28s %14.1f ns/run@." name est
          | Some [] | None -> Format.fprintf fmt "%-28s (no estimate)@." name)
        analysis)
    tests;
  Format.fprintf fmt "%s@." (String.make 64 '-')
