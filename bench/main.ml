(* Benchmark & experiment harness.

   Usage: dune exec bench/main.exe -- [--full] [--json DIR] [e1 e2 ... e15 | micro | all]

   With no arguments every experiment plus the micro-benchmarks run in
   quick mode; --full lengthens the runs (more trials, longer
   simulated durations); --json DIR makes E11-E15 also write their
   machine-readable summaries to DIR/e11.json .. DIR/e15.json.  Each
   experiment regenerates one table or figure of EXPERIMENTS.md.
   E11-E15 also judge their own gates (detection, determinism,
   bit-identity, speedup bounds): once every selected experiment has
   run and written its JSON, the harness exits 1 naming each failed
   gate. *)

let experiments =
  [
    ("e1", "double-check detection vs p", Secrep_experiments.Exp1_detection.run);
    ("e2", "audit guarantees eventual detection", Secrep_experiments.Exp2_audit.run);
    ("e3", "cost vs SMR and state signing", Secrep_experiments.Exp3_cost.run);
    ("e4", "max_latency staleness bound", Secrep_experiments.Exp4_staleness.run);
    ("e5", "write rate cap", Secrep_experiments.Exp5_writes.run);
    ("e6", "auditor asymmetry + diurnal catch-up", Secrep_experiments.Exp6_auditor.run);
    ("e7", "security-levelled reads", Secrep_experiments.Exp7_levels.run);
    ("e8", "quorum reads vs collusion", Secrep_experiments.Exp8_quorum.run);
    ("e9", "ablations: audit cache, extra auditors, greedy throttle",
     Secrep_experiments.Exp9_ablation.run);
    ("e10", "availability + detection latency under churn and partitions",
     Secrep_experiments.Exp10_churn.run);
    ("e11", "deduplicated audit re-execution + Merkle-batched pledge signing",
     Secrep_experiments.Exp11_audit.run);
    ("e12", "sharded content plane: throughput + detection vs shard count",
     Secrep_experiments.Exp12_shard.run);
    ("e13", "strategic adversaries: uniform vs suspicion-weighted auditing",
     Secrep_experiments.Exp13_adversary.run);
    ("e14", "domain-parallel shard execution: speedup + determinism oracle",
     Secrep_experiments.Exp14_parallel.run);
    ("e15", "Montgomery crypto kernel: ops/s + bit-identity vs seed baseline",
     Secrep_experiments.Exp15_crypto.run);
    ("micro", "primitive micro-benchmarks (bechamel)", Secrep_experiments.Micro.run);
  ]

let () =
  let rec take_json = function
    | "--json" :: dir :: rest ->
      Secrep_experiments.Exp_common.json_dir := Some dir;
      take_json rest
    | arg :: rest -> arg :: take_json rest
    | [] -> []
  in
  let args = take_json (List.tl (Array.to_list Sys.argv)) in
  let full = List.mem "--full" args in
  let quick = not full in
  let selected =
    match List.filter (fun a -> a <> "--full" && a <> "all") args with
    | [] -> List.map (fun (name, _, _) -> name) experiments
    | names -> names
  in
  let fmt = Format.std_formatter in
  Format.fprintf fmt
    "secrep experiment harness (%s mode) — reproducing the quantitative claims of@.\
     Popescu, Crispo & Tanenbaum, \"Secure Data Replication over Untrusted Hosts\" \
     (HotOS 2003)@."
    (if quick then "quick" else "full");
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) experiments with
      | Some (n, description, run) ->
        Format.fprintf fmt "@.=== %s: %s ===@." (String.uppercase_ascii n) description;
        let t0 = Unix.gettimeofday () in
        run ~quick fmt;
        Format.fprintf fmt "(%s took %.1fs wall-clock)@." n (Unix.gettimeofday () -. t0)
      | None ->
        Format.fprintf fmt "unknown experiment %S; available: %s@." name
          (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
        exit 1)
    selected;
  match Secrep_experiments.Exp_common.failed_gates () with
  | [] -> ()
  | failed ->
    Format.fprintf fmt "@.failed gates: %s@." (String.concat ", " failed);
    exit 1
