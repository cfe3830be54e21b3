type outcome = Passed of { runs : int } | Failed of Scenario.t Prop.failure

let run ?(runs = 100) ?(max_shrink_steps = 200) ?(invariants = Invariant.all) ?shards
    ?slaves_per_master ~seed () =
  (* CLI pins: applied after generation AND after every shrink step so
     a pinned campaign never drifts off the requested topology. *)
  let pin s =
    let s =
      match shards with None -> s | Some k -> { s with Scenario.n_shards = k }
    in
    match slaves_per_master with
    | None -> s
    | Some r -> { s with Scenario.slaves_per_master = r }
  in
  let gen = Gen.map pin Scenario.gen in
  let shrink s = Seq.map pin (Scenario.shrink s) in
  (* Every shard is judged independently against the full invariant
     set.  [n_shards = 1] takes the classic single-system path, so the
     shrinker's pull toward one shard lands back on the old prop. *)
  let prop scenario =
    match Invariant.check_shards invariants (Harness.run_sharded scenario) with
    | [] -> Ok ()
    | first :: _ -> Error first
  in
  match
    Prop.check ~runs ~max_shrink_steps ~seed ~gen ~shrink prop
  with
  | Prop.Pass { runs } -> Passed { runs }
  | Prop.Fail f -> Failed f

let replay_hint (f : Scenario.t Prop.failure) =
  Printf.sprintf "secrep_sim_cli fuzz --seed %Ld --runs 1" f.Prop.seed

let pp_outcome fmt = function
  | Passed { runs } ->
    Format.fprintf fmt "fuzz: %d run(s), all invariants held" runs
  | Failed f ->
    Format.fprintf fmt
      "@[<v>fuzz: FAILED on run %d (seed %Ld)@,\
       @,\
       violation: %s@,\
       @,\
       original %a@,\
       @,\
       shrunk (%d step(s), %d candidate(s) tried): %s@,\
       shrunk %a@,\
       @,\
       replay: %s@]"
      f.Prop.run f.Prop.seed f.Prop.reason Scenario.pp f.Prop.original f.Prop.shrink_steps
      f.Prop.shrink_attempts f.Prop.shrunk_reason Scenario.pp f.Prop.shrunk
      (replay_hint f)
