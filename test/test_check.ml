(* Tests for the property-based testing library (generators, shrinkers,
   the property runner) and the simulation fuzz harness built on it:
   deterministic replay, the paper-level invariants under forced
   attacks, and counterexample shrinking quality. *)

open Secrep_check
module Fault = Secrep_core.Fault
module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ---------------- Gen ---------------- *)

let test_gen_deterministic () =
  let g = Gen.list_size (Gen.int_range 0 20) (Gen.int_range (-50) 50) in
  check bool_t "same seed, same list" true (Gen.run ~seed:7L g = Gen.run ~seed:7L g);
  check bool_t "different seeds diverge somewhere" true
    (List.exists
       (fun seed -> Gen.run ~seed g <> Gen.run ~seed:7L g)
       [ 8L; 9L; 10L; 11L; 12L ])

let test_gen_ranges () =
  let g = Gen.int_range 3 9 in
  for seed = 0 to 200 do
    let v = Gen.run ~seed:(Int64.of_int seed) g in
    if v < 3 || v > 9 then Alcotest.failf "int_range out of range: %d" v
  done;
  let f = Gen.float_range 0.5 2.5 in
  for seed = 0 to 200 do
    let v = Gen.run ~seed:(Int64.of_int seed) f in
    if v < 0.5 || v >= 2.5 then Alcotest.failf "float_range out of range: %f" v
  done

let test_gen_frequency () =
  (* Weight 0 on the left arm means it is never chosen... weights must
     be positive, so instead check a 1:9 split lands mostly right. *)
  let g = Gen.frequency [ (1, Gen.return `Rare); (9, Gen.return `Common) ] in
  let rare = ref 0 in
  for seed = 0 to 999 do
    if Gen.run ~seed:(Int64.of_int seed) g = `Rare then incr rare
  done;
  check bool_t "rare arm is rare but present" true (!rare > 0 && !rare < 400)

(* ---------------- Shrink ---------------- *)

let test_shrink_int_towards () =
  let cands = List.of_seq (Shrink.int_towards ~target:0 100) in
  check bool_t "boldest candidate first" true (List.hd cands = 0);
  check bool_t "all between target and value" true (List.for_all (fun c -> c >= 0 && c < 100) cands);
  check bool_t "fixed point shrinks to nothing" true
    (List.of_seq (Shrink.int_towards ~target:5 5) = []);
  let up = List.of_seq (Shrink.int_towards ~target:10 2) in
  check bool_t "works upward too" true (List.hd up = 10 && List.for_all (fun c -> c > 2 && c <= 10) up)

let test_shrink_list () =
  let cands = List.of_seq (Shrink.list ~elt:(Shrink.int_towards ~target:0) [ 4; 7 ]) in
  check bool_t "empty list first" true (List.hd cands = []);
  check bool_t "drops single elements" true (List.mem [ 4 ] cands && List.mem [ 7 ] cands);
  check bool_t "shrinks elements in place" true (List.mem [ 0; 7 ] cands && List.mem [ 4; 0 ] cands);
  check bool_t "empty list has no candidates" true (List.of_seq (Shrink.list []) = [])

(* ---------------- Prop ---------------- *)

let test_prop_pass () =
  match
    Prop.check ~runs:50 ~seed:1L ~gen:(Gen.int_range 0 10) ~shrink:Shrink.nothing (fun v ->
        if v <= 10 then Ok () else Error "impossible")
  with
  | Prop.Pass { runs } -> check int_t "all runs executed" 50 runs
  | Prop.Fail _ -> Alcotest.fail "property should hold"

let test_prop_shrinks_to_minimum () =
  (* sum >= 30 fails; the greedy shrinker should land on a 1-minimal
     list: dropping any element or shrinking any element passes. *)
  let gen = Gen.list_size (Gen.int_range 0 20) (Gen.int_range 0 20) in
  let shrink = Shrink.list ~elt:(Shrink.int_towards ~target:0) in
  let sum = List.fold_left ( + ) 0 in
  let prop l = if sum l >= 30 then Error "sum too large" else Ok () in
  match Prop.check ~runs:200 ~seed:3L ~gen ~shrink prop with
  | Prop.Pass _ -> Alcotest.fail "expected a failure"
  | Prop.Fail f ->
    check bool_t "original fails" true (prop f.Prop.original <> Ok ());
    check bool_t "shrunk fails" true (prop f.Prop.shrunk <> Ok ());
    check bool_t "shrunk no bigger than original" true
      (List.length f.Prop.shrunk <= List.length f.Prop.original);
    check bool_t "1-minimal: dropping any element passes" true
      (List.for_all
         (fun i -> prop (List.filteri (fun j _ -> j <> i) f.Prop.shrunk) = Ok ())
         (List.init (List.length f.Prop.shrunk) Fun.id));
    check bool_t "replay seed regenerates the original" true
      (Gen.run ~seed:f.Prop.seed gen = f.Prop.original)

let test_prop_respects_shrink_cap () =
  let gen = Gen.int_range 1000 100000 in
  let prop v = if v >= 1 then Error "always fails" else Ok () in
  match
    Prop.check ~runs:1 ~max_shrink_steps:2 ~seed:5L ~gen
      ~shrink:(Shrink.int_towards ~target:1) prop
  with
  | Prop.Pass _ -> Alcotest.fail "expected a failure"
  | Prop.Fail f -> check bool_t "step cap respected" true (f.Prop.shrink_steps <= 2)

(* ---------------- Scenario ---------------- *)

let test_scenario_normalize_idempotent () =
  for seed = 0 to 49 do
    let s = Gen.run ~seed:(Int64.of_int seed) Scenario.gen in
    check bool_t "normalize is idempotent" true
      (Scenario.to_string (Scenario.normalize s) = Scenario.to_string s)
  done

let test_scenario_shrink_stays_normal () =
  let s = Gen.run ~seed:11L Scenario.gen in
  Seq.iter
    (fun c ->
      check bool_t "shrink candidates are normalized" true
        (Scenario.to_string (Scenario.normalize c) = Scenario.to_string c))
    (Scenario.shrink s)

(* ---------------- Harness: deterministic replay ---------------- *)

let test_harness_replay_identical () =
  (* Satellite: two runs from the same seed produce identical event
     streams, bit for bit. *)
  List.iter
    (fun seed ->
      let scenario = Gen.run ~seed Scenario.gen in
      let a = Harness.run scenario in
      let b = Harness.run scenario in
      check string_t
        (Printf.sprintf "event streams equal for seed %Ld" seed)
        (Harness.events_digest a) (Harness.events_digest b);
      check int_t "same number of events" (List.length a.Harness.events)
        (List.length b.Harness.events);
      check bool_t "same accepted reads" true (a.Harness.accepted = b.Harness.accepted))
    [ 1L; 2L; 17L; 23L ]

let test_fuzz_campaign_deterministic () =
  let run () = Fuzz.run ~runs:10 ~seed:42L () in
  match (run (), run ()) with
  | Fuzz.Passed { runs = a }, Fuzz.Passed { runs = b } -> check int_t "same pass" a b
  | Fuzz.Failed a, Fuzz.Failed b ->
    check bool_t "same failure" true
      (a.Prop.seed = b.Prop.seed
      && Scenario.to_string a.Prop.shrunk = Scenario.to_string b.Prop.shrunk)
  | _ -> Alcotest.fail "campaign outcomes diverged between identical runs"

(* ---------------- Invariants under forced attacks ---------------- *)

let attack_scenario ?(pledge_batch = 1) ~sys_seed ~mode () =
  {
    Scenario.sys_seed;
    n_shards = 1;
    n_masters = 1;
    slaves_per_master = 1;
    n_clients = 2;
    n_items = 4;
    max_latency = 1.0;
    keepalive_period = 0.3;
    double_check_p = 0.05;
    audit = true;
    pledge_batch;
    read_nonces = false;
    audit_adaptive = false;
    net = Scenario.Lan;
    faults = [ { Scenario.slave = 0; mode; probability = 1.0; from_time = 0.0 } ];
    chaos = [];
    ops =
      (* A few writes early so a frozen (Stale_state) store diverges,
         then reads spread over the attack window. *)
      [
        Scenario.Write { client = 0; key = 0; at = 0.5 };
        Scenario.Write { client = 1; key = 1; at = 2.0 };
        Scenario.Write { client = 0; key = 2; at = 4.0 };
      ]
      @ List.init 12 (fun i ->
            Scenario.Read { client = i mod 2; key = i mod 4; at = 1.0 +. (0.9 *. float_of_int i) });
  }

(* The headline acceptance test: across >= 100 varied runs with a slave
   forced to lie, every accepted-but-wrong answer is eventually flagged
   (double-check mismatch, audit conviction or exclusion), and the
   attack actually bites (some wrong answers do get accepted). *)
let test_detection_across_100_runs () =
  let total_wrong = ref 0 in
  for i = 0 to 109 do
    let mode = if i mod 2 = 0 then Fault.Corrupt_result else Fault.Stale_state in
    let result = Harness.run (attack_scenario ~sys_seed:i ~mode ()) in
    total_wrong :=
      !total_wrong
      + List.length (List.filter (fun a -> a.Harness.wrong) result.Harness.accepted);
    match Invariant.detection.Invariant.check result with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "run %d (%s): %s" i (if i mod 2 = 0 then "corrupt" else "stale") msg
  done;
  check bool_t "the attack produced accepted wrong answers to detect" true (!total_wrong > 0)

let test_all_invariants_under_attack () =
  for i = 0 to 19 do
    let result =
      Harness.run (attack_scenario ~sys_seed:(1000 + i) ~mode:Fault.Corrupt_result ())
    in
    match Invariant.check_all Invariant.all result with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "run %d: %s" i msg
  done

let test_no_false_accusation_honest_runs () =
  for i = 0 to 19 do
    let s =
      {
        (attack_scenario ~sys_seed:(2000 + i) ~mode:Fault.Corrupt_result ()) with
        Scenario.faults = [];
      }
    in
    let result = Harness.run s in
    match Invariant.check_all Invariant.all result with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "honest run %d: %s" i msg
  done

(* ---------------- Harness: pinned streams ---------------- *)

(* Event-stream digests and accepted-read counts pinned from an earlier
   build.  The replay test above compares two runs of the same build;
   these catch a stream that drifts between commits, e.g. from moving
   the subscribe, load, fault, chaos or op steps of the harness. *)
let check_pinned result ~digest ~accepted =
  check string_t "events digest" digest (Harness.events_digest result);
  check int_t "accepted reads" accepted (List.length result.Harness.accepted)

let test_pinned_chaos_windows () =
  let scenario =
    {
      (attack_scenario ~sys_seed:4242 ~mode:Fault.Corrupt_result ()) with
      Scenario.slaves_per_master = 3;
      faults = [];
      chaos =
        [
          Scenario.Slave_cut { slave = 0; from_time = 2.0; outage = 4.0 };
          Scenario.Slave_churn { slave = 1; from_time = 3.0; outage = 5.0 };
          Scenario.Master_cut { master = 0; from_time = 4.0; outage = 2.0 };
          Scenario.Auditor_cut { from_time = 5.0; outage = 3.0 };
          Scenario.Loss_burst { loss = 0.3; from_time = 6.0; duration = 2.0 };
          Scenario.Latency_spike { factor = 3.0; from_time = 8.0; duration = 2.0 };
        ];
    }
  in
  check_pinned (Harness.run scenario) ~digest:"02bbd35218b13f2b3639e2d059cc60fad9a3eb50"
    ~accepted:12

let test_pinned_liar () =
  check_pinned
    (Harness.run (attack_scenario ~sys_seed:77 ~mode:Fault.Corrupt_result ()))
    ~digest:"455c3e67475c0210be6ad90bb8bd3a2894afb9cb" ~accepted:2

(* ---------------- Differential audit ---------------- *)

(* The tentpole's correctness argument: replay each attacked run's
   recorded pledge stream through the naive per-pledge auditor and the
   dedup/batched auditor, demand verdict-for-verdict agreement — and
   make sure the comparison has teeth (some runs convict, some pledges
   dedup). *)
let test_differential_audit_under_attack () =
  let module Audit_core = Secrep_core.Audit_core in
  let caught = ref 0 and dedup_hits = ref 0 and pledges_seen = ref 0 in
  for i = 0 to 29 do
    let mode =
      match i mod 3 with
      | 0 -> Fault.Corrupt_result
      | 1 -> Fault.Stale_state
      | _ -> Fault.Bad_signature
    in
    let pledge_batch = 1 + (i mod 4) in
    let scenario = attack_scenario ~pledge_batch ~sys_seed:(3000 + i) ~mode () in
    (* Even-numbered runs are honest: the attacked runs convict and
       exclude their only slave within a couple of reads, so the honest
       runs supply the long repeated-read pledge streams that give the
       dedup index something to deduplicate. *)
    let scenario =
      if i mod 2 = 0 then { scenario with Scenario.faults = [] } else scenario
    in
    let result = Harness.run scenario in
    pledges_seen := !pledges_seen + List.length result.Harness.pledges;
    (match Invariant.differential_audit.Invariant.check result with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "run %d (batch=%d): %s" i pledge_batch msg);
    let naive =
      Audit_core.run_naive ~slave_public:result.Harness.slave_public
        ~reexec:result.Harness.reexec result.Harness.pledges
    in
    let _, stats =
      Audit_core.run_dedup ~slave_public:result.Harness.slave_public
        ~reexec:result.Harness.reexec result.Harness.pledges
    in
    caught :=
      !caught
      + List.length
          (List.filter (fun v -> not (Audit_core.equal_verdict v Audit_core.Ok_pledge)) naive);
    dedup_hits := !dedup_hits + stats.Audit_core.dedup_hits
  done;
  check bool_t "pledges were recorded" true (!pledges_seen > 0);
  check bool_t "some runs actually convicted" true (!caught > 0);
  check bool_t "the dedup index actually deduplicated" true (!dedup_hits > 0)

(* Batched runs satisfy every paper invariant, and batching changes no
   verdicts relative to the semantics the other invariants encode. *)
let test_all_invariants_batched () =
  for i = 0 to 9 do
    let result =
      Harness.run
        (attack_scenario ~pledge_batch:4 ~sys_seed:(4000 + i) ~mode:Fault.Corrupt_result ())
    in
    match Invariant.check_all Invariant.all result with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "batched run %d: %s" i msg
  done

(* ---------------- Hand-built violating streams ---------------- *)

(* One stream per stream-judged invariant that violates it: the
   checker must name the violation, and the SLO rule that serves the
   invariant must raise on the same stream. *)
let hand_built ?(faults = []) ~end_time events =
  let scenario =
    {
      (attack_scenario ~sys_seed:0 ~mode:Fault.Corrupt_result ()) with
      Scenario.faults;
      ops = [];
    }
  in
  let config = Harness.config_of_scenario scenario in
  let events = List.map (fun (time, event) -> { Trace.time; source = "test"; event }) events in
  {
    Harness.scenario;
    config;
    events;
    accepted = [];
    end_time;
    pledges = [];
    reexec = (fun ~version:_ _ -> None);
    slave_public = (fun _ -> None);
    slo = lazy (Harness.fold_slo config events ~end_time);
  }

(* The alert comes from the same fold the checker read. *)
let raised rule (result : Harness.run_result) =
  Secrep_monitor.Slo.was_raised (Lazy.force result.Harness.slo) rule

let check_violation (c : Invariant.checker) ~rule ~message result =
  (match c.Invariant.check result with
  | Ok () -> Alcotest.failf "%s held on its violating stream" c.Invariant.name
  | Error msg -> check string_t (c.Invariant.name ^ " message") message msg);
  check bool_t (rule ^ " alert raised") true (raised rule result)

let test_violation_staleness () =
  check_violation Invariant.staleness ~rule:"staleness"
    ~message:
      "pledge for version 1 verified OK at t=3.500, more than max_latency=1 after version 2 \
       committed at t=1.000"
    (hand_built ~end_time:10.0
       [
         (1.0, Event.Write_committed { master = 0; version = 2 });
         ( 3.5,
           Event.Pledge_verified
             { client = 0; request = 7; slave = 0; version = 1; ok = true; reason = "" } );
       ])

let test_violation_write_spacing () =
  check_violation Invariant.write_spacing ~rule:"write-spacing"
    ~message:
      "master 0 committed version 1 at t=1.000 and version 2 at t=1.500, closer than \
       max_latency=1"
    (hand_built ~end_time:10.0
       [
         (1.0, Event.Write_committed { master = 0; version = 1 });
         (1.5, Event.Write_committed { master = 0; version = 2 });
       ])

let test_violation_availability () =
  check_violation Invariant.availability ~rule:"availability"
    ~message:
      "client 0 issued 1 read(s) but only 0 completed by t=100.000 — a read hung without \
       being accepted, served by the master, or failed explicitly"
    (hand_built ~end_time:100.0
       [ (1.0, Event.Read_issued { client = 0; request = 1; mode = "single" }) ])

let test_violation_recovery () =
  check_violation Invariant.recovery_convergence ~rule:"recovery"
    ~message:
      "slave 0 rejoined at t=5.000 with version 1 but did not reach committed version 2 by \
       t=6.000 (max_latency=1)"
    (hand_built ~end_time:30.0
       [
         (1.0, Event.Write_committed { master = 0; version = 1 });
         (2.5, Event.Write_committed { master = 0; version = 2 });
         (3.0, Event.Node_crashed { node = "slave-0" });
         (5.0, Event.Node_recovered { node = "slave-0"; version = 1 });
       ])

let test_violation_false_accusation () =
  check_violation Invariant.no_false_accusation ~rule:"false-accusation"
    ~message:
      "slave 2 was accused (conviction, exclusion or double-check mismatch) in a run with no \
       injected faults"
    (hand_built ~end_time:10.0 [ (4.0, Event.Audit_conviction { slave = 2; version = 1 }) ])

(* ---------------- Shrinking a real failure ---------------- *)

(* A deliberately broken checker: it "fails" whenever any read is
   accepted.  Since almost every scenario accepts reads, fuzzing finds a
   "counterexample" immediately and the shrinker must cut it down to a
   minimal scenario that still accepts a read: barely any topology, and
   one or two ops. *)
let inverted_checker =
  {
    Invariant.name = "inverted";
    doc = "deliberately broken: flags any accepted read";
    check =
      (fun result ->
        if result.Harness.accepted <> [] then Error "a read was accepted" else Ok ());
  }

let test_inverted_invariant_shrinks_small () =
  match Fuzz.run ~runs:50 ~invariants:[ inverted_checker ] ~seed:7L () with
  | Fuzz.Passed _ -> Alcotest.fail "inverted invariant should fail fast"
  | Fuzz.Failed f ->
    let s = f.Prop.shrunk in
    check bool_t "<= 3 clients" true (s.Scenario.n_clients <= 3);
    check bool_t "<= 2 slaves" true (s.Scenario.n_masters * s.Scenario.slaves_per_master <= 2);
    check bool_t "<= 5 ops" true (List.length s.Scenario.ops <= 5);
    (* The printed replay seed reproduces the failure exactly. *)
    check bool_t "seed regenerates the original scenario" true
      (Scenario.to_string (Gen.run ~seed:f.Prop.seed Scenario.gen)
      = Scenario.to_string f.Prop.original);
    check bool_t "original still fails" true
      (inverted_checker.Invariant.check (Harness.run f.Prop.original) <> Ok ());
    check bool_t "shrunk still fails" true
      (inverted_checker.Invariant.check (Harness.run s) <> Ok ());
    let contains haystack needle =
      let rec go i =
        if i + String.length needle > String.length haystack then false
        else String.sub haystack i (String.length needle) = needle || go (i + 1)
      in
      go 0
    in
    check bool_t "replay hint names the seed" true
      (contains (Fuzz.replay_hint f) (Printf.sprintf "--seed %Ld" f.Prop.seed));
    let report = Format.asprintf "%a" Fuzz.pp_outcome (Fuzz.Failed f) in
    check bool_t "report shows the replay line" true (contains report "replay:");
    check bool_t "report shows the violation" true (contains report "a read was accepted")

let test_invariant_named () =
  (match Invariant.named [ "staleness"; "detection" ] with
  | Ok [ a; b ] ->
    check string_t "first" "staleness" a.Invariant.name;
    check string_t "second" "detection" b.Invariant.name
  | Ok _ -> Alcotest.fail "wrong arity"
  | Error e -> Alcotest.fail e);
  (match Invariant.named [] with
  | Ok l -> check int_t "empty selects all" (List.length Invariant.all) (List.length l)
  | Error e -> Alcotest.fail e);
  match Invariant.named [ "bogus" ] with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error _ -> ()

let () =
  Alcotest.run "secrep_check"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "ranges" `Quick test_gen_ranges;
          Alcotest.test_case "frequency" `Quick test_gen_frequency;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "int_towards" `Quick test_shrink_int_towards;
          Alcotest.test_case "list" `Quick test_shrink_list;
        ] );
      ( "prop",
        [
          Alcotest.test_case "pass" `Quick test_prop_pass;
          Alcotest.test_case "shrinks to 1-minimal" `Quick test_prop_shrinks_to_minimum;
          Alcotest.test_case "respects shrink cap" `Quick test_prop_respects_shrink_cap;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "normalize idempotent" `Quick test_scenario_normalize_idempotent;
          Alcotest.test_case "shrink stays normal" `Quick test_scenario_shrink_stays_normal;
        ] );
      ( "replay",
        [
          Alcotest.test_case "identical event streams" `Quick test_harness_replay_identical;
          Alcotest.test_case "campaign deterministic" `Quick test_fuzz_campaign_deterministic;
          Alcotest.test_case "pinned stream: K=1 chaos windows" `Quick
            test_pinned_chaos_windows;
          Alcotest.test_case "pinned stream: K=1 liar" `Quick test_pinned_liar;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "detection across 100+ attacked runs" `Quick
            test_detection_across_100_runs;
          Alcotest.test_case "all invariants under attack" `Quick test_all_invariants_under_attack;
          Alcotest.test_case "honest runs never accused" `Quick
            test_no_false_accusation_honest_runs;
          Alcotest.test_case "named lookup" `Quick test_invariant_named;
        ] );
      ( "violations",
        [
          Alcotest.test_case "stale accepted pledge" `Quick test_violation_staleness;
          Alcotest.test_case "commits closer than max_latency" `Quick
            test_violation_write_spacing;
          Alcotest.test_case "hung read" `Quick test_violation_availability;
          Alcotest.test_case "rejoin never catches up" `Quick test_violation_recovery;
          Alcotest.test_case "accusation in an honest run" `Quick
            test_violation_false_accusation;
        ] );
      ( "differential",
        [
          Alcotest.test_case "naive and dedup auditors agree under attack" `Quick
            test_differential_audit_under_attack;
          Alcotest.test_case "all invariants hold with batching on" `Quick
            test_all_invariants_batched;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "inverted invariant shrinks small" `Quick
            test_inverted_invariant_shrinks_small;
        ] );
    ]
