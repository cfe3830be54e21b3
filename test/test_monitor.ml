(* Tests for the monitor layer: causal read lineage, the online SLO
   rule engine, the health report, and their agreement with the fuzz
   invariants and the E1 experiment. *)

module System = Secrep_core.System
module Config = Secrep_core.Config
module Client = Secrep_core.Client
module Fault = Secrep_core.Fault
module Corrective = Secrep_core.Corrective
module Sim = Secrep_sim.Sim
module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Export = Secrep_sim.Export
module Query = Secrep_store.Query
module Oplog = Secrep_store.Oplog
module Value = Secrep_store.Value
module Document = Secrep_store.Document
module Slo = Secrep_monitor.Slo
module Lineage = Secrep_monitor.Lineage
module Health = Secrep_monitor.Health
module Invariant = Secrep_check.Invariant
module Harness = Secrep_check.Harness
module Scenario = Secrep_check.Scenario

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let fast_config =
  {
    Config.default with
    Config.max_latency = 2.0;
    keepalive_period = 0.5;
    double_check_probability = 0.05;
    audit_lag_slack = 0.5;
  }

let catalog =
  List.init 20 (fun i ->
      ( Printf.sprintf "item:%03d" i,
        Document.of_fields
          [
            ("name", Value.String (Printf.sprintf "item number %d" i));
            ("price", Value.Float (float_of_int (i * 10)));
          ] ))

let make_system ?(config = fast_config) ?(n_masters = 2) ?(slaves_per_master = 2)
    ?(n_clients = 4) ?(seed = 11L) () =
  let system =
    System.create ~n_masters ~slaves_per_master ~n_clients ~config ~net:System.lan_net ~seed ()
  in
  System.load_content system catalog;
  system

(* Subscribe lineage + SLO to the live stream, like the CLI does. *)
let attach ?(config = fast_config) system =
  let slo = Slo.create ~trace:(System.trace system) ~config:(Slo.config config) () in
  let lineage = Lineage.create () in
  Trace.on_emit (System.trace system) (fun r ->
      Lineage.observe lineage r;
      Slo.observe slo r);
  (slo, lineage)

let finalize system slo =
  Slo.finalize slo ~now:(Sim.now (System.sim system))

let issue_reads ?level ?mode ?(client = fun i -> i mod 4) system ~n ~spacing =
  let reports = ref [] in
  let sim = System.sim system in
  for i = 0 to n - 1 do
    ignore
      (Sim.schedule sim ~delay:(spacing *. float_of_int i) (fun () ->
           System.read system ~client:(client i) ?level ?mode
             (Query.point_read (Printf.sprintf "item:%03d" (i mod 20)))
             ~on_done:(fun r -> reports := r :: !reports)))
  done;
  reports

(* ---------------- clean run ---------------- *)

let test_clean_run_zero_alerts () =
  let system = make_system () in
  let slo, lineage = attach system in
  System.write system ~client:1
    (Oplog.Set_field { key = "item:001"; field = "price"; value = Value.Float 42.0 })
    ~on_done:(fun _ -> ());
  let reports = issue_reads system ~n:40 ~spacing:0.2 in
  System.run_for system 60.0;
  finalize system slo;
  check int_t "reads completed" 40 (List.length !reports);
  check int_t "no alerts on a clean run" 0 (List.length (Slo.alerts slo));
  let s = Lineage.summarize lineage in
  check int_t "lineage issued" 40 s.Lineage.issued;
  check int_t "lineage completed" 40 s.Lineage.completed;
  check int_t "lineage accepted" 40 s.Lineage.accepted;
  check int_t "nothing outstanding" 0 s.Lineage.outstanding;
  check int_t "nothing lied" 0 s.Lineage.lied_served;
  check bool_t "e2e p99 positive" true (s.Lineage.e2e_p99 > 0.0);
  (* every request has a critical path: all three phases fully counted *)
  List.iter
    (fun (p : Lineage.phase) ->
      check int_t (p.Lineage.phase ^ " counted") 40 p.Lineage.count)
    s.Lineage.critical_path;
  let health = Health.build ~trace:(System.trace system) ~spans:(System.spans system) ~slo ~lineage () in
  check bool_t "healthy" true (Health.healthy health);
  check int_t "no leaked spans" 0 (List.length health.Health.diagnostics.Health.leaked_spans);
  (* lineage JSONL: one object per request, parseable *)
  let lines = String.split_on_char '\n' (String.trim (Lineage.jsonl lineage)) in
  check int_t "one lineage line per read" 40 (List.length lines);
  List.iter
    (fun line ->
      match Export.Json.parse line with
      | Ok (Export.Json.Obj fields) ->
        check bool_t "has request id" true (List.mem_assoc "request" fields)
      | Ok _ -> Alcotest.fail "lineage line is not an object"
      | Error msg -> Alcotest.fail msg)
    lines;
  (* health JSON round-trips through the parser *)
  match Export.Json.parse (Export.Json.to_string (Health.to_json health)) with
  | Ok (Export.Json.Obj fields) ->
    check bool_t "healthy in json" true
      (List.assoc_opt "healthy" fields = Some (Export.Json.Bool true))
  | Ok _ -> Alcotest.fail "health json is not an object"
  | Error msg -> Alcotest.fail msg

(* ---------------- lineage under attack ---------------- *)

let test_lineage_attack_detection () =
  (* A liar is convicted by the auditor; lineage must attribute the
     lied reads to it and report a detection latency. *)
  let config = { fast_config with Config.double_check_probability = 0.0 } in
  let system = make_system ~config () in
  let slo, lineage = attach ~config system in
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 0.0 });
  let reports = issue_reads ~client:(fun _ -> 0) system ~n:10 ~spacing:0.3 in
  System.run_for system 120.0;
  finalize system slo;
  check int_t "reads completed" 10 (List.length !reports);
  check bool_t "auditor convicted the liar" true
    (Corrective.is_excluded (System.corrective system) ~slave_id:victim);
  Lineage.finalize lineage;
  let s = Lineage.summarize lineage in
  check bool_t "lied reads recorded" true (s.Lineage.lied_served > 0);
  check bool_t "some lied reads marked detected" true (s.Lineage.detected_lied > 0);
  check bool_t "detection latency positive" true (s.Lineage.detection_max > 0.0);
  let row =
    match
      List.find_opt (fun (r : Lineage.slave_row) -> r.Lineage.slave = victim)
        (Lineage.slave_rows lineage)
    with
    | Some r -> r
    | None -> Alcotest.fail "victim has no slave row"
  in
  check bool_t "victim served reads" true (row.Lineage.served > 0);
  check bool_t "victim lied" true (row.Lineage.lied_served > 0);
  check bool_t "victim accused" true (row.Lineage.first_accused_at <> None);
  check bool_t "reads-before-detection counted" true
    (row.Lineage.reads_before_detection <> None);
  (* the conviction arrived inside the audit budget: no detection alert *)
  check bool_t "no detection alert (caught in time)" true
    (not (Slo.was_raised slo "detection"))

let test_undetected_liar_raises_detection () =
  (* No double-checks, no audit: nothing ever accuses the liar, so the
     SLO monitor must — online once the budget lapses. *)
  let config =
    { fast_config with Config.double_check_probability = 0.0; audit_enabled = false }
  in
  let system = make_system ~config () in
  let slo, _lineage = attach ~config system in
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 0.0 });
  let reports = issue_reads ~client:(fun _ -> 0) system ~n:10 ~spacing:0.3 in
  System.run_for system 60.0;
  finalize system slo;
  check int_t "reads completed" 10 (List.length !reports);
  check bool_t "detection alert raised" true (Slo.was_raised slo "detection");
  check bool_t "still active at end of run" true
    (List.exists (fun (a : Slo.alert) -> a.Slo.rule = "detection") (Slo.active slo));
  (* the raise was emitted into the live trace as a typed event *)
  check bool_t "alert_raised event in trace" true
    (Trace.count_kind (System.trace system) ~kind:"alert_raised" > 0)

(* ---------------- blackout ---------------- *)

let test_blackout_raises_availability_and_staleness () =
  let system = make_system () in
  let slo, lineage = attach system in
  let sim = System.sim system in
  (* cut every slave at t=5, heal at t=60 *)
  let n_slaves = System.n_slaves system in
  ignore
    (Sim.schedule sim ~delay:5.0 (fun () ->
         for s = 0 to n_slaves - 1 do
           System.set_slave_connectivity system ~slave_id:s ~up:false
         done));
  ignore
    (Sim.schedule sim ~delay:60.0 (fun () ->
         for s = 0 to n_slaves - 1 do
           System.set_slave_connectivity system ~slave_id:s ~up:true
         done));
  (* a write during the blackout cannot reach any slave: staleness *)
  ignore
    (Sim.schedule sim ~delay:8.0 (fun () ->
         System.write system ~client:1
           (Oplog.Set_field { key = "item:002"; field = "price"; value = Value.Float 7.0 })
           ~on_done:(fun _ -> ())));
  let reports = issue_reads system ~n:30 ~spacing:1.0 in
  System.run_for system 180.0;
  finalize system slo;
  check int_t "reads completed" 30 (List.length !reports);
  check bool_t "some reads went degraded" true
    (List.exists
       (fun r -> match r.Client.outcome with `Served_by_master _ -> true | _ -> false)
       !reports);
  check bool_t "availability alert raised" true (Slo.was_raised slo "availability");
  check bool_t "staleness alert raised" true (Slo.was_raised slo "staleness");
  (* degraded reads show up in the lineage summary too *)
  let s = Lineage.summarize lineage in
  check bool_t "degraded lineage" true (s.Lineage.degraded > 0);
  (* availability cleared once the blackout healed and reads recovered *)
  let avail =
    List.filter (fun (a : Slo.alert) -> a.Slo.rule = "availability") (Slo.alerts slo)
  in
  check bool_t "availability eventually cleared" true
    (List.for_all (fun (a : Slo.alert) -> a.Slo.cleared_at <> None) avail)

(* ---------------- synthetic rule checks ---------------- *)

let record ~time event = { Trace.time; source = "test"; event }

let synthetic_slo () =
  Slo.create ~config:(Slo.config (Config.validate_exn { Config.default with Config.max_latency = 5.0 })) ()

let test_synthetic_write_spacing () =
  let slo = synthetic_slo () in
  Slo.observe slo (record ~time:0.0 (Event.Write_committed { master = 0; version = 1 }));
  Slo.observe slo (record ~time:1.0 (Event.Write_committed { master = 0; version = 2 }));
  check bool_t "write-spacing raised" true (Slo.was_raised slo "write-spacing");
  (* a different master committing close in time is fine *)
  let slo2 = synthetic_slo () in
  Slo.observe slo2 (record ~time:0.0 (Event.Write_committed { master = 0; version = 1 }));
  Slo.observe slo2 (record ~time:1.0 (Event.Write_committed { master = 1; version = 2 }));
  check bool_t "per-master only" true (not (Slo.was_raised slo2 "write-spacing"))

let test_synthetic_staleness_and_clear () =
  let slo = synthetic_slo () in
  Slo.observe slo (record ~time:0.0 (Event.Write_committed { master = 0; version = 1 }));
  Slo.observe slo
    (record ~time:1.0 (Event.State_update_applied { slave = 0; from_version = 0; to_version = 1 }));
  Slo.observe slo (record ~time:10.0 (Event.Write_committed { master = 0; version = 2 }));
  Slo.observe slo
    (record ~time:10.5 (Event.State_update_applied { slave = 0; from_version = 1; to_version = 2 }));
  (* a pledge for version 1 verified long after commit(2) + max_latency *)
  Slo.observe slo
    (record ~time:40.0
       (Event.Pledge_verified
          { client = 0; request = 1; slave = 0; version = 1; ok = true; reason = "" }));
  check bool_t "staleness raised" true (Slo.was_raised slo "staleness");
  (* pulse decays after a quiet window *)
  Slo.observe slo (record ~time:200.0 (Event.Keepalive_sent { master = 0; version = 2 }));
  check bool_t "staleness cleared" true
    (not (List.exists (fun (a : Slo.alert) -> a.Slo.rule = "staleness") (Slo.active slo)));
  let a =
    List.find (fun (a : Slo.alert) -> a.Slo.rule = "staleness") (Slo.alerts slo)
  in
  check bool_t "cleared_at recorded" true (a.Slo.cleared_at <> None)

let test_synthetic_false_accusation () =
  let slo = synthetic_slo () in
  Slo.observe slo (record ~time:1.0 (Event.Audit_conviction { slave = 3; version = 1 }));
  check bool_t "false-accusation raised" true (Slo.was_raised slo "false-accusation");
  (* an accusation of a slave that did lie is legitimate *)
  let slo2 = synthetic_slo () in
  Slo.observe slo2
    (record ~time:0.5
       (Event.Pledge_signed { slave = 3; request = 1; version = 1; lied = true }));
  Slo.observe slo2 (record ~time:1.0 (Event.Audit_conviction { slave = 3; version = 1 }));
  check bool_t "legitimate accusation passes" true
    (not (Slo.was_raised slo2 "false-accusation"));
  check bool_t "accused liar needs no detection alert" true
    (not (Slo.was_raised slo2 "detection"))

let test_synthetic_availability_burn () =
  let slo = synthetic_slo () in
  for i = 1 to 12 do
    let t = float_of_int i *. 0.1 in
    Slo.observe slo
      (record ~time:t (Event.Read_issued { client = 0; request = i; mode = "single" }));
    Slo.observe slo
      (record ~time:(t +. 0.01)
         (Event.Read_answered
            { client = 0; request = i; slave = -1; outcome = "gave-up"; version = -1; latency = 0.01 }))
  done;
  check bool_t "availability burn raised" true (Slo.was_raised slo "availability");
  (* sensitive reads served by the master are not "degraded" *)
  let slo2 = synthetic_slo () in
  for i = 1 to 12 do
    let t = float_of_int i *. 0.1 in
    Slo.observe slo2
      (record ~time:t (Event.Read_issued { client = 0; request = i; mode = "sensitive" }));
    Slo.observe slo2
      (record ~time:(t +. 0.01)
         (Event.Read_answered
            { client = 0; request = i; slave = -1; outcome = "by-master"; version = 1; latency = 0.01 }))
  done;
  check bool_t "sensitive by-master is not bad" true
    (not (Slo.was_raised slo2 "availability"))

let read_answered ~time ~request latency =
  record ~time
    (Event.Read_answered
       { client = 0; request; slave = 0; outcome = "accepted"; version = 1; latency })

let latency_alerts slo =
  List.filter (fun (a : Slo.alert) -> a.Slo.rule = "read-latency") (Slo.alerts slo)

(* 50 reads/s against a 30-s window (max_latency 5): 1,500 samples in
   the window once it fills.  Phases by read time:
   - [0, 40): all fast;
   - [40, 60): every 20th read slow, 5.0-6.4 s: p99 crosses 5 (raise);
   - [60, 120): every 50th read at 4.5 s, inside the hysteresis band
     once the slow reads age out, so the alert holds;
   - [120, 160): all fast again: p99 drops below 4 (clear). *)
let test_synthetic_read_latency_lifecycle () =
  let slo = synthetic_slo () in
  let reads_until ~stop latency_of i0 =
    let i = ref i0 in
    while float_of_int !i *. 0.02 < stop do
      Slo.observe slo (read_answered ~time:(float_of_int !i *. 0.02) ~request:!i (latency_of !i));
      incr i
    done;
    !i
  in
  let fast i = 1.0 +. (0.001 *. float_of_int (i mod 100)) in
  let i = reads_until ~stop:40.0 fast 0 in
  check int_t "no alert while fast" 0 (List.length (latency_alerts slo));
  let i =
    reads_until ~stop:60.0
      (fun i -> if i mod 20 = 0 then 5.0 +. (0.1 *. float_of_int (i / 20 mod 15)) else fast i)
      i
  in
  check bool_t "raised" true (Slo.was_raised slo "read-latency");
  let i = reads_until ~stop:120.0 (fun i -> if i mod 50 = 0 then 4.5 else fast i) i in
  check bool_t "held between 0.8x and 1x" true
    (List.exists (fun (a : Slo.alert) -> a.Slo.rule = "read-latency") (Slo.active slo));
  ignore (reads_until ~stop:160.0 fast i);
  match latency_alerts slo with
  | [ a ] ->
    (* pinned from the sort-on-demand window: read 2320 raises, read
       6701 clears, the worst p99 is the 6.1-s read *)
    check (Alcotest.float 0.0) "raised_at" 46.4 a.Slo.raised_at;
    check (Alcotest.option (Alcotest.float 0.0)) "cleared_at" (Some 134.02) a.Slo.cleared_at;
    check (Alcotest.float 0.0) "peak" 6.1 a.Slo.peak;
    check (Alcotest.float 0.0) "threshold" 5.0 a.Slo.threshold
  | l -> Alcotest.failf "expected one read-latency alert, got %d" (List.length l)

let test_synthetic_read_latency_min_samples () =
  let slo = synthetic_slo () in
  for i = 1 to 19 do
    Slo.observe slo (read_answered ~time:(float_of_int i *. 0.1) ~request:i 100.0)
  done;
  check bool_t "19 slow samples never raise" false (Slo.was_raised slo "read-latency");
  Slo.observe slo (read_answered ~time:2.0 ~request:20 100.0);
  check bool_t "the 20th raises" true (Slo.was_raised slo "read-latency")

(* ---------------- one rule set: differential oracle ---------------- *)

(* The six stream-judged invariants now read the monitor's fold.  The
   checkers and the monitor they replaced live on as oracles
   ([Invariant_oracle], [Slo_oracle]); on every stream both must
   return the same verdicts, the same message where the violation is
   unique, the same alerts, and [alert_coverage] must pass exactly
   when every violated invariant raised its rule's alert. *)

let paired =
  [
    (Invariant.detection, Invariant_oracle.detection);
    (Invariant.no_false_accusation, Invariant_oracle.no_false_accusation);
    (Invariant.staleness, Invariant_oracle.staleness);
    (Invariant.write_spacing, Invariant_oracle.write_spacing);
    (Invariant.availability, Invariant_oracle.availability);
    (Invariant.recovery_convergence, Invariant_oracle.recovery_convergence);
  ]

(* The oracle's write-spacing and availability report the first
   violating master or client in hash-table order, so their messages
   are compared only when a single master or client violates. *)
let violators (result : Harness.run_result) =
  let ml = result.Harness.scenario.Scenario.max_latency in
  let last = Hashtbl.create 8 and close = Hashtbl.create 8 and reads = Hashtbl.create 8 in
  let count client d =
    let i, a = Option.value (Hashtbl.find_opt reads client) ~default:(0, 0) in
    Hashtbl.replace reads client (if d then (i + 1, a) else (i, a + 1))
  in
  List.iter
    (fun (r : Trace.record) ->
      match r.Trace.event with
      | Event.Write_committed { master; _ } ->
        (match Hashtbl.find_opt last master with
        | Some t when r.Trace.time -. t < ml -. 1e-6 -> Hashtbl.replace close master ()
        | _ -> ());
        Hashtbl.replace last master r.Trace.time
      | Event.Read_issued { client; _ } -> count client true
      | Event.Read_answered { client; _ } -> count client false
      | _ -> ())
    result.Harness.events;
  function
  | "write-spacing" -> Hashtbl.length close
  | "availability" ->
    Hashtbl.fold (fun _ (i, a) n -> if i > 0 && i <> a then n + 1 else n) reads 0
  | _ -> 1

let agrees_with_oracle (result : Harness.run_result) =
  let slo = Lazy.force result.Harness.slo in
  let oracle_slo = Slo_oracle.create ~config:(Slo_oracle.config result.Harness.config) () in
  List.iter (Slo_oracle.observe oracle_slo) result.Harness.events;
  Slo_oracle.finalize oracle_slo ~now:result.Harness.end_time;
  let violators = violators result in
  let verdicts =
    List.map
      (fun ((c : Invariant.checker), (o : Invariant_oracle.checker)) ->
        let v = c.Invariant.check result and vo = o.Invariant_oracle.check result in
        (match (v, vo) with
        | Ok (), Ok () -> ()
        | Error m, Error mo ->
          if violators c.Invariant.name = 1 && m <> mo then
            QCheck2.Test.fail_reportf "%s message: %S, oracle %S" c.Invariant.name m mo
        | _ ->
          QCheck2.Test.fail_reportf "%s verdict: %s, oracle %s" c.Invariant.name
            (match v with Ok () -> "Ok" | Error m -> m)
            (match vo with Ok () -> "Ok" | Error m -> m));
        (c.Invariant.name, v))
      paired
  in
  let render to_json alerts = List.map (fun a -> Export.Json.to_string (to_json a)) alerts in
  let alerts = render Slo.json_of_alert (Slo.alerts slo)
  and oracle_alerts = render Slo_oracle.json_of_alert (Slo_oracle.alerts oracle_slo) in
  if alerts <> oracle_alerts then
    QCheck2.Test.fail_reportf "alerts:\n%s\noracle:\n%s" (String.concat "\n" alerts)
      (String.concat "\n" oracle_alerts);
  let covered =
    List.for_all
      (fun (name, v) ->
        match (v, Slo_oracle.rule_for_invariant name) with
        | Error _, Some rule -> Slo.was_raised slo rule
        | _ -> true)
      verdicts
  in
  if (Invariant_oracle.alert_coverage.Invariant_oracle.check result = Ok ()) <> covered then
    QCheck2.Test.fail_reportf "alert coverage disagrees (new: %b)" covered;
  true

(* Synthetic streams over a 2-master, 3-slave, 3-client topology.
   Timestamps sit on a grid of max_latency / 2 steps, most exactly on
   it and some an eps or so off, so commits, rejoins, deadlines and
   outage edges often coincide or miss by eps; the stream is sorted by
   time, keeping generation order among ties. *)
type op =
  | Commit of int
  | Apply of int * int
  | Signed of int * bool
  | Verified of int * int * bool
  | Read of int * bool * string * string
  | Answer of int
  | Accuse of int * int
  | Crash of string
  | Recover of int * int
  | Cut of string * bool
  | Degrade of float * float
  | Audit of int
  | Overload
  | Breaker of int
  | Quarantine of int

let slave_name s = Printf.sprintf "slave-%d" s

let gen_synthetic =
  let open QCheck2.Gen in
  let* ml = oneofl [ 1.0; 5.0 ] in
  let eps = 1e-6 in
  let time =
    map2
      (fun k d -> Float.max 0.0 ((float_of_int k *. ml /. 2.0) +. d))
      (int_bound 10)
      (frequency
         [ (4, pure 0.0); (3, oneofl [ -.eps; -.eps /. 2.0; eps /. 2.0; eps; 2.0 *. eps ]) ])
  in
  let slave = int_bound 2 and version = int_bound 6 in
  let node =
    frequency
      [ (4, map slave_name slave); (2, map (Printf.sprintf "master-%d") (int_bound 1)); (1, pure "client-0") ]
  in
  let op =
    frequency
      [
        (4, map (fun m -> Commit m) (int_bound 1));
        (4, map2 (fun s v -> Apply (s, v)) slave version);
        (1, map2 (fun s l -> Signed (s, l)) slave bool);
        (3, map3 (fun s v ok -> Verified (s, v, ok)) slave version bool);
        ( 4,
          map2
            (fun (c, answered) (mode, outcome) -> Read (c, answered, mode, outcome))
            (pair (int_bound 2) (frequency [ (9, pure true); (1, pure false) ]))
            (pair (oneofl [ "single"; "sensitive" ]) (oneofl [ "accepted"; "gave-up"; "by-master" ])) );
        (1, map (fun c -> Answer c) (int_bound 2));
        (2, map2 (fun s k -> Accuse (s, k)) slave (int_bound 2));
        (2, map (fun n -> Crash n) node);
        (4, map2 (fun s v -> Recover (s, v)) slave version);
        (3, map2 (fun n up -> Cut (n, up)) node bool);
        (2, map2 (fun l f -> Degrade (l, f)) (oneofl [ 0.0; 0.2 ]) (oneofl [ 1.0; 3.0 ]));
        (1, map (fun v -> Audit v) version);
        (1, pure Overload);
        (1, map (fun c -> Breaker c) (int_bound 2));
        (1, map (fun s -> Quarantine s) slave);
      ]
  in
  let* steps = list_size (int_range 0 60) (pair time op) in
  let steps = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) steps in
  let* tail = frequency [ (1, pure 0.0); (3, map (fun f -> f *. 3.0 *. ml) (float_bound_inclusive 1.0)) ] in
  let* audit = bool in
  let* net = frequency [ (4, pure Scenario.Lan); (1, pure (Scenario.Lossy 0.1)) ] in
  let* chaos = frequency [ (4, pure false); (1, pure true) ] in
  let* faulty = list_size (int_bound 2) slave in
  let* wrong = list_size (int_bound 3) (pair slave bool) in
  return (ml, steps, tail, audit, net, chaos, faulty, wrong)

let result_of_synthetic (ml, steps, tail, audit, net, chaos, faulty, wrong) =
  let scenario =
    {
      Scenario.sys_seed = 0;
      n_shards = 1;
      n_masters = 2;
      slaves_per_master = 2;
      n_clients = 3;
      n_items = 4;
      max_latency = ml;
      keepalive_period = 0.3 *. ml;
      double_check_p = 0.05;
      audit;
      pledge_batch = 1;
      read_nonces = false;
      audit_adaptive = false;
      net;
      faults =
        List.map
          (fun slave ->
            { Scenario.slave; mode = Fault.Corrupt_result; probability = 1.0; from_time = 0.0 })
          faulty;
      chaos = (if chaos then [ Scenario.Auditor_cut { from_time = 1.0; outage = 1.0 } ] else []);
      ops = [];
    }
  in
  let config = Harness.config_of_scenario scenario in
  let now = ref 0.0 and next_version = [| 0; 0 |] and request = ref 0 in
  let events = ref [] in
  let emit event = events := { Trace.time = !now; source = "test"; event } :: !events in
  List.iter
    (fun (time, op) ->
      now := time;
      match op with
      | Commit master ->
        next_version.(master) <- next_version.(master) + 1;
        emit (Event.Write_committed { master; version = next_version.(master) })
      | Apply (slave, v) ->
        emit (Event.State_update_applied { slave; from_version = 0; to_version = v })
      | Signed (slave, lied) ->
        emit (Event.Pledge_signed { slave; request = !request; version = 0; lied })
      | Verified (slave, version, ok) ->
        emit
          (Event.Pledge_verified
             { client = slave mod 3; request = !request; slave; version; ok; reason = "" })
      | Read (client, answered, mode, outcome) ->
        incr request;
        emit (Event.Read_issued { client; request = !request; mode });
        if answered then
          emit
            (Event.Read_answered
               { client; request = !request; slave = 0; outcome; version = 0; latency = 0.01 })
      | Answer client ->
        emit
          (Event.Read_answered
             { client; request = -1; slave = 0; outcome = "accepted"; version = 0; latency = 0.01 })
      | Accuse (slave, 0) -> emit (Event.Audit_conviction { slave; version = 0 })
      | Accuse (slave, 1) -> emit (Event.Slave_excluded { slave; immediate = false })
      | Accuse (slave, _) ->
        emit (Event.Double_check { client = 0; request = !request; slave; outcome = Event.Mismatch })
      | Crash node -> emit (Event.Node_crashed { node })
      | Recover (slave, version) ->
        emit (Event.Node_recovered { node = slave_name slave; version })
      | Cut (target, up) -> emit (Event.Partition { target; up })
      | Degrade (loss, latency_factor) -> emit (Event.Net_degraded { loss; latency_factor })
      | Audit version -> emit (Event.Audit_advance { version })
      | Overload -> emit (Event.Audit_overload { backlog = 64 })
      | Breaker client -> emit (Event.Breaker_opened { client; slave = 0 })
      | Quarantine slave ->
        emit (Event.Slave_quarantined { slave; score = 4.0; until = !now +. ml }))
    steps;
  let events = List.rev !events and end_time = !now +. tail in
  {
    Harness.scenario;
    config;
    events;
    accepted =
      List.mapi
        (fun i (slave, wrong) ->
          { Harness.time = float_of_int i; client = 0; slave; version = 1; wrong })
        wrong;
    end_time;
    pledges = [];
    reexec = (fun ~version:_ _ -> None);
    slave_public = (fun _ -> None);
    slo = lazy (Harness.fold_slo config events ~end_time);
  }

let print_synthetic case =
  let r = result_of_synthetic case in
  String.concat "\n"
    (Printf.sprintf "end %.7f; %s" r.Harness.end_time (Scenario.to_string r.Harness.scenario)
    :: List.map
         (fun (e : Trace.record) -> Printf.sprintf "%.7f %s" e.Trace.time (Event.to_string e.Trace.event))
         r.Harness.events)

let oracle_synthetic_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:5000 ~name:"oracle: synthetic streams"
       ~print:print_synthetic gen_synthetic (fun case ->
         agrees_with_oracle (result_of_synthetic case)))

(* Generated harness scenarios, with faults, chaos, lossy nets and
   shards: every shard's result is compared. *)
let oracle_harness_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120 ~name:"oracle: harness scenarios"
       ~print:string_of_int (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
         List.for_all agrees_with_oracle
           (Harness.run_sharded (Secrep_check.Gen.run ~seed:(Int64.of_int seed) Scenario.gen))))

(* ---------------- E1 agreement ---------------- *)

(* Replicates bench/exp1_detection.ml's trial loop (same config, same
   seed derivation) with lineage attached: the monitor's
   reads-before-detection count for the victim must agree with the
   count E1 reports — E1 counts the catching read itself, lineage
   counts the accepted reads served before it. *)
let test_e1_agreement () =
  let p = 0.2 in
  let seed = Int64.of_int ((1 * 7919) + (3 * 1009) + 1) in
  let config =
    {
      Config.default with
      Config.max_latency = 5.0;
      keepalive_period = 1.0;
      double_check_probability = p;
      audit_lag_slack = 1.0;
      audit_enabled = false;
    }
  in
  let system =
    System.create ~n_masters:2 ~slaves_per_master:2 ~n_clients:2 ~config
      ~net:System.lan_net ~seed ()
  in
  let lineage = Lineage.create () in
  Trace.on_emit (System.trace system) (fun r -> Lineage.observe lineage r);
  let g = Secrep_crypto.Prng.create ~seed:(Int64.add seed 77L) in
  System.load_content system (Secrep_workload.Catalog.product_catalog g ~n:50);
  let victim = System.slave_of_client system 0 in
  System.set_slave_behavior system ~slave:victim
    (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 0.0 });
  let cap = int_of_float (20.0 /. p) + 50 in
  let count = ref 0 in
  let caught_at = ref None in
  let rec issue () =
    if !caught_at = None && !count < cap then begin
      incr count;
      System.read system ~client:0
        (Query.point_read (Printf.sprintf "product:%05d" (!count mod 50)))
        ~on_done:(fun r ->
          (match r.Client.caught_slave with
          | Some s when s = victim -> caught_at := Some !count
          | Some _ | None ->
            if Corrective.is_excluded (System.corrective system) ~slave_id:victim then
              caught_at := Some !count);
          if !caught_at = None && !count < cap then
            ignore (Sim.schedule (System.sim system) ~delay:0.01 (fun () -> issue ())))
    end
  in
  issue ();
  let deadline = (0.1 *. float_of_int cap) +. 120.0 in
  while !caught_at = None && !count < cap && Sim.now (System.sim system) < deadline do
    System.run_for system 5.0
  done;
  System.run_for system 2.0;
  let e1_count =
    match !caught_at with
    | Some n -> n
    | None -> Alcotest.fail "E1 trial never caught the liar"
  in
  Lineage.finalize lineage;
  let row =
    match
      List.find_opt (fun (r : Lineage.slave_row) -> r.Lineage.slave = victim)
        (Lineage.slave_rows lineage)
    with
    | Some r -> r
    | None -> Alcotest.fail "victim has no lineage row"
  in
  (match row.Lineage.reads_before_detection with
  | Some n ->
    (* E1's count includes the read whose double-check caught the slave
       (that read is rejected, not accepted): lineage sees one fewer. *)
    check int_t "lineage agrees with E1's reads-until-detection" (e1_count - 1) n
  | None -> Alcotest.fail "lineage did not record a detection");
  check bool_t "detection latency recorded" true (row.Lineage.detection_latency <> None)

let () =
  Alcotest.run "secrep_monitor"
    [
      ( "slo",
        [
          Alcotest.test_case "clean run: zero alerts" `Quick test_clean_run_zero_alerts;
          Alcotest.test_case "undetected liar raises detection" `Quick
            test_undetected_liar_raises_detection;
          Alcotest.test_case "blackout raises availability+staleness" `Quick
            test_blackout_raises_availability_and_staleness;
          Alcotest.test_case "synthetic write-spacing" `Quick test_synthetic_write_spacing;
          Alcotest.test_case "synthetic staleness + clear" `Quick
            test_synthetic_staleness_and_clear;
          Alcotest.test_case "synthetic false-accusation" `Quick
            test_synthetic_false_accusation;
          Alcotest.test_case "synthetic availability burn" `Quick
            test_synthetic_availability_burn;
          Alcotest.test_case "synthetic read-latency lifecycle" `Quick
            test_synthetic_read_latency_lifecycle;
          Alcotest.test_case "synthetic read-latency min samples" `Quick
            test_synthetic_read_latency_min_samples;
        ] );
      ( "lineage",
        [
          Alcotest.test_case "attack detection lifecycle" `Quick
            test_lineage_attack_detection;
          Alcotest.test_case "agrees with E1" `Quick test_e1_agreement;
        ] );
      ("coverage", [ oracle_synthetic_prop; oracle_harness_prop ]);
    ]
