(* Reference invariants for differential tests: the six stream
   checkers that [Secrep_check.Invariant] replaced with adapters over
   the SLO monitor's fold (detection, no-false-accusation, staleness,
   write-spacing, availability, recovery-convergence), with their
   helpers, and [alert_coverage], the run-time check that every
   violated invariant raised its rule's alert.  Each checker re-walks
   [result.events] on its own; [alert_coverage] replays the stream
   through the reference monitor [Slo_oracle].  The bodies are the
   original ones. *)

open Secrep_check

module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event

type checker = {
  name : string;
  doc : string;
  check : Harness.run_result -> (unit, string) result;
}

let eps = 1e-6

let events_of (r : Harness.run_result) = r.Harness.events

(* Accusation events: the three ways the protocol points a finger. *)
let accused_slaves result =
  List.filter_map
    (fun (rec_ : Trace.record) ->
      match rec_.Trace.event with
      | Event.Audit_conviction { slave; _ } | Event.Slave_excluded { slave; _ }
      | Event.Double_check { slave; outcome = Event.Mismatch; _ } ->
        Some slave
      | _ -> None)
    (events_of result)

let detection =
  {
    name = "detection";
    doc = "accepted wrong answers are eventually flagged (audit on, loss-free net, no chaos)";
    check =
      (fun result ->
        let s = result.Harness.scenario in
        (* Chaos voids the guarantee the same way loss does: an auditor
           cut drops the forwarded pledge that would have convicted. *)
        if (not s.Scenario.audit) || Scenario.lossy s || Scenario.has_chaos s then Ok ()
        else begin
          let flagged = accused_slaves result in
          let unflagged =
            List.filter
              (fun (a : Harness.accepted_read) ->
                a.Harness.wrong && a.Harness.slave >= 0
                && not (List.mem a.Harness.slave flagged))
              result.Harness.accepted
          in
          match unflagged with
          | [] -> Ok ()
          | a :: _ ->
            Error
              (Printf.sprintf
                 "client %d accepted a wrong answer from slave %d (version %d, t=%.3f) \
                  and the slave was never flagged by double-check, audit or exclusion"
                 a.Harness.client a.Harness.slave a.Harness.version a.Harness.time)
        end);
  }

let no_false_accusation =
  {
    name = "no-false-accusation";
    doc = "an all-honest run never accuses anyone";
    check =
      (fun result ->
        if not (Scenario.honest result.Harness.scenario) then Ok ()
        else begin
          match accused_slaves result with
          | [] -> Ok ()
          | slave :: _ ->
            Error
              (Printf.sprintf
                 "slave %d was accused (conviction, exclusion or double-check mismatch) \
                  in a run with no injected faults"
                 slave)
        end);
  }

let staleness =
  {
    name = "staleness";
    doc = "verified pledges are never staler than max_latency";
    check =
      (fun result ->
        let max_latency = result.Harness.scenario.Scenario.max_latency in
        (* Latest commit time of each version across masters: a slave's
           keep-alive for version v predates its own master's commit of
           v+1, which is bounded by this. *)
        let commits = Hashtbl.create 64 in
        List.iter
          (fun (r : Trace.record) ->
            match r.Trace.event with
            | Event.Write_committed { version; _ } ->
              let prev =
                match Hashtbl.find_opt commits version with
                | Some t -> t
                | None -> neg_infinity
              in
              Hashtbl.replace commits version (Float.max prev r.Trace.time)
            | _ -> ())
          (events_of result);
        let violation =
          List.find_opt
            (fun (r : Trace.record) ->
              match r.Trace.event with
              | Event.Pledge_verified { ok = true; version; _ } -> begin
                match Hashtbl.find_opt commits (version + 1) with
                | Some committed -> r.Trace.time > committed +. max_latency +. eps
                | None -> false
              end
              | _ -> false)
            (events_of result)
        in
        match violation with
        | None -> Ok ()
        | Some r ->
          let version =
            match r.Trace.event with
            | Event.Pledge_verified { version; _ } -> version
            | _ -> -1
          in
          Error
            (Printf.sprintf
               "pledge for version %d verified OK at t=%.3f, more than max_latency=%.3g \
                after version %d committed at t=%.3f"
               version r.Trace.time max_latency (version + 1)
               (Hashtbl.find commits (version + 1))));
  }

let write_spacing =
  {
    name = "write-spacing";
    doc = "per-master commits are at least max_latency apart";
    check =
      (fun result ->
        let max_latency = result.Harness.scenario.Scenario.max_latency in
        let by_master = Hashtbl.create 8 in
        List.iter
          (fun (r : Trace.record) ->
            match r.Trace.event with
            | Event.Write_committed { master; version } ->
              let prev =
                match Hashtbl.find_opt by_master master with Some l -> l | None -> []
              in
              Hashtbl.replace by_master master ((version, r.Trace.time) :: prev)
            | _ -> ())
          (events_of result);
        Hashtbl.fold
          (fun master commits acc ->
            match acc with
            | Error _ -> acc
            | Ok () ->
              let sorted =
                List.sort (fun (v1, _) (v2, _) -> compare v1 v2) commits
              in
              let rec walk = function
                | (v1, t1) :: ((v2, t2) :: _ as rest) ->
                  if t2 -. t1 < max_latency -. eps then
                    Error
                      (Printf.sprintf
                         "master %d committed version %d at t=%.3f and version %d at \
                          t=%.3f, closer than max_latency=%.3g"
                         master v1 t1 v2 t2 max_latency)
                  else walk rest
                | [ _ ] | [] -> Ok ()
              in
              walk sorted)
          by_master (Ok ()));
  }

let availability =
  {
    name = "availability";
    doc = "every issued read completes: accepted, served by the master, or an explicit give-up";
    check =
      (fun result ->
        let issued = Hashtbl.create 8 and answered = Hashtbl.create 8 in
        let bump tbl client =
          let n = match Hashtbl.find_opt tbl client with Some n -> n | None -> 0 in
          Hashtbl.replace tbl client (n + 1)
        in
        List.iter
          (fun (r : Trace.record) ->
            match r.Trace.event with
            | Event.Read_issued { client; _ } -> bump issued client
            | Event.Read_answered { client; _ } -> bump answered client
            | _ -> ())
          (events_of result);
        Hashtbl.fold
          (fun client n_issued acc ->
            match acc with
            | Error _ -> acc
            | Ok () ->
              let n_answered =
                match Hashtbl.find_opt answered client with Some n -> n | None -> 0
              in
              if n_answered = n_issued then Ok ()
              else
                Error
                  (Printf.sprintf
                     "client %d issued %d read(s) but only %d completed by t=%.3f — a read \
                      hung without being accepted, served by the master, or failed \
                      explicitly"
                     client n_issued n_answered result.Harness.end_time))
          issued (Ok ()));
  }

(* -- recovery convergence --------------------------------------------- *)

(* Node names as emitted by [System.node_name]. *)
let slave_of_node node =
  match String.index_opt node '-' with
  | Some i when String.sub node 0 i = "slave" -> (
    match int_of_string_opt (String.sub node (i + 1) (String.length node - i - 1)) with
    | Some n -> Some n
    | None -> None)
  | _ -> None

let is_master_node node = String.length node >= 7 && String.sub node 0 7 = "master-"

(* Half-open disturbance windows [a, b): a window closing exactly when a
   recovery happens does not disturb that recovery. *)
let overlaps intervals t0 d = List.exists (fun (a, b) -> a < d && t0 < b) intervals

let recovery_convergence =
  {
    name = "recovery-convergence";
    doc =
      "a node that rejoins after a partition or crash reaches the committed version \
       within max_latency (clean network, honest slave, no overlapping disturbance)";
    check =
      (fun result ->
        let s = result.Harness.scenario in
        if Scenario.lossy s then Ok ()
        else begin
          let max_latency = s.Scenario.max_latency in
          let faulty =
            List.map (fun (f : Scenario.fault) -> f.Scenario.slave) s.Scenario.faults
          in
          (* One pass to collect commits, updates, recoveries, and the
             disturbance windows that make a recovery unjudgeable. *)
          let commits = ref [] (* (time, version) *)
          and updates = ref [] (* (time, slave, to_version) *)
          and recoveries = ref [] (* (time, slave, version) *)
          and exclusions = ref [] (* (time, slave) *)
          and master_down = ref [] (* (from, until) *)
          and slave_down = ref [] (* (slave, (from, until)) *)
          and degraded = ref [] (* (from, until) *)
          and open_master = Hashtbl.create 4
          and open_slave = Hashtbl.create 8
          and open_degraded = ref None in
          List.iter
            (fun (r : Trace.record) ->
              let t = r.Trace.time in
              match r.Trace.event with
              | Event.Write_committed { version; _ } -> commits := (t, version) :: !commits
              | Event.State_update_applied { slave; to_version; _ } ->
                updates := (t, slave, to_version) :: !updates
              | Event.Node_recovered { node; version } -> (
                match slave_of_node node with
                | Some n ->
                  recoveries := (t, n, version) :: !recoveries;
                  (* a crash window for this slave closes here *)
                  (match Hashtbl.find_opt open_slave (`Crash n) with
                  | Some from ->
                    Hashtbl.remove open_slave (`Crash n);
                    slave_down := (n, (from, t)) :: !slave_down
                  | None -> ())
                | None -> ())
              | Event.Node_crashed { node } -> (
                if is_master_node node then master_down := (t, infinity) :: !master_down
                else
                  match slave_of_node node with
                  | Some n -> Hashtbl.replace open_slave (`Crash n) t
                  | None -> ())
              | Event.Partition { target; up } when is_master_node target ->
                if not up then Hashtbl.replace open_master target t
                else begin
                  match Hashtbl.find_opt open_master target with
                  | Some from ->
                    Hashtbl.remove open_master target;
                    master_down := (from, t) :: !master_down
                  | None -> ()
                end
              | Event.Partition { target; up } -> (
                match slave_of_node target with
                | Some n ->
                  if not up then Hashtbl.replace open_slave (`Cut n) t
                  else begin
                    match Hashtbl.find_opt open_slave (`Cut n) with
                    | Some from ->
                      Hashtbl.remove open_slave (`Cut n);
                      slave_down := (n, (from, t)) :: !slave_down
                    | None -> ()
                  end
                | None -> ())
              | Event.Net_degraded { loss; latency_factor } ->
                let is_degraded = loss > 0.0 || latency_factor <> 1.0 in
                (match (!open_degraded, is_degraded) with
                | None, true -> open_degraded := Some t
                | Some from, false ->
                  open_degraded := None;
                  degraded := (from, t) :: !degraded
                | None, false | Some _, true -> ())
              | Event.Slave_excluded { slave; _ } -> exclusions := (t, slave) :: !exclusions
              | _ -> ())
            (events_of result);
          (* Windows still open at the end of the run never healed. *)
          Hashtbl.iter (fun _ from -> master_down := (from, infinity) :: !master_down)
            open_master;
          Hashtbl.iter
            (fun key from ->
              match key with
              | `Crash n | `Cut n -> slave_down := (n, (from, infinity)) :: !slave_down)
            open_slave;
          (match !open_degraded with
          | Some from -> degraded := (from, infinity) :: !degraded
          | None -> ());
          let check_one acc (t0, n, v_rejoin) =
            match acc with
            | Error _ -> acc
            | Ok () ->
              let deadline = t0 +. max_latency in
              let judgeable =
                result.Harness.end_time >= deadline
                && (not (List.mem n faulty))
                && (not (overlaps !master_down t0 deadline))
                && (not
                      (overlaps
                         (List.filter_map
                            (fun (m, iv) -> if m = n then Some iv else None)
                            !slave_down)
                         t0 deadline))
                && (not (overlaps !degraded t0 deadline))
                && not (List.exists (fun (t, m) -> m = n && t <= deadline) !exclusions)
              in
              if not judgeable then Ok ()
              else begin
                let committed =
                  List.fold_left
                    (fun acc (t, v) -> if t <= t0 +. eps then max acc v else acc)
                    0 !commits
                in
                let converged =
                  v_rejoin >= committed
                  || List.exists
                       (fun (t, m, v) ->
                         m = n && t >= t0 -. eps && t <= deadline +. eps && v >= committed)
                       !updates
                in
                if converged then Ok ()
                else
                  Error
                    (Printf.sprintf
                       "slave %d rejoined at t=%.3f with version %d but did not reach \
                        committed version %d by t=%.3f (max_latency=%.3g)"
                       n t0 v_rejoin committed deadline max_latency)
              end
          in
          List.fold_left check_one (Ok ()) (List.rev !recoveries)
        end);
  }

let alert_coverage =
  {
    name = "alert-coverage";
    doc =
      "every violated invariant with an online SLO counterpart is covered by a raised \
       alert of the matching rule";
    check =
      (fun result ->
        let module Slo = Slo_oracle in
        let s = result.Harness.scenario in
        (* Mirror the harness's config so the monitor judges the run by
           the thresholds it actually ran under. *)
        let config =
          Secrep_core.Config.validate_exn
            {
              Secrep_core.Config.default with
              Secrep_core.Config.max_latency = s.Scenario.max_latency;
              keepalive_period = s.Scenario.keepalive_period;
              double_check_probability = s.Scenario.double_check_p;
              audit_enabled = s.Scenario.audit;
              pledge_batch_size = s.Scenario.pledge_batch;
            }
        in
        let violated =
          List.filter_map
            (fun c ->
              match Slo.rule_for_invariant c.name with
              | None -> None
              | Some rule -> (
                match c.check result with
                | Ok () -> None
                | Error msg -> Some (c.name, rule, msg)))
            [
              detection;
              no_false_accusation;
              staleness;
              write_spacing;
              availability;
              recovery_convergence;
            ]
        in
        if violated = [] then Ok ()
        else begin
          let slo = Slo.create ~config:(Slo.config config) () in
          List.iter (Slo.observe slo) (events_of result);
          Slo.finalize slo ~now:result.Harness.end_time;
          let uncovered =
            List.filter (fun (_, rule, _) -> not (Slo.was_raised slo rule)) violated
          in
          match uncovered with
          | [] -> Ok ()
          | (inv, rule, msg) :: _ ->
            Error
              (Printf.sprintf
                 "invariant %s was violated but the SLO monitor never raised the %S alert \
                  (raised: %s) — underlying violation: %s"
                 inv rule
                 (match Slo.raised_rules slo with
                 | [] -> "none"
                 | rs -> String.concat ", " rs)
                 msg)
        end);
  }
