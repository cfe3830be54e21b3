module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Slo = Secrep_monitor.Slo

type checker = {
  name : string;
  doc : string;
  check : Harness.run_result -> (unit, string) result;
}

let eps = 1e-6

let events_of (r : Harness.run_result) = r.Harness.events

(* The six stream-judged invariants read the verdicts of the run's one
   SLO fold and add only what the stream does not carry: the
   scenario's preconditions and ground truth. *)
let findings (r : Harness.run_result) = Slo.findings (Lazy.force r.Harness.slo)

let of_finding = function None -> Ok () | Some msg -> Error msg

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
          let flagged = (findings result).Slo.accused in
          match
            List.find_opt
              (fun (a : Harness.accepted_read) ->
                a.Harness.wrong && a.Harness.slave >= 0
                && not (List.mem a.Harness.slave flagged))
              result.Harness.accepted
          with
          | None -> Ok ()
          | Some a ->
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
          match (findings result).Slo.accused with
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
    check = (fun result -> of_finding (findings result).Slo.stale_pledge);
  }

let write_spacing =
  {
    name = "write-spacing";
    doc = "per-master commits are at least max_latency apart";
    check = (fun result -> of_finding (findings result).Slo.close_writes);
  }

let pledge_validity =
  {
    name = "pledge-validity";
    doc = "every accepted read is backed by an OK pledge verification";
    check =
      (fun result ->
        let verified = Hashtbl.create 64 in
        List.iter
          (fun (r : Trace.record) ->
            match r.Trace.event with
            | Event.Pledge_verified { ok = true; client; slave; version; _ } ->
              let k = (client, slave, version) in
              let n = match Hashtbl.find_opt verified k with Some n -> n | None -> 0 in
              Hashtbl.replace verified k (n + 1)
            | _ -> ())
          (events_of result);
        (* Multiset check: consume one verification per accepted read. *)
        let rec consume = function
          | [] -> Ok ()
          | (a : Harness.accepted_read) :: rest ->
            let k = (a.Harness.client, a.Harness.slave, a.Harness.version) in
            let n = match Hashtbl.find_opt verified k with Some n -> n | None -> 0 in
            if n <= 0 then
              Error
                (Printf.sprintf
                   "client %d accepted a read from slave %d at version %d (t=%.3f) with \
                    no matching OK pledge verification"
                   a.Harness.client a.Harness.slave a.Harness.version a.Harness.time)
            else begin
              Hashtbl.replace verified k (n - 1);
              consume rest
            end
        in
        consume result.Harness.accepted);
  }

let availability =
  {
    name = "availability";
    doc = "every issued read completes: accepted, served by the master, or an explicit give-up";
    check = (fun result -> of_finding (findings result).Slo.hung_reads);
  }

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
          let faulty =
            List.map (fun (f : Scenario.fault) -> f.Scenario.slave) s.Scenario.faults
          in
          match
            List.find_opt
              (fun (slave, _) -> not (List.mem slave faulty))
              (findings result).Slo.unconverged
          with
          | None -> Ok ()
          | Some (_, msg) -> Error msg
        end);
  }

(* -- adversary invariants --------------------------------------------- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* Attribute a Pledge_verified event to the attack that provoked it.
   Retries reuse the read's request id, so (client, slave, request)
   alone is ambiguous: a rejected lie followed by an honest retry to
   the same slave produces an OK verification under the same triple.
   The first verification of the triple inside
   [launch_time, issue_time + read_timeout) is unambiguous, though:
   a retry can only be verified inside that window after an earlier
   rejection of the attacked attempt (which then comes first), because
   absent a reply the client waits out the full timeout, which ends
   the window.  A launch with no verification in its window (reply
   lost to a latency tail) is simply not judged. *)
let attack_verification events ~issue_times ~read_timeout (slave, client, request, t0) =
  match Hashtbl.find_opt issue_times (client, request) with
  | None -> None
  | Some issued ->
    let window_end = issued +. read_timeout -. eps in
    List.find_opt
      (fun (r : Trace.record) ->
        r.Trace.time >= t0 -. eps
        && r.Trace.time < window_end
        &&
        match r.Trace.event with
        | Event.Pledge_verified { client = c; slave = s; request = q; _ } ->
          c = client && s = slave && q = request
        | _ -> false)
      events

let issue_times_of events =
  let issued = Hashtbl.create 64 in
  List.iter
    (fun (r : Trace.record) ->
      match r.Trace.event with
      | Event.Read_issued { client; request; _ } ->
        if not (Hashtbl.mem issued (client, request)) then
          Hashtbl.add issued (client, request) r.Trace.time
      | _ -> ())
    events;
  issued

let launches_of events ~mode_prefix =
  List.filter_map
    (fun (r : Trace.record) ->
      match r.Trace.event with
      | Event.Attack_launched { slave; mode; client; request }
        when starts_with ~prefix:mode_prefix mode ->
        Some (slave, client, request, r.Trace.time)
      | _ -> None)
    events

let replay_rejection =
  {
    name = "replay-rejection";
    doc =
      "with read nonces on, a replayed pledge delivered in time is rejected, and the \
       rejection names the nonce mismatch";
    check =
      (fun result ->
        let s = result.Harness.scenario in
        if not s.Scenario.read_nonces then Ok ()
        else begin
          let events = events_of result in
          let launches = launches_of events ~mode_prefix:"replay-pledge" in
          if launches = [] then Ok ()
          else begin
            let issue_times = issue_times_of events in
            let read_timeout =
              Secrep_core.Config.default.Secrep_core.Config.read_timeout_factor
              *. s.Scenario.max_latency
            in
            List.fold_left
              (fun acc ((slave, client, request, t0) as launch) ->
                match acc with
                | Error _ -> acc
                | Ok () -> (
                  match
                    attack_verification events ~issue_times ~read_timeout launch
                  with
                  | None -> Ok ()
                  | Some r -> (
                    match r.Trace.event with
                    | Event.Pledge_verified { ok = true; _ } ->
                      Error
                        (Printf.sprintf
                           "slave %d replayed a pledge to client %d (request %d, \
                            t=%.3f) and the client verified it OK at t=%.3f despite \
                            read nonces being on"
                           slave client request t0 r.Trace.time)
                    | Event.Pledge_verified { ok = false; reason; _ } ->
                      if starts_with ~prefix:"nonce" reason then Ok ()
                      else
                        Error
                          (Printf.sprintf
                             "slave %d replayed a pledge to client %d (request %d, \
                              t=%.3f); it was rejected at t=%.3f but for %S, not the \
                              nonce mismatch"
                             slave client request t0 r.Trace.time reason)
                    | _ -> Ok ())))
              (Ok ()) launches
          end
        end);
  }

let equivocation_detection =
  {
    name = "equivocation-detection";
    doc =
      "an equivocating slave whose lie was verified OK is flagged by the end of the \
       run (audit on, uniform sampling, clean net, no chaos, no audit overload)";
    check =
      (fun result ->
        let s = result.Harness.scenario in
        let overloaded =
          List.exists
            (fun (r : Trace.record) ->
              match r.Trace.event with Event.Audit_overload _ -> true | _ -> false)
            (events_of result)
        in
        if
          (not s.Scenario.audit)
          || s.Scenario.audit_adaptive || Scenario.lossy s || Scenario.has_chaos s
          || overloaded
        then Ok ()
        else begin
          let events = events_of result in
          let launches = launches_of events ~mode_prefix:"equivocate" in
          if launches = [] then Ok ()
          else begin
            let issue_times = issue_times_of events in
            let read_timeout =
              Secrep_core.Config.default.Secrep_core.Config.read_timeout_factor
              *. s.Scenario.max_latency
            in
            let flagged = (findings result).Slo.accused in
            List.fold_left
              (fun acc ((slave, client, request, t0) as launch) ->
                match acc with
                | Error _ -> acc
                | Ok () -> (
                  match
                    attack_verification events ~issue_times ~read_timeout launch
                  with
                  | Some { Trace.event = Event.Pledge_verified { ok = true; _ }; _ }
                    when not (List.mem slave flagged) ->
                    Error
                      (Printf.sprintf
                         "slave %d equivocated to client %d (request %d, t=%.3f), the \
                          lie was verified OK, and the slave was never flagged by \
                          double-check, audit or exclusion"
                         slave client request t0)
                  | _ -> Ok ()))
              (Ok ()) launches
          end
        end);
  }

let adaptive_no_worse =
  {
    name = "adaptive-no-worse";
    doc =
      "under common random numbers, suspicion-weighted sampling detects no later than \
       uniform sampling, and with a lone liar catches at least as many lies";
    check =
      (fun result ->
        let module Audit_core = Secrep_core.Audit_core in
        let module Prng = Secrep_crypto.Prng in
        let pledges = result.Harness.pledges in
        if pledges = [] then Ok ()
        else begin
          let s = result.Harness.scenario in
          let rng =
            Prng.create
              ~seed:(Int64.add (Int64.of_int s.Scenario.sys_seed) 0x5EC4E9L)
          in
          let draws =
            Array.init (List.length pledges) (fun _ -> Prng.float rng)
          in
          let fraction = 0.5 in
          let run adaptive =
            Audit_core.run_sampled ~draws ~fraction ~adaptive
              ~slave_public:result.Harness.slave_public ~reexec:result.Harness.reexec
              pledges
          in
          let uni = run false and ada = run true in
          if uni.Audit_core.first_caught <> ada.Audit_core.first_caught then
            Error
              (Printf.sprintf
                 "first detection diverged under common random numbers: uniform \
                  sampling caught at stream index %s, adaptive at %s (they share every \
                  decision until the first catch)"
                 (match uni.Audit_core.first_caught with
                 | Some i -> string_of_int i
                 | None -> "never")
                 (match ada.Audit_core.first_caught with
                 | Some i -> string_of_int i
                 | None -> "never"))
          else begin
            let naive =
              Audit_core.run_naive ~slave_public:result.Harness.slave_public
                ~reexec:result.Harness.reexec pledges
            in
            let liars =
              List.sort_uniq compare
                (List.filter_map
                   (fun (p, v) ->
                     if Audit_core.equal_verdict v Audit_core.Caught then
                       Some p.Secrep_core.Pledge.slave_id
                     else None)
                   (List.combine pledges naive))
            in
            if List.length liars <= 1 && ada.Audit_core.caught < uni.Audit_core.caught
            then
              Error
                (Printf.sprintf
                   "with a lone lying slave, adaptive sampling caught %d lying \
                    pledge(s) but uniform sampling caught %d on the same draws — the \
                    liar's audit probability should never drop below the uniform \
                    fraction"
                   ada.Audit_core.caught uni.Audit_core.caught)
            else Ok ()
          end
        end);
  }

let differential_audit =
  {
    name = "differential-audit";
    doc =
      "the dedup/batched auditor and the naive per-pledge auditor emit identical \
       verdicts over the run's recorded pledge stream";
    check =
      (fun result ->
        let module Audit_core = Secrep_core.Audit_core in
        let pledges = result.Harness.pledges in
        let naive =
          Audit_core.run_naive ~slave_public:result.Harness.slave_public
            ~reexec:result.Harness.reexec pledges
        in
        let dedup, _stats =
          Audit_core.run_dedup ~slave_public:result.Harness.slave_public
            ~reexec:result.Harness.reexec pledges
        in
        if List.length naive <> List.length dedup then
          Error
            (Printf.sprintf
               "verdict count mismatch: naive produced %d, dedup produced %d (both \
                audited the same %d pledges)"
               (List.length naive) (List.length dedup) (List.length pledges))
        else
          let rec compare_at i = function
            | [] -> Ok ()
            | (vn, vd) :: rest ->
              if Audit_core.equal_verdict vn vd then compare_at (i + 1) rest
              else
                let pledge = List.nth pledges i in
                Error
                  (Printf.sprintf
                     "pledge #%d (slave %d, version %d): naive auditor says %s, dedup \
                      auditor says %s"
                     i pledge.Secrep_core.Pledge.slave_id
                     (Secrep_core.Pledge.version pledge)
                     (Format.asprintf "%a" Audit_core.pp_verdict vn)
                     (Format.asprintf "%a" Audit_core.pp_verdict vd))
          in
          compare_at 0 (List.combine naive dedup));
  }

let parallel_determinism =
  {
    name = "parallel-determinism";
    doc =
      "re-running a sharded scenario on the parallel domain scheduler yields \
       byte-identical per-shard event streams to the sequential scheduler";
    check =
      (fun result ->
        let s = result.Harness.scenario in
        if s.Scenario.n_shards <= 1 then Ok ()
        else begin
          (* Full differential: both schedulers replay the scenario from
             scratch, so the comparison covers everything downstream of
             the scheduler — PRNG draws, chaos fan-out, rebalances,
             auditor budgets — not just the merge order. *)
          let digests domains =
            List.map Harness.events_digest (Harness.run_sharded ~domains s)
          in
          let sequential = digests 0 and parallel = digests 2 in
          let rec walk i = function
            | [], [] -> Ok ()
            | d0 :: r0, d2 :: r2 ->
              if String.equal d0 d2 then walk (i + 1) (r0, r2)
              else
                Error
                  (Printf.sprintf
                     "shard %d diverged under the parallel scheduler: sequential \
                      stream digest %s, 2-domain digest %s"
                     i d0 d2)
            | l0, l2 ->
              Error
                (Printf.sprintf
                   "scheduler runs disagree on shard count from shard %d: sequential \
                    has %d more, parallel has %d more"
                   i (List.length l0) (List.length l2))
          in
          walk 0 (sequential, parallel)
        end);
  }

let all =
  [
    detection;
    no_false_accusation;
    staleness;
    write_spacing;
    pledge_validity;
    availability;
    recovery_convergence;
    differential_audit;
    replay_rejection;
    equivocation_detection;
    adaptive_no_worse;
    parallel_determinism;
  ]

let named names =
  match names with
  | [] -> Ok all
  | _ ->
    let resolve name =
      match List.find_opt (fun c -> c.name = name) all with
      | Some c -> Ok c
      | None ->
        Error
          (Printf.sprintf "unknown invariant %S (known: %s)" name
             (String.concat ", " (List.map (fun c -> c.name) all)))
    in
    List.fold_right
      (fun name acc ->
        match (resolve name, acc) with
        | Ok c, Ok cs -> Ok (c :: cs)
        | Error e, _ -> Error e
        | _, Error e -> Error e)
      names (Ok [])

let check_all checkers result =
  List.fold_left
    (fun acc c ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
        match c.check result with
        | Ok () -> Ok ()
        | Error msg -> Error (Printf.sprintf "[%s] %s" c.name msg)))
    (Ok ()) checkers

let check_shards checkers results =
  let many = List.length results > 1 in
  List.concat
    (List.mapi
       (fun i result ->
         match check_all checkers result with
         | Ok () -> []
         | Error msg -> [ (if many then Printf.sprintf "[shard %d] %s" i msg else msg) ])
       results)
