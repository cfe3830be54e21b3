(** Deterministic scenario execution.

    Builds a {!Secrep_core.System.t} from a {!Scenario.t}, subscribes
    to the live trace stream (so no event is lost to the ring buffer),
    schedules the scenario's timed operations, runs the simulator past
    the point where every write has committed and the auditor has
    caught up, and returns the complete typed event stream plus every
    accepted read labelled against the ground-truth oracle.

    Everything is seeded from the scenario, so two runs of the same
    scenario produce bit-identical results. *)

type accepted_read = {
  time : float;  (** simulated time the client accepted *)
  client : int;
  slave : int;  (** the slave that served it *)
  version : int;  (** content version the result was computed at *)
  wrong : bool;  (** oracle says the answer is incorrect *)
}

type run_result = {
  scenario : Scenario.t;  (** the normalized scenario that actually ran *)
  config : Secrep_core.Config.t;  (** the protocol config it ran under *)
  events : Secrep_sim.Trace.record list;  (** complete stream, oldest first *)
  accepted : accepted_read list;  (** in completion order *)
  end_time : float;
  pledges : Secrep_core.Pledge.t list;
      (** every pledge delivered to an auditor, in delivery order —
          the input stream for the offline audit drivers *)
  reexec : version:int -> Secrep_store.Query.t -> string option;
      (** ground-truth re-execution oracle over the run's version
          history ({!Secrep_core.System.reexec_digest}) *)
  slave_public : int -> Secrep_crypto.Sig_scheme.public option;
      (** public keys of the run's slaves, for offline signature checks *)
  slo : Secrep_monitor.Slo.t Lazy.t;
      (** {!fold_slo} over [events]: the one monitor fold the
          stream-judged invariants read.  Forced by the first checker
          that needs it, on the domain that checks; a result copied
          with another [events] needs a fresh fold. *)
}

val config_of_scenario : Scenario.t -> Secrep_core.Config.t
(** The protocol config a scenario runs under: {!Secrep_core.Config.default}
    with the scenario's latency bound, keep-alive period,
    double-check probability and audit settings. *)

val run : Scenario.t -> run_result
(** Chaos windows from the scenario are armed via
    {!Secrep_chaos.Injector.apply} before the first operation fires;
    the run horizon covers the last heal plus a convergence margin and
    every read's worst-case retry ladder. *)

val run_sharded : ?domains:int -> Scenario.t -> run_result list
(** Execute the scenario over [n_shards] content items and return one
    result per shard, each carrying the slice of the scenario that
    shard saw (its own faults and ops; chaos windows are global).
    [domains] selects the deployment scheduler (0/1 sequential, [> 1]
    the parallel worker pool); every setting must produce byte-identical
    per-shard streams — the [parallel-determinism] invariant holds the
    harness to that.

    [n_shards = 1] is exactly [[run scenario]].  Both run one pipeline
    over a shard array — a bare system for K = 1, a
    {!Secrep_shard.Deployment} for K > 1 — in which ops route to shard
    [key mod K] and adversarial faults to shard [slave mod K].  At
    K > 1 chaos windows become cross-shard (slave cuts and churn act on
    pool hosts, hitting every co-located replica; auditor cuts and
    network degradation hit all shards). *)

(** {2 Live capture}

    The pieces of a run the CLI's chaos command shares with the
    harness. *)

type capture

val capture : Secrep_core.System.t -> capture
(** Subscribe to the system's live event stream and to every pledge
    delivered to its auditor.  Subscribe before the run starts: the
    trace ring may wrap, subscribers see everything. *)

val result :
  capture ->
  scenario:Scenario.t ->
  config:Secrep_core.Config.t ->
  accepted:accepted_read list ->
  run_result
(** The run result for everything captured so far; [config] is the
    one the captured system runs under. *)

val fold_slo :
  Secrep_core.Config.t ->
  Secrep_sim.Trace.record list ->
  end_time:float ->
  Secrep_monitor.Slo.t
(** A fresh {!Secrep_monitor.Slo} with thresholds from [config], fed
    the stream and finalized at [end_time]. *)

val read_slack : Secrep_core.Config.t -> float
(** Simulated time for one read to exhaust its worst-case retry ladder
    and the degraded master fallback; part of every settle horizon. *)

val events_digest : run_result -> string
(** {!Secrep_sim.Trace.digest} of the captured stream; equal digests
    mean equal streams.  Used by the determinism tests and the replay
    documentation. *)
