(** Online SLO monitor: rolling-window rules evaluated incrementally
    over the live event stream, raising typed {!Secrep_sim.Event.t}
    [Alert_raised] / [Alert_cleared] events.

    Rules (see docs/OBSERVABILITY.md for the full reference):

    - ["staleness"] — a pledge for version [v] was accepted after
      [commit(v+1) + max_latency], or a committed version went
      unapplied by every slave past the bound.
    - ["read-latency"] — rolling p99 read latency above [max_latency].
    - ["availability"] — burn rate of degraded/failed completions
      against the error budget, or a read hung past the retry budget.
    - ["detection"] — a lie outlived the audit detection budget (or,
      at {!finalize}, was never accused at all).
    - ["false-accusation"] — a slave was accused without any recorded
      lie (pulse).
    - ["write-spacing"] — a master committed writes closer than
      [max_latency] apart (pulse).
    - ["auditor-lag"] — the audit store fell behind its deadline or
      shed load.
    - ["breaker"] — circuit-breaker opens exceeded the rate threshold.
    - ["recovery"] — a rejoining slave failed to converge within the
      bound.
    - ["quarantine"] — the adaptive auditor put a slave on probation
      (pulse; the value is the suspicion score that crossed the
      threshold).

    Standing rules clear when their condition recovers ([Alert_cleared]
    carries the outage duration); pulse rules decay after a quiet
    window.  Repeat violations while an alert is active update its
    [peak] instead of re-raising — burn-rate style, one alert per
    outage.

    The state of the staleness, availability, detection,
    false-accusation, write-spacing and recovery rules also yields
    end-of-run {!findings}, which the fuzz invariants judge runs by. *)

type config = {
  max_latency : float;
  window : float;  (** rolling-window span, seconds *)
  audit_enabled : bool;
  latency_threshold : float;
  latency_min_samples : int;
  unavail_budget : float;  (** tolerated bad-completion fraction *)
  burn_raise : float;  (** raise when burn rate >= this *)
  burn_clear : float;  (** clear when burn rate < this *)
  avail_min_samples : int;
  read_deadline : float;  (** hung-read bound, seconds after issue *)
  detection_budget : float;  (** lie -> accusation bound *)
  audit_deadline : float;  (** commit -> audit-advance bound *)
  breaker_rate : int;  (** opens per window before alerting *)
  quarantine_threshold : float;  (** suspicion score that triggers probation *)
}

val config : ?window:float -> Secrep_core.Config.t -> config
(** Derive thresholds from the run's protocol parameters.  [window]
    defaults to [6 * max_latency]. *)

val rule_names : string list

type alert = {
  rule : string;
  raised_at : float;
  threshold : float;
  mutable peak : float;  (** worst observed value while active *)
  mutable cleared_at : float option;
  mutable detail : string;  (** human-readable cause, tracks [peak] *)
}

type t

val create : ?trace:Secrep_sim.Trace.t -> config:config -> unit -> t
(** When [trace] is given, raises and clears are emitted into it as
    [Alert_raised] / [Alert_cleared] events with source ["slo"]. *)

val observe : t -> Secrep_sim.Trace.record -> unit
(** Fold one event and re-evaluate every rule at that timestamp.
    Alert events are ignored (a monitor may observe its own output —
    e.g. when subscribed to the trace it emits into — without
    looping).  Time is treated as monotone: a record older than the
    newest seen evaluates at the newest time. *)

val finalize : t -> now:float -> unit
(** Final evaluation at end of run.  Lies never accused are raised as
    ["detection"] alerts regardless of age: the auditor gets no
    further chances.  Idempotent; [observe] is a no-op afterwards. *)

type findings = {
  stale_pledge : string option;
      (** the first pledge verified OK for version [v] after
          [commit(v+1) + max_latency], against the run's final commit
          times (staleness) *)
  close_writes : string option;
      (** the first pair of one master's commits closer than
          [max_latency] (write-spacing) *)
  hung_reads : string option;
      (** a client whose issued reads outnumber, or are outnumbered by,
          its answered ones at end of run (availability) *)
  accused : int list;
      (** every slave convicted, excluded or caught by a double-check,
          in order of first accusation (detection,
          no-false-accusation) *)
  unconverged : (int * string) list;
      (** per slave, the first rejoin that did not reach the version
          committed at its rejoin within [max_latency], in stream
          order; rejoins overlapping another outage, a degraded
          network, a master crash or an exclusion, or ending past the
          run, are not judged (recovery-convergence) *)
}
(** End-of-run verdicts of the rules that serve the fuzz invariants in
    [Secrep_check.Invariant], under the invariants' semantics.  The
    stream is assumed to be a live trace: time-ordered, each master
    committing increasing versions, and [finalize] called no earlier
    than its last record.  Scenario
    preconditions and ground truth (which slaves were faulty, which
    accepted answers were wrong) are the invariants' to apply. *)

val findings : t -> findings
(** Raises [Invalid_argument] before {!finalize}. *)

val alerts : t -> alert list
(** Every alert ever raised, oldest first (includes cleared ones). *)

val active : t -> alert list
val raised_rules : t -> string list
val was_raised : t -> string -> bool

val json_of_alert : alert -> Secrep_sim.Export.Json.t
val pp_alert : Format.formatter -> alert -> unit
