(* Command-line simulator driver.

   Build any secure-replication deployment from flags, inject a
   malicious slave, run a read/write workload and print the outcome —
   the quickest way to poke at the protocol without writing code.

   Examples:
     dune exec bin/secrep_sim_cli.exe -- run
     dune exec bin/secrep_sim_cli.exe -- run --malicious 0 --lie-prob 1.0 \
        --lie-mode corrupt --double-check-p 0.0 --duration 600
     dune exec bin/secrep_sim_cli.exe -- run --masters 3 --clients 20 \
        --read-rate 50 --csv
     dune exec bin/secrep_sim_cli.exe -- fuzz --runs 100 --seed 1 *)

module System = Secrep_core.System
module Config = Secrep_core.Config
module Fault = Secrep_core.Fault
module Corrective = Secrep_core.Corrective
module Auditor = Secrep_core.Auditor
module Stats = Secrep_sim.Stats
module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Export = Secrep_sim.Export
module Prng = Secrep_crypto.Prng
module Catalog = Secrep_workload.Catalog
module Mix = Secrep_workload.Mix
module Driver = Secrep_workload.Driver

let strip_prefix ~prefix s =
  let n = String.length prefix in
  if String.length s > n && String.sub s 0 n = prefix then
    Some (String.sub s n (String.length s - n))
  else None

let lie_mode_of_string s =
  match s with
  | "corrupt" -> Ok Fault.Corrupt_result
  | "stale" -> Ok Fault.Stale_state
  | "bad-signature" -> Ok Fault.Bad_signature
  | "omit" -> Ok Fault.Omit_result
  | "replay" | "replay-pledge" -> Ok Fault.Replay_pledge
  | s -> (
    match strip_prefix ~prefix:"collude:" s with
    | Some tag -> Ok (Fault.Collude tag)
    | None -> (
      match strip_prefix ~prefix:"equivocate:" s with
      | Some clique -> (
        let parts = String.split_on_char ',' clique in
        match
          List.fold_right
            (fun part acc ->
              match (acc, int_of_string_opt (String.trim part)) with
              | Some ids, Some id -> Some (id :: ids)
              | _ -> None)
            parts (Some [])
        with
        | Some (_ :: _ as clique) -> Ok (Fault.Equivocate { clique })
        | _ -> Error (Printf.sprintf "equivocate clique %S is not a comma list of client ids" clique))
      | None -> (
        match strip_prefix ~prefix:"adaptive:" s with
        | Some threshold -> (
          match float_of_string_opt threshold with
          | Some threshold when threshold > 0.0 -> Ok (Fault.Adaptive { threshold })
          | _ -> Error (Printf.sprintf "adaptive threshold %S is not a positive number" threshold))
        | None -> (
          match strip_prefix ~prefix:"flaky-omit:" s with
          | Some burst -> (
            match int_of_string_opt burst with
            | Some burst when burst >= 1 -> Ok (Fault.Flaky_omit { burst })
            | _ -> Error (Printf.sprintf "flaky-omit burst %S is not a positive int" burst))
          | None -> Error (Printf.sprintf "unknown lie mode %S" s)))))

(* "-" means stdout, anything else is a file path. *)
let write_out path content =
  match path with
  | "-" -> print_string content
  | path ->
    let oc = open_out path in
    output_string oc content;
    close_out oc

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

(* -- one execution path ------------------------------------------------

   [run], [chaos] and [campaign] simulate over one shard array.
   [--shards 1] is a bare System, seeded exactly as the classic run
   always was (a 1-shard Deployment would derive a different seed);
   [--shards K] (K > 1) is the K systems of a [Secrep_shard.Deployment]
   over a shared host pool.  Flags, config, monitors, the attack,
   trace capture and output are shared; construction and content load,
   the workload, chaos arming, the run horizon and the summary printers
   are per case. *)

module Slo = Secrep_monitor.Slo
module Lineage = Secrep_monitor.Lineage
module Health = Secrep_monitor.Health
module Deployment = Secrep_shard.Deployment
module Cross = Secrep_workload.Cross

type topology = {
  masters : int;
  slaves_per_master : int;  (** after --replication-factor *)
  replication : int;  (** replicas per content item *)
  shards : int;
  domains : int;
  clients : int;
  items : int;
  seed : int;
}

type workload = { duration : float; read_rate : float; write_rate : float }

type output = {
  trace_out : string option;
  trace_format : string;
  metrics_out : string option;
  slo : bool;
  slo_out : string option;
  lineage_out : string option;
  trace_capacity : int option;
  span_capacity : int option;
}

let no_output =
  {
    trace_out = None;
    trace_format = "jsonl";
    metrics_out = None;
    slo = false;
    slo_out = None;
    lineage_out = None;
    trace_capacity = None;
    span_capacity = None;
  }

let monitored out = out.slo || out.slo_out <> None || out.lineage_out <> None

(* Reject bad output flags before spending time on the simulation.  A
   K > 1 run has no single trace ring, span ring, stats registry or
   lineage to dump, so those flags exit 2 instead of being dropped;
   [sharded_slo] says whether the command runs per-shard SLO monitors. *)
let check_output ~shards ~sharded_slo out =
  if out.trace_format <> "jsonl" && out.trace_format <> "chrome" then
    fail "unknown trace format %S (expected jsonl or chrome)" out.trace_format;
  if shards > 1 then
    List.iter
      (fun (used, flag) -> if used then fail "%s is not supported with --shards > 1" flag)
      [
        (out.trace_format <> "jsonl", "--trace-format chrome");
        (out.metrics_out <> None, "--metrics-out");
        (out.lineage_out <> None, "--lineage-out");
        ((not sharded_slo) && out.slo, "--slo");
        ((not sharded_slo) && out.slo_out <> None, "--slo-out");
        (out.trace_capacity <> None, "--trace-capacity");
        (out.span_capacity <> None, "--span-capacity");
      ]

type monitoring = { m_slo : Slo.t; m_lineage : Lineage.t }

(* Subscribe both monitors through one [on_emit] callback so lineage
   sees each event before the SLO engine can emit alerts about it. *)
let attach_monitoring ~config system =
  let slo = Slo.create ~trace:(System.trace system) ~config:(Slo.config config) () in
  let lineage = Lineage.create () in
  Trace.on_emit (System.trace system) (fun r ->
      Lineage.observe lineage r;
      Slo.observe slo r);
  { m_slo = slo; m_lineage = lineage }

type plane = Single of System.t | Sharded of Deployment.t

type attack = { slave : int; mode : string; probability : float; from_time : float }

type 'a sim = {
  plane : plane;
  systems : System.t array;
  monitors : monitoring array option;
  attached : 'a;  (** what the command's [attach] subscribed *)
  tagged_rev : string list ref;  (** K > 1 shard-tagged trace lines *)
  rng : Prng.t;  (** the workload stream, seed + 1 *)
  keys : string array array;  (** content keys per shard *)
}

(* Build the shard array and everything that must see it before the
   workload: monitors, the command's [attach] subscribers, the K > 1
   trace tap, the content, then the attack on shard [slave mod K]. *)
let start topo ~config ~out ?attack ~attach () =
  let plane =
    if topo.shards > 1 then
      Sharded
        (Deployment.create ~n_shards:topo.shards ~n_masters:topo.masters
           ~replication_factor:topo.replication ~n_clients:topo.clients ~config
           ~seed:(Int64.of_int topo.seed) ~items_per_shard:topo.items ~domains:topo.domains
           ())
    else
      Single
        (System.create ~n_masters:topo.masters ~slaves_per_master:topo.slaves_per_master
           ~n_clients:topo.clients ~config ~seed:(Int64.of_int topo.seed)
           ?trace_capacity:out.trace_capacity ?span_capacity:out.span_capacity ())
  in
  let systems =
    match plane with
    | Single system -> [| system |]
    | Sharded d -> Array.init topo.shards (Deployment.system d)
  in
  let monitors =
    if monitored out then Some (Array.map (attach_monitoring ~config) systems) else None
  in
  let attached = attach systems in
  let tagged_rev = ref [] in
  (match plane with
  | Sharded d when out.trace_out <> None ->
    Deployment.on_event d (fun ~shard r ->
        tagged_rev := Deployment.tagged_line ~shard r :: !tagged_rev)
  | _ -> ());
  (* The classic catalogue comes off the same seed + 1 stream the
     workload then splits; a deployment loaded each shard's own
     catalogue at create. *)
  let rng = Prng.create ~seed:(Int64.of_int (topo.seed + 1)) in
  let keys =
    match plane with
    | Single system ->
      let content = Catalog.product_catalog rng ~n:topo.items in
      System.load_content system content;
      [| Array.of_list (List.map fst content) |]
    | Sharded d -> Array.init topo.shards (Deployment.keys d)
  in
  Option.iter
    (fun a ->
      match lie_mode_of_string a.mode with
      | Error msg -> fail "%s" msg
      | Ok mode ->
        let n = System.n_slaves systems.(0) in
        if a.slave < 0 || a.slave >= n then fail "slave %d out of range (0..%d)" a.slave (n - 1);
        System.set_slave_behavior
          systems.(a.slave mod Array.length systems)
          ~slave:a.slave
          (Fault.Malicious { probability = a.probability; mode; from_time = a.from_time }))
    attack;
  { plane; systems; monitors; attached; tagged_rev; rng; keys }

(* K = 1 workload: the classic Poisson driver over the catalogue. *)
let drive_single sim work =
  let mix = Mix.create ~rng:(Prng.split sim.rng) ~keys:sim.keys.(0) () in
  let driver = Driver.create sim.systems.(0) ~mix ~rng:(Prng.split sim.rng) () in
  Driver.run_reads driver ~rate:work.read_rate ~duration:work.duration;
  if work.write_rate > 0.0 then
    Driver.run_writes driver ~rate:work.write_rate ~duration:work.duration ~writer:0;
  driver

type tally = {
  issued : int array;
  accepted : int array;
  by_master : int array;
  gave_up : int array;
}

(* K > 1 workload: Zipf over contents (with [rotate_period], the hot
   shard rotates) x Zipf over keys within each shard's own catalogue. *)
let drive_cross sim d ~clients ?rotate_period work =
  let k = Array.length sim.systems in
  let t =
    {
      issued = Array.make k 0;
      accepted = Array.make k 0;
      by_master = Array.make k 0;
      gave_up = Array.make k 0;
    }
  in
  let bump counts shard = counts.(shard) <- counts.(shard) + 1 in
  let on_done shard (r : Secrep_core.Client.read_report) =
    match r.Secrep_core.Client.outcome with
    | `Accepted _ -> bump t.accepted shard
    | `Served_by_master _ -> bump t.by_master shard
    | `Gave_up -> bump t.gave_up shard
  in
  let mixes = Array.init k (fun i -> Mix.create ~rng:(Prng.split sim.rng) ~keys:sim.keys.(i) ()) in
  let pick_client = Prng.split sim.rng in
  let cross = Cross.create ~rng:(Prng.split sim.rng) ~n_shards:k ?rotate_period () in
  (* Client ids are presampled in arrival order: [arrivals] is
     time-sorted, so this matches what callback-time draws produced
     sequentially, and keeps shard callbacks free of shared RNG state
     (required for the parallel scheduler's determinism contract). *)
  List.iter
    (fun (at, shard) ->
      let client = Prng.int pick_client clients in
      Deployment.schedule d ~shard ~time:at (fun () ->
          bump t.issued shard;
          Deployment.read d ~shard ~client
            (Mix.next_query mixes.(shard))
            ~on_done:(on_done shard)))
    (Cross.arrivals cross ~rate:work.read_rate ~duration:work.duration);
  if work.write_rate > 0.0 then begin
    let wcross = Cross.create ~rng:(Prng.split sim.rng) ~n_shards:k () in
    List.iter
      (fun (at, shard) ->
        Deployment.schedule d ~shard ~time:at (fun () ->
            Deployment.write d ~shard ~client:0
              (Mix.next_write mixes.(shard))
              ~on_done:(fun _ -> ())))
      (Cross.arrivals wcross ~rate:work.write_rate ~duration:work.duration)
  end;
  t

(* Horizon of the workload-only commands: the workload plus room for
   the last writes to commit and the auditor to catch up. *)
let settle_horizon ~config work = work.duration +. (4.0 *. config.Config.max_latency) +. 60.0

let excluded_ids ~sep system =
  String.concat sep (List.map string_of_int (Corrective.excluded (System.corrective system)))

(* Finalize the monitors before the trace dump so end-of-run alerts
   (e.g. a never-accused liar) appear in the dump too, then write the
   trace and metrics.  K > 1 reports and SLO summaries are per shard. *)
let finish sim out ~print_report =
  let many = Array.length sim.systems > 1 in
  (match sim.monitors with
  | None -> ()
  | Some monitors ->
    let healths =
      Array.mapi
        (fun i m ->
          let system = sim.systems.(i) in
          Slo.finalize m.m_slo ~now:(Secrep_sim.Sim.now (System.sim system));
          let health =
            Health.build ~trace:(System.trace system) ~spans:(System.spans system)
              ~slo:m.m_slo ~lineage:m.m_lineage ()
          in
          if print_report then
            if many then Format.printf "@.-- shard %d --@.%a" i Health.pp health
            else Format.printf "@.%a" Health.pp health;
          health)
        monitors
    in
    Option.iter
      (fun path ->
        let json i health =
          if many then
            Export.Json.Obj [ ("shard", Export.Json.Int i); ("health", Health.to_json health) ]
          else Health.to_json health
        in
        write_out path
          (String.concat "\n"
             (Array.to_list (Array.mapi (fun i h -> Export.Json.to_string (json i h)) healths))
          ^ "\n"))
      out.slo_out;
    Option.iter (fun path -> write_out path (Lineage.jsonl monitors.(0).m_lineage)) out.lineage_out);
  Option.iter
    (fun path ->
      write_out path
        (match sim.plane with
        | Sharded _ -> String.concat "\n" (List.rev !(sim.tagged_rev)) ^ "\n"
        | Single system when out.trace_format = "jsonl" ->
          Export.jsonl_of_trace (System.trace system)
        | Single system ->
          Export.chrome_of ~spans:(System.spans system) ~trace:(System.trace system) ()))
    out.trace_out;
  Option.iter
    (fun path -> write_out path (Export.prometheus_of_stats (System.stats sim.systems.(0))))
    out.metrics_out

(* -- shared flags -------------------------------------------------------- *)

open Cmdliner

(* Topology flags; per-command defaults come in as arguments.  Without
   [shards_doc] the command has no sharding flags and runs K = 1. *)
let topology_term ?shards_doc ~clients ~items ~seed_doc () =
  let masters = Arg.(value & opt int 2 & info [ "masters" ] ~doc:"Number of master servers.") in
  let slaves =
    Arg.(value & opt int 3 & info [ "slaves-per-master" ] ~doc:"Slaves per master.")
  in
  let clients = Arg.(value & opt int clients & info [ "clients" ] ~doc:"Number of clients.") in
  let items = Arg.(value & opt int items & info [ "items" ] ~doc:"Documents in the content.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:seed_doc) in
  let shards, domains, replication_factor =
    match shards_doc with
    | None -> (Term.const 1, Term.const 0, Term.const None)
    | Some doc ->
      ( Arg.(value & opt int 1 & info [ "shards" ] ~doc),
        Arg.(
          value
          & opt int 0
          & info [ "domains" ]
              ~doc:
                "Worker domains for a sharded deployment (--shards > 1).  0 or 1 runs the \
                 shards sequentially in lockstep; >1 advances them on a parallel domain \
                 pool.  Both modes produce bit-identical event streams; ignored for \
                 single-system runs."),
        Arg.(
          value
          & opt (some int) None
          & info [ "replication-factor" ]
              ~doc:
                "Replicas per content item (default: masters x slaves-per-master).  \
                 Overrides --slaves-per-master with R / masters.") )
  in
  Term.(
    const (fun masters slaves shards domains replication_factor clients items seed ->
        let slaves_per_master, replication =
          match replication_factor with
          | Some r -> (max 1 (r / max 1 masters), r)
          | None -> (slaves, masters * slaves)
        in
        { masters; slaves_per_master; replication; shards; domains; clients; items; seed })
    $ masters $ slaves $ shards $ domains $ replication_factor $ clients $ items $ seed)

let workload_term ~duration ~duration_doc ~read_rate =
  let duration = Arg.(value & opt float duration & info [ "duration" ] ~doc:duration_doc) in
  let read_rate =
    Arg.(value & opt float read_rate & info [ "read-rate" ] ~doc:"Reads per second.")
  in
  let write_rate =
    Arg.(value & opt float 0.05 & info [ "write-rate" ] ~doc:"Writes per second (0 = none).")
  in
  Term.(
    const (fun duration read_rate write_rate -> { duration; read_rate; write_rate })
    $ duration $ read_rate $ write_rate)

(* Trace, metrics and monitoring output; [metrics] adds --metrics-out. *)
let output_term ~metrics =
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Dump the event trace to $(docv) after the run ('-' = stdout).")
  in
  let trace_format =
    Arg.(
      value
      & opt string "jsonl"
      & info [ "trace-format" ] ~docv:"FMT"
          ~doc:
            "Trace dump format: $(b,jsonl) (one event per line, replayable with the \
             $(b,trace) subcommand) or $(b,chrome) (trace_event JSON, loadable in \
             Perfetto / chrome://tracing).")
  in
  let metrics_out =
    if metrics then
      Arg.(
        value
        & opt (some string) None
        & info [ "metrics-out" ] ~docv:"FILE"
            ~doc:
              "Write counters, gauges and per-phase latency quantiles in Prometheus text \
               format to $(docv) ('-' = stdout).")
    else Term.const None
  in
  let slo =
    Arg.(
      value
      & flag
      & info [ "slo" ]
          ~doc:
            "Run the online SLO monitor over the live event stream: alerts are raised as \
             typed trace events and an end-of-run health report is printed.")
  in
  let slo_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo-out" ] ~docv:"FILE"
          ~doc:
            "Write the machine-readable JSON health summary (alerts, lineage, \
             diagnostics) to $(docv) ('-' = stdout).  Implies the monitor is on.")
  in
  let lineage_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "lineage-out" ] ~docv:"FILE"
          ~doc:
            "Write per-request causal lineage records (one JSON object per read) to \
             $(docv) ('-' = stdout).  Implies the monitor is on.")
  in
  let trace_capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-capacity" ] ~docv:"N"
          ~doc:
            "Event-trace ring capacity (default 4096).  The health report warns when the \
             ring wrapped and dropped events.")
  in
  let span_capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "span-capacity" ] ~docv:"N" ~doc:"Span ring capacity (default 4096).")
  in
  Term.(
    const
      (fun trace_out trace_format metrics_out slo slo_out lineage_out trace_capacity
           span_capacity ->
        {
          trace_out;
          trace_format;
          metrics_out;
          slo;
          slo_out;
          lineage_out;
          trace_capacity;
          span_capacity;
        })
    $ trace_out $ trace_format $ metrics_out $ slo $ slo_out $ lineage_out $ trace_capacity
    $ span_capacity)

(* The one flags -> Config builder: a command passes the protocol flags
   it exposes, every other knob keeps its Config.default value. *)
let config_term ?max_latency ?keepalive ?double_check_p ?audit ?pledge_batch
    ?pledge_batch_window ?audit_dedup ?read_nonces ?audit_adaptive () =
  let d = Config.default in
  let flag term default = Option.value term ~default:(Term.const default) in
  Term.(
    const
      (fun max_latency keepalive_period double_check_probability audit_enabled
           pledge_batch_size pledge_batch_window audit_dedup read_nonces audit_adaptive ->
        Config.validate_exn
          {
            d with
            Config.max_latency;
            keepalive_period;
            double_check_probability;
            audit_enabled;
            pledge_batch_size;
            pledge_batch_window;
            audit_dedup;
            read_nonces;
            audit_adaptive;
          })
    $ flag max_latency d.Config.max_latency
    $ flag keepalive d.Config.keepalive_period
    $ flag double_check_p d.Config.double_check_probability
    $ flag audit d.Config.audit_enabled
    $ flag pledge_batch d.Config.pledge_batch_size
    $ flag pledge_batch_window d.Config.pledge_batch_window
    $ flag audit_dedup d.Config.audit_dedup
    $ flag read_nonces d.Config.read_nonces
    $ flag audit_adaptive d.Config.audit_adaptive)

let max_latency_arg =
  Arg.(value & opt float 5.0 & info [ "max-latency" ] ~doc:"Freshness bound (Section 3).")

let keepalive_arg =
  Arg.(value & opt float 1.0 & info [ "keepalive" ] ~doc:"Keep-alive period (Section 3.1).")

(* -- run ----------------------------------------------------------------- *)

let print_run_summary topo config ~attack ~csv system driver =
  let s = Driver.summary driver in
  let stats = System.stats system in
  let auditor = System.auditor system in
  if csv then begin
    Printf.printf
      "reads_completed,reads_accepted,reads_gave_up,served_by_master,accepted_wrong,double_checks,mean_latency_ms,p99_latency_ms,audited,audit_backlog,caught,excluded\n";
    Printf.printf "%d,%d,%d,%d,%d,%d,%.3f,%.3f,%d,%d,%d,%s\n" s.Driver.reads_completed
      s.Driver.reads_accepted s.Driver.reads_gave_up s.Driver.served_by_master
      s.Driver.accepted_wrong s.Driver.double_checks
      (1000.0 *. s.Driver.mean_latency)
      (1000.0 *. s.Driver.p99_latency)
      (Auditor.audited auditor) (Auditor.backlog auditor) (Auditor.caught auditor)
      (excluded_ids ~sep:";" system)
  end
  else begin
    Printf.printf "secure replication over untrusted hosts — simulation summary\n";
    Printf.printf "  topology: %d masters, %d slaves, %d clients, %d documents\n" topo.masters
      (System.n_slaves system) topo.clients topo.items;
    Printf.printf "  protocol: max_latency=%.2gs keepalive=%.2gs p=%.3g audit=%b\n"
      config.Config.max_latency config.Config.keepalive_period
      config.Config.double_check_probability config.Config.audit_enabled;
    if config.Config.pledge_batch_size > 1 || config.Config.audit_dedup then
      Printf.printf "  batching: pledge_batch=%d window=%.2gs dedup=%b\n"
        config.Config.pledge_batch_size config.Config.pledge_batch_window
        config.Config.audit_dedup;
    if config.Config.read_nonces || config.Config.audit_adaptive then
      Printf.printf "  hardening: read_nonces=%b audit_adaptive=%b\n" config.Config.read_nonces
        config.Config.audit_adaptive;
    (match attack with
    | Some a ->
      Printf.printf "  attack: slave %d, mode %s, prob %.2g, from t=%.2gs\n" a.slave a.mode
        a.probability a.from_time
    | None -> Printf.printf "  attack: none\n");
    Printf.printf "\n  reads completed  %d (accepted %d, by-master %d, gave up %d)\n"
      s.Driver.reads_completed s.Driver.reads_accepted s.Driver.served_by_master
      s.Driver.reads_gave_up;
    Printf.printf "  read latency     mean %.1f ms, p99 %.1f ms\n"
      (1000.0 *. s.Driver.mean_latency)
      (1000.0 *. s.Driver.p99_latency);
    Printf.printf "  writes           %d committed\n"
      (Stats.get stats "system.writes_committed_acked");
    Printf.printf "  double-checks    %d (throttled %d)\n" s.Driver.double_checks
      (Stats.get stats "master.double_checks_throttled");
    Printf.printf "  wrong accepts    %d\n" s.Driver.accepted_wrong;
    Printf.printf "  audit            %d audited, backlog %d, caught %d\n"
      (Auditor.audited auditor) (Auditor.backlog auditor) (Auditor.caught auditor);
    if config.Config.audit_dedup then
      Printf.printf "  audit dedup      %d distinct re-execution(s), %d memo hit(s)\n"
        (Auditor.distinct_reexecs auditor)
        (Auditor.dedup_hits auditor);
    if config.Config.read_nonces then
      Printf.printf "  replay defense   %d nonce rejection(s)\n"
        (Stats.get stats "client.nonce_rejections");
    if config.Config.audit_adaptive then
      Printf.printf "  quarantines      %d\n" (Stats.get stats "auditor.quarantines");
    Printf.printf "  exclusions       [%s]\n"
      (String.concat "; "
         (List.map
            (fun e ->
              Printf.sprintf "slave %d at t=%.1fs (%s)" e.Corrective.slave_id
                e.Corrective.time
                (match e.Corrective.discovery with
                | Corrective.Immediate -> "immediate"
                | Corrective.Delayed -> "delayed"))
            (Corrective.events (System.corrective system))))
  end

let print_sharded_run_summary topo config ~attack ~csv d t =
  let k = topo.shards in
  if csv then begin
    Printf.printf
      "shard,reads_issued,reads_accepted,served_by_master,reads_gave_up,audited,caught,excluded\n";
    for i = 0 to k - 1 do
      let sys = Deployment.system d i in
      let auditor = System.auditor sys in
      Printf.printf "%d,%d,%d,%d,%d,%d,%d,%s\n" i t.issued.(i) t.accepted.(i)
        t.by_master.(i) t.gave_up.(i) (Auditor.audited auditor) (Auditor.caught auditor)
        (excluded_ids ~sep:";" sys)
    done
  end
  else begin
    Printf.printf "sharded deployment summary\n";
    Printf.printf
      "  content plane: %d shard(s), replication %d, pool of %d host(s), %d docs/shard\n" k
      (Deployment.replication d) (Deployment.pool_size d) topo.items;
    Printf.printf "  protocol: max_latency=%.2gs keepalive=%.2gs p=%.3g audit=%b\n"
      config.Config.max_latency config.Config.keepalive_period
      config.Config.double_check_probability config.Config.audit_enabled;
    (match attack with
    | Some a ->
      Printf.printf "  attack: slave %d of shard %d, mode %s, prob %.2g, from t=%.2gs\n"
        a.slave (a.slave mod k) a.mode a.probability a.from_time
    | None -> Printf.printf "  attack: none\n");
    for i = 0 to k - 1 do
      let sys = Deployment.system d i in
      let auditor = System.auditor sys in
      Printf.printf
        "  shard %d: reads %d (accepted %d, by-master %d, gave up %d); audited %d, caught \
         %d; excluded [%s]; hosts [%s]\n"
        i t.issued.(i) t.accepted.(i) t.by_master.(i) t.gave_up.(i)
        (Auditor.audited auditor) (Auditor.caught auditor) (excluded_ids ~sep:"; " sys)
        (String.concat "; "
           (List.map string_of_int (Array.to_list (Deployment.hosts_of_shard d i))))
    done;
    Printf.printf "  totals: %d reads issued, %d accepted, audit backlog %d\n"
      (Array.fold_left ( + ) 0 t.issued)
      (Array.fold_left ( + ) 0 t.accepted)
      (Deployment.audit_backlog d)
  end

let run_simulation topo work out config ~attack ~csv =
  check_output ~shards:topo.shards ~sharded_slo:true out;
  let sim = start topo ~config ~out ?attack ~attach:ignore () in
  let horizon = settle_horizon ~config work in
  (match sim.plane with
  | Single system ->
    let driver = drive_single sim work in
    System.run_for system horizon;
    print_run_summary topo config ~attack ~csv system driver
  | Sharded d ->
    let tally =
      drive_cross sim d ~clients:topo.clients
        ~rotate_period:(Float.max 1.0 (work.duration /. 4.0))
        work
    in
    Deployment.run_until d horizon;
    print_sharded_run_summary topo config ~attack ~csv d tally);
  finish sim out ~print_report:(not csv)

let run_cmd =
  let topology =
    topology_term ~clients:8 ~items:300 ~seed_doc:"Deterministic seed."
      ~shards_doc:
        "Content items in the deployment.  1 runs the classic single-content system; >1 \
         runs a sharded deployment over a shared host pool with per-shard auditors and a \
         cross-shard Zipf workload.  --metrics-out, --lineage-out, --trace-capacity, \
         --span-capacity and --trace-format chrome need a single system."
      ()
  in
  let workload =
    workload_term ~duration:300.0 ~duration_doc:"Workload duration (sim seconds)."
      ~read_rate:20.0
  in
  let config =
    config_term ~max_latency:max_latency_arg ~keepalive:keepalive_arg
      ~double_check_p:
        Arg.(
          value
          & opt float 0.05
          & info [ "double-check-p" ]
              ~doc:"Probability a read is double-checked (Section 3.3).")
      ~audit:
        Arg.(value & opt bool true & info [ "audit" ] ~doc:"Enable the background auditor.")
      ~pledge_batch:
        Arg.(
          value
          & opt int 1
          & info [ "pledge-batch-size" ]
              ~doc:
                "Pledges a slave signs per Merkle batch (1 = classic per-pledge \
                 signatures).")
      ~pledge_batch_window:
        Arg.(
          value
          & opt float 0.05
          & info [ "pledge-batch-window" ]
              ~doc:"Max seconds a slave holds a partial pledge batch before flushing it.")
      ~audit_dedup:
        Arg.(
          value
          & flag
          & info [ "audit-dedup" ]
              ~doc:
                "Deduplicate auditor re-execution: each distinct (version, query) is \
                 re-executed once and all matching pledges settle against the memoized \
                 digest.")
      ~read_nonces:
        Arg.(
          value
          & flag
          & info [ "read-nonces" ]
              ~doc:
                "Bind each pledge to its read's request id so replayed pledges are \
                 rejected (replay defense).  Off by default for wire compatibility.")
      ~audit_adaptive:
        Arg.(
          value
          & flag
          & info [ "audit-adaptive" ]
              ~doc:
                "Suspicion-weighted audit sampling: slaves that accumulate suspicion \
                 (late pledges, nonce rejections, double-check mismatches) are audited \
                 more and can be quarantined on probation.  Exclusion still requires \
                 cryptographic proof.")
      ()
  in
  let malicious =
    Arg.(
      value
      & opt (some int) None
      & info [ "malicious" ] ~doc:"Make this slave id malicious.")
  in
  let lie_prob =
    Arg.(value & opt float 1.0 & info [ "lie-prob" ] ~doc:"Probability the slave lies per read.")
  in
  let lie_mode =
    Arg.(
      value
      & opt string "corrupt"
      & info [ "lie-mode" ]
          ~doc:
            "Attack: corrupt | stale | bad-signature | omit | collude:TAG | replay | \
             equivocate:CLIENT,... | adaptive:THRESHOLD | flaky-omit:BURST.")
  in
  let adversary =
    Arg.(
      value
      & opt (some string) None
      & info [ "adversary" ] ~docv:"MODE"
          ~doc:
            "Shorthand for a strategic adversary: sets --lie-mode to $(docv) and, when \
             --malicious is absent, makes slave 0 malicious.  Same mode grammar as \
             --lie-mode.")
  in
  let lie_from =
    Arg.(value & opt float 0.0 & info [ "lie-from" ] ~doc:"Attack start time (sim seconds).")
  in
  let attack =
    Term.(
      const (fun malicious lie_prob lie_mode adversary lie_from ->
          let mode = match adversary with Some m -> m | None -> lie_mode in
          let malicious =
            match (adversary, malicious) with Some _, None -> Some 0 | _, m -> m
          in
          Option.map
            (fun slave -> { slave; mode; probability = lie_prob; from_time = lie_from })
            malicious)
      $ malicious $ lie_prob $ lie_mode $ adversary $ lie_from)
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Machine-readable one-line output.") in
  let term =
    Term.(
      const (fun topo work config attack csv out ->
          run_simulation topo work out config ~attack ~csv)
      $ topology $ workload $ config $ attack $ csv $ output_term ~metrics:true)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Simulate a deployment of the secure-replication protocol under a workload.")
    term

(* -- fuzzing ------------------------------------------------------------ *)

module Fuzz = Secrep_check.Fuzz
module Invariant = Secrep_check.Invariant

let run_fuzz ~seed ~runs ~max_shrink_steps ~invariants ~shards ~replication_factor
    ~counterexample_out =
  match Invariant.named invariants with
  | Error msg -> fail "%s" msg
  | Ok checkers ->
    let outcome =
      Fuzz.run ~runs ~max_shrink_steps ~invariants:checkers ?shards
        ?slaves_per_master:replication_factor ~seed:(Int64.of_int seed) ()
    in
    Format.printf "%a@." Fuzz.pp_outcome outcome;
    (match outcome with
    | Fuzz.Passed _ -> ()
    | Fuzz.Failed f ->
      (match counterexample_out with
      | None -> ()
      | Some path ->
        write_out path
          (Format.asprintf "%a@.@.violation: %s@.replay: %s@." Secrep_check.Scenario.pp
             f.Secrep_check.Prop.shrunk f.Secrep_check.Prop.shrunk_reason (Fuzz.replay_hint f)));
      exit 1)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base seed; run $(i,i) uses seed + i.")
  in
  let runs = Arg.(value & opt int 100 & info [ "runs" ] ~doc:"Number of random scenarios.") in
  let max_shrink_steps =
    Arg.(
      value
      & opt int 200
      & info [ "max-shrink-steps" ]
          ~doc:"Cap on accepted shrinking steps when minimizing a counterexample.")
  in
  let invariants =
    Arg.(
      value
      & opt_all string []
      & info [ "invariant" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Only check invariant $(docv).  Repeatable; default all.  Known: %s."
               (String.concat ", " (List.map (fun c -> c.Invariant.name) Invariant.all))))
  in
  let counterexample_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "counterexample-out" ] ~docv:"FILE"
          ~doc:"On failure, also write the shrunk counterexample to $(docv) ('-' = stdout).")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ]
          ~doc:
            "Pin every scenario's shard count to $(docv) (1-4) instead of drawing it.  \
             Sharded scenarios run on a deployment with per-shard invariant checks."
          ~docv:"K")
  in
  let replication_factor =
    Arg.(
      value
      & opt (some int) None
      & info [ "replication-factor" ] ~docv:"R"
          ~doc:"Pin every scenario's replicas-per-master to $(docv) instead of drawing it.")
  in
  let term =
    Term.(
      const (fun seed runs max_shrink_steps invariants shards replication_factor
                counterexample_out ->
          run_fuzz ~seed ~runs ~max_shrink_steps ~invariants ~shards ~replication_factor
            ~counterexample_out)
      $ seed $ runs $ max_shrink_steps $ invariants $ shards $ replication_factor
      $ counterexample_out)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run random scenarios against the simulator, check the paper's invariants on the \
          event stream, and shrink any violation to a minimal counterexample with a replay \
          seed.")
    term

(* -- chaos --------------------------------------------------------------- *)

module Schedule = Secrep_chaos.Schedule
module Injector = Secrep_chaos.Injector
module Scenario = Secrep_check.Scenario
module Harness = Secrep_check.Harness

let chaos_default_invariants =
  [
    "availability";
    "recovery-convergence";
    "no-false-accusation";
    "staleness";
    "write-spacing";
  ]

let read_schedule_file path =
  let ic = try open_in path with Sys_error msg -> fail "%s" msg in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  match Schedule.parse text with
  | Ok schedule -> schedule
  | Error msg -> fail "%s: %s" path msg

(* K = 1 chaos: a scripted or seeded-random slave/master/network
   schedule through the injector.  Returns the counterexample text. *)
let chaos_single sim system topo work config ~schedule_file ~intensity ~settle =
  let schedule =
    match schedule_file with
    | Some path -> read_schedule_file path
    | None ->
      Schedule.random
        ~rng:(Prng.create ~seed:(Int64.of_int (topo.seed + 2)))
        ~duration:work.duration ~n_slaves:(System.n_slaves system) ~n_masters:topo.masters
        ~n_clients:topo.clients ~intensity ()
  in
  (try Injector.apply system schedule with Invalid_argument msg -> fail "%s" msg);
  let driver = drive_single sim work in
  let last_entry = List.fold_left (fun acc e -> Float.max acc e.Schedule.time) 0.0 schedule in
  System.run_for system (settle last_entry);
  let stats = System.stats system in
  let s = Driver.summary driver in
  Printf.printf "chaos run: seed %d, %d scheduled action(s) over %.1fs\n" topo.seed
    (List.length schedule) work.duration;
  List.iter
    (fun e -> Printf.printf "    at %g %s\n" e.Schedule.time (Schedule.describe e.Schedule.action))
    (Schedule.sort schedule);
  Printf.printf "  applied %d action(s), skipped %d no-op(s)\n"
    (Stats.get stats "chaos.actions")
    (Stats.get stats "chaos.skipped_actions");
  Printf.printf "  reads: %d completed (accepted %d, by-master %d, gave up %d)\n"
    s.Driver.reads_completed s.Driver.reads_accepted s.Driver.served_by_master
    s.Driver.reads_gave_up;
  Printf.printf "  resilience: %d timeout(s), %d degraded master read(s), breakers opened \
                 %d / closed %d\n"
    (Stats.get stats "client.read_timeouts")
    (Stats.get stats "client.degraded_reads")
    (Stats.get stats "client.breaker_opened")
    (Stats.get stats "client.breaker_closed");
  Printf.printf "  churn: %d crash(es), %d recover(ies); auditor overload drops %d\n"
    (Stats.get stats "system.slave_crashes")
    (Stats.get stats "system.slave_recoveries")
    (Stats.get stats "auditor.overload_drops");
  Printf.printf "  exclusions: [%s]\n" (excluded_ids ~sep:"; " system);
  fun violation ->
    Printf.sprintf
      "chaos counterexample\nseed: %d\nduration: %g\ntopology: %d masters x %d slaves, %d \
       clients, %d items\nmax_latency: %g keepalive: %g\nviolation: %s\n\nschedule:\n%s"
      topo.seed work.duration topo.masters topo.slaves_per_master topo.clients topo.items
      config.Config.max_latency config.Config.keepalive_period violation
      (Schedule.to_string schedule)

(* K > 1 chaos: seeded-random host windows over the shared pool.  A
   crashed (state wiped, re-homed after the provisioning delay) or cut
   (links only) host takes down every co-located replica at once — the
   cross-shard blast radius a per-slave schedule cannot express. *)
let chaos_sharded sim d topo work ~intensity ~settle =
  let pool = Deployment.pool_size d in
  let crng = Prng.create ~seed:(Int64.of_int (topo.seed + 2)) in
  let n_windows = max 1 (int_of_float (intensity *. work.duration /. 30.0)) in
  let windows =
    List.init n_windows (fun _ ->
        let host = Prng.int crng pool in
        let kind = if Prng.bool crng then `Crash else `Cut in
        let at = 5.0 +. (Prng.float crng *. Float.max 1.0 (work.duration -. 25.0)) in
        let outage = 2.0 +. (Prng.float crng *. 13.0) in
        (host, kind, at, outage))
  in
  List.iter
    (fun (host, kind, at, outage) ->
      match kind with
      | `Crash ->
        Deployment.crash_host d ~at host;
        Deployment.recover_host d ~at:(at +. outage) host
      | `Cut ->
        Deployment.cut_host d ~at host;
        Deployment.heal_host d ~at:(at +. outage) host)
    windows;
  let t = drive_cross sim d ~clients:topo.clients work in
  let last_heal =
    List.fold_left (fun acc (_, _, at, outage) -> Float.max acc (at +. outage)) 0.0 windows
  in
  Deployment.run_until d (settle last_heal);
  Printf.printf "sharded chaos run: seed %d, %d shard(s) over %d host(s), %d window(s)\n"
    topo.seed topo.shards pool (List.length windows);
  List.iter
    (fun (host, kind, at, outage) ->
      Printf.printf "    at %.1f %s host %d for %.1fs\n" at
        (match kind with `Crash -> "crash" | `Cut -> "cut")
        host outage)
    (List.sort (fun (_, _, a, _) (_, _, b, _) -> Float.compare a b) windows);
  Array.iteri
    (fun i sys ->
      Printf.printf "  shard %d: %d read(s) issued, %d gave up; excluded [%s]\n" i
        t.issued.(i) t.gave_up.(i) (excluded_ids ~sep:"; " sys))
    sim.systems;
  fun violations ->
    Printf.sprintf
      "sharded chaos counterexample\nseed: %d\nshards: %d\nreplication: %d\nduration: \
       %g\nviolations:\n%s\n"
      topo.seed topo.shards topo.replication work.duration violations

let run_chaos topo work out config ~schedule_file ~intensity ~invariants ~counterexample_out =
  check_output ~shards:topo.shards ~sharded_slo:false out;
  if topo.shards > 1 && schedule_file <> None then
    fail
      "--schedule targets single-system slave/master ids; use seeded-random host-level \
       chaos with --shards > 1";
  let checkers =
    match
      Invariant.named (if invariants = [] then chaos_default_invariants else invariants)
    with
    | Ok checkers -> checkers
    | Error msg -> fail "%s" msg
  in
  (* Capture the live stream like the fuzz harness does: the trace ring
     may overwrite old records on long runs, subscribers see everything. *)
  let sim = start topo ~config ~out ~attach:(Array.map Harness.capture) () in
  (* Settle: every in-flight read must be able to exhaust its retry
     ladder and degraded fallback, and the last recovery needs
     max_latency to converge, before the invariants judge the trace. *)
  let settle last_chaos =
    Float.max work.duration last_chaos
    +. Harness.read_slack config
    +. (6.0 *. config.Config.max_latency)
    +. 60.0
  in
  let counterexample =
    match sim.plane with
    | Single system ->
      chaos_single sim system topo work config ~schedule_file ~intensity ~settle
    | Sharded d -> chaos_sharded sim d topo work ~intensity ~settle
  in
  (* Finalize before judging: finalize-time alerts land in the captured
     streams for the checkers. *)
  finish sim out ~print_report:true;
  (* Judge every shard against its own stream: the run injected no
     adversarial faults and no scenario ops, so [accepted] stays empty
     and the honest-run invariants apply in full. *)
  let scenario =
    {
      Scenario.sys_seed = topo.seed;
      n_shards = 1;
      n_masters = topo.masters;
      slaves_per_master = topo.slaves_per_master;
      n_clients = topo.clients;
      n_items = topo.items;
      max_latency = config.Config.max_latency;
      keepalive_period = config.Config.keepalive_period;
      double_check_p = config.Config.double_check_probability;
      audit = config.Config.audit_enabled;
      pledge_batch = config.Config.pledge_batch_size;
      read_nonces = config.Config.read_nonces;
      audit_adaptive = config.Config.audit_adaptive;
      net = Scenario.Wan;
      faults = [];
      chaos = [];
      ops = [];
    }
  in
  let violations =
    Invariant.check_shards checkers
      (List.map (fun c -> Harness.result c ~scenario ~config ~accepted:[]) (Array.to_list sim.attached))
  in
  match violations with
  | [] ->
    Printf.printf "invariants: %s — all held%s\n"
      (String.concat ", " (List.map (fun c -> c.Invariant.name) checkers))
      (if topo.shards > 1 then " on every shard" else "")
  | violations ->
    List.iter (fun msg -> Printf.printf "invariant VIOLATED: %s\n" msg) violations;
    Option.iter
      (fun path -> write_out path (counterexample (String.concat "\n" violations)))
      counterexample_out;
    exit 1

let chaos_cmd =
  let topology =
    topology_term ~clients:4 ~items:50 ~seed_doc:"Deterministic seed."
      ~shards_doc:
        "Content items in the deployment.  >1 switches to host-level chaos over a shared \
         pool: each window crashes or cuts a pool host, hitting every co-located \
         replica, and invariants are checked per shard.  --slo, --slo-out, \
         --lineage-out, --trace-capacity, --span-capacity, --trace-format chrome and \
         --schedule need a single system."
      ()
  in
  let workload =
    workload_term ~duration:120.0 ~duration_doc:"Chaos + workload window (sim seconds)."
      ~read_rate:5.0
  in
  let config = config_term ~max_latency:max_latency_arg ~keepalive:keepalive_arg () in
  let schedule_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"FILE"
          ~doc:
            "Scripted fault timeline ('at TIME ACTION' per line, see docs/ROBUSTNESS.md).  \
             Omit to draw a seeded-random schedule.")
  in
  let intensity =
    Arg.(
      value
      & opt float 1.0
      & info [ "intensity" ]
          ~doc:"Scale the density of a random schedule (ignored with --schedule).")
  in
  let invariants =
    Arg.(
      value
      & opt_all string []
      & info [ "invariant" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Only check invariant $(docv).  Repeatable; default: %s.  Known: %s."
               (String.concat ", " chaos_default_invariants)
               (String.concat ", " (List.map (fun c -> c.Invariant.name) Invariant.all))))
  in
  let counterexample_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "counterexample-out" ] ~docv:"FILE"
          ~doc:
            "On violation, write seed, schedule and violation to $(docv) ('-' = stdout) so \
             the run can be replayed.")
  in
  let term =
    Term.(
      const
        (fun topo work config schedule_file intensity invariants counterexample_out out ->
          run_chaos topo work out config ~schedule_file ~intensity ~invariants
            ~counterexample_out)
      $ topology $ workload $ config $ schedule_file $ intensity $ invariants
      $ counterexample_out $ output_term ~metrics:false)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a workload under a fault timeline — partitions, crash/recover churn, loss \
          bursts, latency spikes — and check the resilience invariants on the event \
          stream.  Scripted (--schedule) or seeded-random; both replay exactly from the \
          same inputs.")
    term

(* -- attack campaign ----------------------------------------------------

   [campaign] runs one seeded simulation per lie mode — the legacy
   blunt liars plus the strategic adversaries — with the hardening
   knobs on, and asserts each attack is neutralized (convicted,
   quarantined, rejected or suppressed) with zero false accusations
   anywhere.  CI runs this as the adversary smoke job. *)

let campaign_default_modes =
  [ "corrupt"; "stale"; "bad-signature"; "omit"; "collude:ring"; "replay";
    "equivocate:0"; "adaptive:1.5"; "flaky-omit:3" ]

type campaign_row = {
  c_mode : string;
  c_launched : int;
  c_suppressed : int;
  c_accused_at : float option;
  c_reads_before : int option;
  c_detect_latency : float option;
  c_quarantines : int;
  c_nonce_rejects : int;
  c_wrong : int;
  c_false : int list;  (** accused slaves other than the malicious one *)
  c_verdict : (unit, string) result;
}

let campaign_one ~mode topo work config ~lie_prob =
  (* Capture the live stream: the trace ring may wrap on long runs,
     subscribers see everything. *)
  let lineage = Lineage.create () in
  let sim =
    start topo ~config ~out:no_output
      ~attack:{ slave = 0; mode; probability = lie_prob; from_time = 0.0 }
      ~attach:(fun systems ->
        let events_rev = ref [] in
        Trace.on_emit (System.trace systems.(0)) (fun r ->
            Lineage.observe lineage r;
            events_rev := r :: !events_rev);
        events_rev)
      ()
  in
  let system = sim.systems.(0) in
  let driver = drive_single sim work in
  System.run_for system (settle_horizon ~config work);
  let events_rev = sim.attached in
  let read_nonces = config.Config.read_nonces in
  let audit_adaptive = config.Config.audit_adaptive in
  let stats = System.stats system in
  let s = Driver.summary driver in
  let launched = ref 0 and suppressed = ref 0 and quarantines = ref 0 in
  let accusations = ref [] in
  List.iter
    (fun r ->
      match r.Trace.event with
      | Event.Attack_launched { slave = 0; _ } -> incr launched
      | Event.Attack_suppressed { slave = 0; _ } -> incr suppressed
      | Event.Slave_quarantined { slave = 0; _ } -> incr quarantines
      | Event.Audit_conviction { slave; _ } | Event.Slave_excluded { slave; _ } ->
        accusations := (r.Trace.time, slave) :: !accusations
      | Event.Double_check { slave; outcome = Event.Mismatch; _ } ->
        accusations := (r.Trace.time, slave) :: !accusations
      | _ -> ())
    (List.rev !events_rev);
  let accused_at =
    List.fold_left
      (fun acc (t, sl) ->
        if sl <> 0 then acc
        else Some (match acc with None -> t | Some a -> Float.min a t))
      None !accusations
  in
  let false_acc =
    List.sort_uniq compare
      (List.filter_map (fun (_, sl) -> if sl <> 0 then Some sl else None) !accusations)
  in
  Lineage.finalize lineage;
  let row0 =
    List.find_opt
      (fun (r : Lineage.slave_row) -> r.Lineage.slave = 0)
      (Lineage.slave_rows lineage)
  in
  let get = Stats.get stats in
  let verdict =
    let family =
      match String.index_opt mode ':' with
      | Some i -> String.sub mode 0 i
      | None -> mode
    in
    match family with
    | "corrupt" | "equivocate" | "collude" ->
      if accused_at <> None then Ok ()
      else Error "expected an accusation (conviction / exclusion / DC mismatch)"
    | "stale" ->
      if get "client.stale_rejections" > 0 || accused_at <> None then Ok ()
      else Error "expected the freshness check to reject stale pledges"
    | "bad-signature" ->
      if get "client.pledge_rejected" > 0 then Ok ()
      else Error "expected pledge signature rejections"
    | "omit" | "flaky-omit" ->
      if get "client.read_timeouts" > 0 then Ok ()
      else Error "expected omission to surface as read timeouts"
    | "replay" | "replay-pledge" ->
      if not read_nonces then Ok () (* defense off: nothing to assert *)
      else if get "client.nonce_rejections" = 0 then
        Error "expected the nonce check to reject replayed pledges"
      else if audit_adaptive && !quarantines = 0 then
        Error "expected the adaptive auditor to quarantine the replaying slave"
      else Ok ()
    | "adaptive" ->
      if !launched = 0 || accused_at <> None || !quarantines > 0 then Ok ()
      else Error "expected the adaptive liar to be suppressed, quarantined or convicted"
    | _ ->
      if accused_at <> None then Ok ()
      else Error "expected an accusation of the malicious slave"
  in
  {
    c_mode = mode;
    c_launched = !launched;
    c_suppressed = !suppressed;
    c_accused_at = accused_at;
    c_reads_before = Option.bind row0 (fun r -> r.Lineage.reads_before_detection);
    c_detect_latency = Option.bind row0 (fun r -> r.Lineage.detection_latency);
    c_quarantines = !quarantines;
    c_nonce_rejects = get "client.nonce_rejections";
    c_wrong = s.Driver.accepted_wrong;
    c_false = false_acc;
    c_verdict = verdict;
  }

let json_of_campaign_row row =
  let open Export.Json in
  let opt_num = function Some x -> Num x | None -> Null in
  let opt_int = function Some x -> Int x | None -> Null in
  Obj
    [
      ("mode", Str row.c_mode);
      ("launched", Int row.c_launched);
      ("suppressed", Int row.c_suppressed);
      ("accused_at", opt_num row.c_accused_at);
      ("reads_before_detection", opt_int row.c_reads_before);
      ("detection_latency", opt_num row.c_detect_latency);
      ("quarantines", Int row.c_quarantines);
      ("nonce_rejections", Int row.c_nonce_rejects);
      ("wrong_accepts", Int row.c_wrong);
      ("false_accusations", Arr (List.map (fun s -> Int s) row.c_false));
      ("ok", Bool (row.c_verdict = Ok ()));
      ("why", match row.c_verdict with Ok () -> Null | Error m -> Str m);
    ]

let run_campaign topo work config ~lie_prob ~modes ~json_out =
  let modes = if modes = [] then campaign_default_modes else modes in
  (* Reject an unknown mode before spending time on any simulation. *)
  List.iter
    (fun m -> match lie_mode_of_string m with Ok _ -> () | Error msg -> fail "%s" msg)
    modes;
  Printf.printf "attack campaign: %d mode(s), seed %d, nonces=%b adaptive=%b\n"
    (List.length modes) topo.seed config.Config.read_nonces config.Config.audit_adaptive;
  let rows =
    List.mapi
      (fun i mode ->
        let row =
          campaign_one ~mode { topo with seed = topo.seed + (i * 7919) } work config ~lie_prob
        in
        Printf.printf "  %-16s launched %5d  suppressed %5d  accused-at %9s  \
                       reads-before %5s  quarantines %3d  %s\n"
          row.c_mode row.c_launched row.c_suppressed
          (match row.c_accused_at with Some t -> Printf.sprintf "%.1fs" t | None -> "-")
          (match row.c_reads_before with Some n -> string_of_int n | None -> "-")
          row.c_quarantines
          (match row.c_verdict with
          | Ok () -> "PASS"
          | Error why -> "FAIL: " ^ why);
        row)
      modes
  in
  (match json_out with
  | None -> ()
  | Some path ->
    write_out path
      (Export.Json.to_string (Export.Json.Arr (List.map json_of_campaign_row rows)) ^ "\n"));
  let failed = List.filter (fun r -> r.c_verdict <> Ok ()) rows in
  let falsely_accused = List.concat_map (fun r -> r.c_false) rows in
  if falsely_accused <> [] then
    Printf.printf "campaign: FALSE ACCUSATION of honest slave(s) [%s]\n"
      (String.concat "; " (List.map string_of_int (List.sort_uniq compare falsely_accused)));
  if failed = [] && falsely_accused = [] then
    Printf.printf "campaign: PASS (%d/%d attack modes neutralized, zero false accusations)\n"
      (List.length rows) (List.length rows)
  else begin
    Printf.printf "campaign: FAIL (%d/%d attack modes neutralized)\n"
      (List.length rows - List.length failed)
      (List.length rows);
    exit 1
  end

let campaign_cmd =
  let topology =
    topology_term ~clients:8 ~items:100
      ~seed_doc:"Deterministic seed; mode i runs at seed + 7919i." ()
  in
  let workload =
    workload_term ~duration:120.0 ~duration_doc:"Workload duration per mode (sim seconds)."
      ~read_rate:10.0
  in
  let config =
    config_term
      ~read_nonces:
        Arg.(
          value
          & opt bool true
          & info [ "read-nonces" ] ~doc:"Run with the pledge replay defense on (default true).")
      ~audit_adaptive:
        Arg.(
          value
          & opt bool true
          & info [ "audit-adaptive" ]
              ~doc:"Run with suspicion-weighted audit sampling on (default true).")
      ()
  in
  let lie_prob =
    Arg.(value & opt float 1.0 & info [ "lie-prob" ] ~doc:"Probability the slave lies per read.")
  in
  let modes =
    Arg.(
      value
      & opt_all string []
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            (Printf.sprintf
               "Attack mode to run (same grammar as run --lie-mode).  Repeatable; \
                default: %s."
               (String.concat ", " campaign_default_modes)))
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:"Write one JSON record per attack mode to $(docv) ('-' = stdout).")
  in
  let term =
    Term.(
      const (fun topo work config lie_prob modes json_out ->
          run_campaign topo work config ~lie_prob ~modes ~json_out)
      $ topology $ workload $ config $ lie_prob $ modes $ json_out)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Attack campaign: one seeded run per lie mode with the hardening knobs on, \
          asserting every attack is neutralized — convicted, quarantined, rejected or \
          suppressed — with zero false accusations.  Non-zero exit on any escape.")
    term

(* -- trace replay ------------------------------------------------------- *)

(* Feed each record of a JSONL dump ('-' = stdin) to [f] while [more ()]
   holds; malformed lines are reported on stderr and counted. *)
let iter_records ?(more = fun () -> true) file f =
  let ic = if file = "-" then stdin else try open_in file with Sys_error msg -> fail "%s" msg in
  let lineno = ref 0 in
  let errors = ref 0 in
  (try
     while more () do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then
         match Export.record_of_line line with
         | Error msg ->
           incr errors;
           Printf.eprintf "line %d: %s\n" !lineno msg
         | Ok r -> f r
     done
   with End_of_file -> ());
  if file <> "-" then close_in ic;
  !errors

let replay_trace ~file ~sources ~kinds ~limit =
  let matches_filter values value = values = [] || List.mem value values in
  let shown = ref 0 in
  let errors =
    iter_records file
      ~more:(fun () -> limit = 0 || !shown < limit)
      (fun r ->
        if matches_filter sources r.Trace.source && matches_filter kinds (Event.kind r.Trace.event)
        then begin
          incr shown;
          Printf.printf "%12.6f  %-12s %s\n" r.Trace.time r.Trace.source
            (Event.to_string r.Trace.event)
        end)
  in
  if errors > 0 then begin
    Printf.eprintf "%d malformed line(s)\n" errors;
    exit 1
  end

let trace_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace dump produced by run --trace-out ('-' = stdin).")
  in
  let sources =
    Arg.(
      value
      & opt_all string []
      & info [ "source" ] ~docv:"SOURCE"
          ~doc:
            "Only show events from $(docv) (e.g. master-0, slave-3, client-1, auditor, \
             system).  Repeatable.")
  in
  let kinds =
    Arg.(
      value
      & opt_all string []
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            (Printf.sprintf "Only show events of kind $(docv).  Repeatable.  Known kinds: %s."
               (String.concat ", " Event.all_kinds)))
  in
  let limit =
    Arg.(
      value
      & opt int 0
      & info [ "limit" ] ~docv:"N" ~doc:"Stop after printing $(docv) events (0 = no limit).")
  in
  let term =
    Term.(
      const (fun file sources kinds limit -> replay_trace ~file ~sources ~kinds ~limit)
      $ file $ sources $ kinds $ limit)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Replay a JSONL trace dump with optional source / event-kind filters.")
    term

(* -- offline monitor ---------------------------------------------------- *)

let run_monitor ~file ~max_latency ~audit ~window ~format ~lineage_out ~check =
  if format <> "text" && format <> "json" then
    fail "unknown format %S (expected text or json)" format;
  (match window with
  | Some w when not (w > 0.0) -> fail "--window must be a positive number of seconds, got %g" w
  | _ -> ());
  let config =
    Config.validate_exn { Config.default with Config.max_latency; audit_enabled = audit }
  in
  let slo = Slo.create ~config:(Slo.config ?window config) () in
  let lineage = Lineage.create () in
  let end_time = ref 0.0 in
  let errors =
    iter_records file (fun r ->
        end_time := Float.max !end_time r.Trace.time;
        Lineage.observe lineage r;
        Slo.observe slo r)
  in
  Slo.finalize slo ~now:!end_time;
  let health = Health.build ~slo ~lineage () in
  (match format with
  | "json" -> print_string (Export.Json.to_string (Health.to_json health) ^ "\n")
  | _ -> Format.printf "%a" Health.pp health);
  (match lineage_out with
  | None -> ()
  | Some path -> write_out path (Lineage.jsonl lineage));
  if errors > 0 then fail "%d malformed line(s)" errors;
  if check && health.Health.alerts <> [] then exit 1

let monitor_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"JSONL trace dump produced by run/chaos --trace-out ('-' = stdin).")
  in
  let max_latency =
    Arg.(
      value
      & opt float 5.0
      & info [ "max-latency" ]
          ~doc:"Freshness bound the trace ran under; SLO thresholds derive from it.")
  in
  let audit =
    Arg.(
      value
      & opt bool true
      & info [ "audit" ] ~doc:"Whether the trace ran with the auditor on.")
  in
  let window =
    Arg.(
      value
      & opt (some float) None
      & info [ "window" ] ~docv:"SECONDS"
          ~doc:"Rolling-window span for rate rules (default 6 x max-latency).")
  in
  let format =
    Arg.(
      value
      & opt string "text"
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output: $(b,text) (human health report) or $(b,json) (machine summary).")
  in
  let lineage_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "lineage-out" ] ~docv:"FILE"
          ~doc:"Also write per-request lineage records to $(docv) ('-' = stdout).")
  in
  let check =
    Arg.(
      value
      & flag
      & info [ "check" ] ~doc:"Exit 1 if any alert was raised (for CI gating).")
  in
  let term =
    Term.(
      const (fun file max_latency audit window format lineage_out check ->
          run_monitor ~file ~max_latency ~audit ~window ~format ~lineage_out ~check)
      $ file $ max_latency $ audit $ window $ format $ lineage_out $ check)
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Replay a JSONL trace through the causal-lineage and SLO monitors offline: \
          per-request lifecycle records, rule evaluation, and the end-of-run health \
          report, without re-running the simulation.")
    term

let () =
  let info =
    Cmd.info "secrep-sim" ~version:"1.0.0"
      ~doc:
        "Simulator for 'Secure Data Replication over Untrusted Hosts' (Popescu, Crispo, \
         Tanenbaum; HotOS 2003)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; fuzz_cmd; chaos_cmd; campaign_cmd; trace_cmd; monitor_cmd ]))
