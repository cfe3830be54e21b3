module System = Secrep_core.System
module Config = Secrep_core.Config
module Fault = Secrep_core.Fault
module Sim = Secrep_sim.Sim
module Trace = Secrep_sim.Trace
module Prng = Secrep_crypto.Prng
module Catalog = Secrep_workload.Catalog
module Schedule = Secrep_chaos.Schedule
module Injector = Secrep_chaos.Injector
module Query = Secrep_store.Query
module Oplog = Secrep_store.Oplog
module Value = Secrep_store.Value
module Canonical = Secrep_store.Canonical
module Slo = Secrep_monitor.Slo

type accepted_read = {
  time : float;
  client : int;
  slave : int;
  version : int;
  wrong : bool;
}

type run_result = {
  scenario : Scenario.t;
  config : Config.t;
  events : Trace.record list;
  accepted : accepted_read list;
  end_time : float;
  pledges : Secrep_core.Pledge.t list;
  reexec : version:int -> Query.t -> string option;
  slave_public : int -> Secrep_crypto.Sig_scheme.public option;
  slo : Slo.t Lazy.t;
}

let net_profile = function
  | Scenario.Lan -> System.lan_net
  | Scenario.Wan -> System.default_net
  | Scenario.Lossy p -> { System.lan_net with System.loss = p }

(* Each scenario chaos window expands to a disrupt/heal entry pair. *)
let schedule_of_chaos chaos =
  let window from_time until disrupt heal =
    [ { Schedule.time = from_time; action = disrupt }; { Schedule.time = until; action = heal } ]
  in
  List.concat_map
    (function
      | Scenario.Slave_cut { slave; from_time; outage } ->
        window from_time (from_time +. outage) (Schedule.Cut_slave slave)
          (Schedule.Heal_slave slave)
      | Scenario.Slave_churn { slave; from_time; outage } ->
        window from_time (from_time +. outage) (Schedule.Crash_slave slave)
          (Schedule.Recover_slave slave)
      | Scenario.Master_cut { master; from_time; outage } ->
        window from_time (from_time +. outage) (Schedule.Cut_master master)
          (Schedule.Heal_master master)
      | Scenario.Auditor_cut { from_time; outage } ->
        window from_time (from_time +. outage) Schedule.Cut_auditor Schedule.Heal_auditor
      | Scenario.Loss_burst { loss; from_time; duration } ->
        window from_time (from_time +. duration) (Schedule.Loss_burst loss) Schedule.Loss_normal
      | Scenario.Latency_spike { factor; from_time; duration } ->
        window from_time (from_time +. duration) (Schedule.Latency_spike factor)
          Schedule.Latency_normal)
    chaos

let config_of_scenario s =
  Config.validate_exn
    {
      Config.default with
      Config.max_latency = s.Scenario.max_latency;
      keepalive_period = s.Scenario.keepalive_period;
      double_check_probability = s.Scenario.double_check_p;
      audit_enabled = s.Scenario.audit;
      pledge_batch_size = s.Scenario.pledge_batch;
      read_nonces = s.Scenario.read_nonces;
      audit_adaptive = s.Scenario.audit_adaptive;
    }

(* Capture the live stream: the ring in [System.trace] may overwrite
   old records, subscribers see everything.  Pledges are recorded in
   the order the auditor side receives them: the differential-audit
   invariant replays this exact stream through both offline drivers. *)
type capture = {
  system : System.t;
  mutable events_rev : Trace.record list;
  mutable pledges_rev : Secrep_core.Pledge.t list;
}

let capture system =
  let c = { system; events_rev = []; pledges_rev = [] } in
  Trace.on_emit (System.trace system) (fun r -> c.events_rev <- r :: c.events_rev);
  System.on_pledge_submitted system (fun p -> c.pledges_rev <- p :: c.pledges_rev);
  c

let fold_slo config events ~end_time =
  let slo = Slo.create ~config:(Slo.config config) () in
  List.iter (Slo.observe slo) events;
  Slo.finalize slo ~now:end_time;
  slo

let result c ~scenario ~config ~accepted =
  let system = c.system in
  let events = List.rev c.events_rev and end_time = Sim.now (System.sim system) in
  {
    scenario;
    config;
    events;
    accepted;
    end_time;
    pledges = List.rev c.pledges_rev;
    reexec = (fun ~version query -> System.reexec_digest system ~version query);
    slave_public =
      (fun slave_id ->
        if slave_id >= 0 && slave_id < System.n_slaves system then
          Some (Secrep_core.Slave.public (System.slave system slave_id))
        else None);
    slo = lazy (fold_slo config events ~end_time);
  }

(* Worst case for one read to settle: (retry_limit + 2) timeouts plus
   backoff, then the degraded master fallback. *)
let read_slack config =
  float_of_int (config.Config.read_retry_limit + 2)
  *. ((config.Config.read_timeout_factor *. config.Config.max_latency)
     +. config.Config.retry_backoff_cap)

(* Run well past the last scheduled op: masters space commits by
   max_latency, so the write backlog alone can take
   (n_writes + 1) * max_latency to drain; then leave the auditor its
   lag slack plus a settling margin for retries and exclusions.  Every
   read must also be able to exhaust its retry ladder, so the
   availability invariant can demand an answer for each issued read.
   Chaos windows extend the horizon too: a recovery at the last heal
   still needs max_latency to converge. *)
let horizon config s =
  let max_latency = s.Scenario.max_latency in
  let last_op =
    List.fold_left (fun acc op -> Float.max acc (Scenario.op_time op)) 0.0 s.Scenario.ops
  in
  let last_heal =
    List.fold_left (fun acc c -> Float.max acc (Scenario.chaos_end c)) 0.0 s.Scenario.chaos
  in
  let n_writes =
    List.length
      (List.filter (function Scenario.Write _ -> true | Scenario.Read _ -> false) s.Scenario.ops)
  in
  Float.max last_op (last_heal +. (2.0 *. max_latency))
  +. (float_of_int (n_writes + 2) *. max_latency)
  +. config.Config.audit_lag_slack
  +. (10.0 *. max_latency)
  +. read_slack config +. 30.0

let op_key = function Scenario.Read { key; _ } | Scenario.Write { key; _ } -> key

(* One execution over a shard array: [systems] is a bare system (K = 1)
   or the K systems of a deployment.  Ops route to shard [key mod K]
   (the key indexes that shard's own catalogue) and faults to shard
   [slave mod K]; with K = 1 both are the identity.  Only construction,
   [load] (content keys per shard), [arm_chaos] and [run_until] are
   supplied per case, and the step order is the contract: subscribe,
   load, faults, chaos, ops. *)
let execute s ~config ~systems ~load ~arm_chaos ~run_until =
  let k = Array.length systems in
  let captures = Array.map capture systems in
  let keys = load () in
  List.iter
    (fun (f : Scenario.fault) ->
      System.set_slave_behavior
        systems.(f.Scenario.slave mod k)
        ~slave:f.Scenario.slave
        (Fault.Malicious
           {
             probability = f.Scenario.probability;
             mode = f.Scenario.mode;
             from_time = f.Scenario.from_time;
           }))
    s.Scenario.faults;
  arm_chaos ();
  let accepted_rev = Array.make k [] in
  List.iteri
    (fun idx op ->
      let shard = op_key op mod k in
      let sys = systems.(shard) in
      let sim = System.sim sys in
      match op with
      | Scenario.Read { client; key; at } ->
        let query = Query.point_read keys.(shard).(key) in
        ignore
          (Sim.schedule_at sim ~time:at (fun () ->
               System.read sys ~client query ~on_done:(fun report ->
                   match report.Secrep_core.Client.outcome with
                   | `Accepted result ->
                     let slave =
                       match report.Secrep_core.Client.served_by with
                       | Some slave -> slave
                       | None -> -1
                     in
                     let version = report.Secrep_core.Client.version in
                     let wrong =
                       match
                         System.check_result sys ~version query
                           ~digest:(Canonical.result_digest result)
                       with
                       | Some ok -> not ok
                       | None -> false
                     in
                     accepted_rev.(shard) <-
                       { time = Sim.now sim; client; slave; version; wrong }
                       :: accepted_rev.(shard)
                   | `Served_by_master _ | `Gave_up -> ())))
      | Scenario.Write { client; key; at } ->
        let op =
          Oplog.Set_field
            { key = keys.(shard).(key); field = "stock"; value = Value.Int (1000 + idx) }
        in
        ignore
          (Sim.schedule_at sim ~time:at (fun () ->
               System.write sys ~client op ~on_done:(fun _ack -> ()))))
    s.Scenario.ops;
  run_until (horizon config s);
  (* Each shard is judged against the slice of the scenario it actually
     saw: its own faults and ops.  Chaos stays global. *)
  List.init k (fun i ->
      let scenario =
        {
          s with
          Scenario.faults =
            List.filter (fun (f : Scenario.fault) -> f.Scenario.slave mod k = i) s.Scenario.faults;
          ops = List.filter (fun op -> op_key op mod k = i) s.Scenario.ops;
        }
      in
      result captures.(i) ~scenario ~config ~accepted:(List.rev accepted_rev.(i)))

let run scenario =
  let s = Scenario.normalize scenario in
  let config = config_of_scenario s in
  let system =
    System.create ~n_masters:s.Scenario.n_masters
      ~slaves_per_master:s.Scenario.slaves_per_master ~n_clients:s.Scenario.n_clients
      ~config ~net:(net_profile s.Scenario.net)
      ~seed:(Int64.of_int s.Scenario.sys_seed)
      ()
  in
  let load () =
    let content =
      Catalog.product_catalog
        (Prng.create ~seed:(Int64.of_int ((2 * s.Scenario.sys_seed) + 1)))
        ~n:s.Scenario.n_items
    in
    System.load_content system content;
    [| Array.of_list (List.map fst content) |]
  in
  List.hd
    (execute s ~config ~systems:[| system |] ~load
       ~arm_chaos:(fun () -> Injector.apply system (schedule_of_chaos s.Scenario.chaos))
       ~run_until:(System.run_until system))

(* -- sharded execution -------------------------------------------------

   With [n_shards > 1] the scenario runs on a [Secrep_shard.Deployment]:
   K unmodified single-content instances over a shared host pool,
   advanced in lockstep.  Chaos windows become cross-shard: slave cuts
   and churn act on pool *hosts* (every co-located replica is hit),
   auditor cuts and network degradation hit every shard. *)

module Deployment = Secrep_shard.Deployment

let arm_deployment_chaos d chaos =
  let k = Deployment.n_shards d in
  let pool = Deployment.pool_size d in
  (* Schedule [f] on shard [i] at [from_time] and [g] when the window ends. *)
  let window i ~from_time ~until f g =
    let sys = Deployment.system d i in
    Deployment.schedule d ~shard:i ~time:from_time (fun () -> f sys);
    Deployment.schedule d ~shard:i ~time:until (fun () -> g sys)
  in
  let every_shard ~from_time ~until f g =
    for i = 0 to k - 1 do
      window i ~from_time ~until f g
    done
  in
  List.iter
    (function
      | Scenario.Slave_cut { slave; from_time; outage } ->
        let host = slave mod pool in
        Deployment.cut_host d ~at:from_time host;
        Deployment.heal_host d ~at:(from_time +. outage) host
      | Scenario.Slave_churn { slave; from_time; outage } ->
        let host = slave mod pool in
        Deployment.crash_host d ~at:from_time host;
        Deployment.recover_host d ~at:(from_time +. outage) host
      | Scenario.Master_cut { master; from_time; outage } ->
        window (master mod k) ~from_time ~until:(from_time +. outage)
          (fun sys -> System.set_master_connectivity sys ~master_id:master ~up:false)
          (fun sys -> System.set_master_connectivity sys ~master_id:master ~up:true)
      | Scenario.Auditor_cut { from_time; outage } ->
        every_shard ~from_time ~until:(from_time +. outage)
          (fun sys -> System.set_auditor_connectivity sys ~up:false)
          (fun sys -> System.set_auditor_connectivity sys ~up:true)
      | Scenario.Loss_burst { loss; from_time; duration } ->
        every_shard ~from_time ~until:(from_time +. duration)
          (fun sys -> System.set_loss sys (Some loss))
          (fun sys -> System.set_loss sys None)
      | Scenario.Latency_spike { factor; from_time; duration } ->
        every_shard ~from_time ~until:(from_time +. duration)
          (fun sys -> System.set_latency_factor sys factor)
          (fun sys -> System.set_latency_factor sys 1.0))
    chaos

let run_sharded ?domains scenario =
  let s = Scenario.normalize scenario in
  let k = s.Scenario.n_shards in
  if k <= 1 then [ run scenario ]
  else begin
    let config = config_of_scenario s in
    let d =
      Deployment.create ~n_shards:k ~n_masters:s.Scenario.n_masters
        ~replication_factor:(s.Scenario.n_masters * s.Scenario.slaves_per_master)
        ~n_clients:s.Scenario.n_clients ~config ~net:(net_profile s.Scenario.net)
        ~seed:(Int64.of_int s.Scenario.sys_seed)
        ~items_per_shard:s.Scenario.n_items ?domains ()
    in
    (* Deployment.create loaded each shard's catalogue already, before
       the per-shard capture subscribed. *)
    execute s ~config
      ~systems:(Array.init k (Deployment.system d))
      ~load:(fun () -> Array.init k (Deployment.keys d))
      ~arm_chaos:(fun () -> arm_deployment_chaos d s.Scenario.chaos)
      ~run_until:(Deployment.run_until d)
  end

let events_digest result = Trace.digest result.events
