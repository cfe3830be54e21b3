(* The repository benchmark: wall cost and allocation per simulated read
   on three workloads, plus a per-layer split from a separate traced
   run.  Everything here drives the simulator from outside, through the
   same public API the CLI and the experiments use; nothing is traced
   inside the libraries.  README.md in this directory documents the
   workloads, the metrics and how to run them. *)

module Prng = Secrep_crypto.Prng
module Sha1 = Secrep_crypto.Sha1
module Hex = Secrep_crypto.Hex
module Sig_scheme = Secrep_crypto.Sig_scheme
module Sim = Secrep_sim.Sim
module Trace = Secrep_sim.Trace
module Event = Secrep_sim.Event
module Stats = Secrep_sim.Stats
module Histogram = Secrep_sim.Histogram
module Query = Secrep_store.Query
module Query_eval = Secrep_store.Query_eval
module Canonical = Secrep_store.Canonical
module Store = Secrep_store.Store
module Oplog = Secrep_store.Oplog
module Config = Secrep_core.Config
module System = Secrep_core.System
module Client = Secrep_core.Client
module Master = Secrep_core.Master
module Slave = Secrep_core.Slave
module Pledge = Secrep_core.Pledge
module Fault = Secrep_core.Fault
module Auditor = Secrep_core.Auditor
module Corrective = Secrep_core.Corrective
module Catalog = Secrep_workload.Catalog
module Mix = Secrep_workload.Mix
module Cross = Secrep_workload.Cross
module Deployment = Secrep_shard.Deployment
module Slo = Secrep_monitor.Slo
module Lineage = Secrep_monitor.Lineage

(* -- workloads ----------------------------------------------------------- *)

type workload = Mixed_slo | Point_rsa_writes | Sharded_k16

let workloads =
  [
    ("mixed-slo", Mixed_slo);
    ("point-rsa-writes", Point_rsa_writes);
    ("sharded-k16", Sharded_k16);
  ]

let workload_of_name name = List.assoc_opt name workloads

let read_rate = function Mixed_slo | Point_rsa_writes -> 20.0 | Sharded_k16 -> 40.0

(* [Point_rsa_writes] runs at 75% of the one-commit-per-max_latency cap
   (0.2 writes/s at the default max_latency of 5 s). *)
let write_rate = function Mixed_slo | Sharded_k16 -> 0.05 | Point_rsa_writes -> 0.15

(* Simulated seconds of arrivals per episode; stepped 1 s at a time. *)
let default_window = 60.0

let n_shards = function Sharded_k16 -> 16 | Mixed_slo | Point_rsa_writes -> 1
let liar_shard = 0

let config = function
  | Mixed_slo | Sharded_k16 -> Config.default
  | Point_rsa_writes -> { Config.default with Config.scheme = Sig_scheme.Rsa { bits = 512 } }

let point_only = { Mix.point = 1.0; range = 0.0; grep = 0.0; aggregate = 0.0 }

(* Each episode of a run gets its own inputs, derived from the run seed. *)
let episode_seed ~seed ~episode = (seed * 7919) + (episode * 104729) + 1

(* -- the arrival schedule ------------------------------------------------ *)

type read_arrival = { at : float; shard : int; client : int; query : Query.t }
type write_arrival = { w_at : float; w_shard : int; op : Oplog.op }

(* Poisson arrivals over the window from [Cross] (one shard for the
   single-content workloads), queries and writes from each shard's own
   [Mix]; every draw happens here, before the simulation starts, in
   time order. *)
let schedule wl ~seed ~window ~keys =
  let g = Prng.create ~seed:(Int64.of_int (seed + 1)) in
  let weights = match wl with Point_rsa_writes -> point_only | _ -> Mix.default_weights in
  let mixes = Array.map (fun keys -> Mix.create ~rng:(Prng.split g) ~keys ~weights ()) keys in
  let k = Array.length keys in
  let pick_client = Prng.split g in
  let n_clients = match wl with Sharded_k16 -> 2 | _ -> 8 in
  let cross =
    match wl with
    | Sharded_k16 ->
      Cross.create ~rng:(Prng.split g) ~n_shards:k ~s:1.0 ~rotate_period:(window /. 4.0) ()
    | _ -> Cross.create ~rng:(Prng.split g) ~n_shards:1 ()
  in
  let reads =
    List.map
      (fun (at, shard) ->
        let client = Prng.int pick_client n_clients in
        { at; shard; client; query = Mix.next_query mixes.(shard) })
      (Cross.arrivals cross ~rate:(read_rate wl) ~duration:window)
  in
  let wcross = Cross.create ~rng:(Prng.split g) ~n_shards:k () in
  let writes =
    List.map
      (fun (w_at, w_shard) -> { w_at; w_shard; op = Mix.next_write mixes.(w_shard) })
      (Cross.arrivals wcross ~rate:(write_rate wl) ~duration:window)
  in
  (Array.of_list reads, Array.of_list writes)

(* -- statistics ---------------------------------------------------------- *)

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile values p =
  match values with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list values in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median values = percentile values 50.0
let per x n = if n = 0 then 0.0 else x /. float_of_int n

(* -- machine speed ---------------------------------------------------------- *)

(* On a shared host the speed of the CPU changes from one second to the
   next with what other tenants run: a fixed loop was seen to take
   anywhere between 1x and 2x its quiet time, and for minutes on end.
   Every wall time the benchmark reports is therefore charged at the
   host's speed of the moment: it is scaled by [yardstick_s] over the
   time of [yardstick], a fixed piece of ordinary allocation-heavy OCaml
   work that calls nothing in the libraries, run right after the timed
   span.  On a quiet reference box the factor is about 1; a slower or
   busier host moves the yardstick and the span alike. *)
let yardstick_s = 0.00024

let yardstick_keys = Array.init 256 (Printf.sprintf "key-%d")

let yardstick_kernel () =
  let l = List.init 1000 (fun i -> float_of_int ((i * 7919) mod 1009)) in
  ignore (Sys.opaque_identity (List.sort Float.compare l));
  let h = Hashtbl.create 64 in
  for i = 0 to 499 do
    Hashtbl.replace h yardstick_keys.(i land 255) (string_of_int i)
  done;
  let b = Buffer.create 64 in
  for i = 0 to 299 do
    Buffer.add_string b (string_of_int i)
  done;
  ignore (Sys.opaque_identity (Buffer.contents b))

(* Times the host: the kernel runs once to warm up and once timed, so
   the program's cache footprint does not reach the yardstick's time.
   The caller has just run [Gc.minor] inside its own timed span, so the
   yardstick starts on an empty minor heap and the program's garbage is
   collected on the program's clock, not the yardstick's. *)
let yardstick () =
  yardstick_kernel ();
  let t0 = Unix.gettimeofday () in
  yardstick_kernel ();
  Unix.gettimeofday () -. t0

(* [f ()] with its wall time charged at the host's current speed. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  Gc.minor ();
  let t = Unix.gettimeofday () -. t0 in
  (x, t *. yardstick_s /. yardstick ())

(* -- one episode --------------------------------------------------------- *)

(* Per-shard outcome tallies.  In the parallel deployment each shard's
   callbacks run on that shard's worker domain, so every record is
   written by one domain only. *)
type tally = {
  mutable issued : int;
  mutable completed : int;
  mutable accepted : int;  (** accepted from a slave: the oracle checks these *)
  mutable gave_up : int;
  mutable latencies : float list;
  mutable w_committed : int;
  mutable w_denied : int;
  mutable w_latencies : float list;
  mutable accepted_reads : (Query.t * int) list;  (** query and version; traced runs only *)
  mutable pledges : Pledge.t list;  (** traced runs only *)
  mutable records : Trace.record list;  (** traced runs without a monitor only *)
  mutable digest : Sha1.ctx option;
}

let new_tally () =
  {
    issued = 0;
    completed = 0;
    accepted = 0;
    gave_up = 0;
    latencies = [];
    w_committed = 0;
    w_denied = 0;
    w_latencies = [];
    accepted_reads = [];
    pledges = [];
    records = [];
    digest = None;
  }

type mode =
  | Plain  (** what the end-to-end metrics time *)
  | Digest  (** plain plus an event-stream digest *)
  | Traced  (** digest plus every per-layer probe *)

type monitor_probe = {
  mutable mon_s : float;
  mutable mon_words : float;
  mutable mon_events : int;
  mutable depth : int;
}

type episode = {
  wl : workload;
  window : float;
  systems : System.t array;
  deployment : Deployment.t option;
  reads : read_arrival array;
  writes : write_arrival array;
  tallies : tally array;
  monitor : (Slo.t * Lineage.t) option;
  probe : monitor_probe;
  traced : bool;
  mutable liar : int option;  (** the lying slave of shard [liar_shard] *)
  mutable scale : float;  (** host-speed factor of its run: charged over wall seconds *)
  mutable merged : int;
}

let digest_line (r : Trace.record) =
  Printf.sprintf "%.9f|%s|%s\n" r.Trace.time r.Trace.source (Event.to_string r.Trace.event)

let attach_monitor system ~config ~probe ~timed =
  let slo = Slo.create ~trace:(System.trace system) ~config:(Slo.config config) () in
  let lineage = Lineage.create () in
  let observe r =
    Lineage.observe lineage r;
    Slo.observe slo r
  in
  (* The SLO engine emits alerts from inside [observe]; those nested
     deliveries are counted as events but timed by the outermost call. *)
  let timed_observe r =
    probe.mon_events <- probe.mon_events + 1;
    if probe.depth > 0 then observe r
    else begin
      probe.depth <- 1;
      let w0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      observe r;
      probe.mon_s <- probe.mon_s +. (Unix.gettimeofday () -. t0);
      probe.mon_words <- probe.mon_words +. (Gc.minor_words () -. w0);
      probe.depth <- 0
    end
  in
  Trace.on_emit (System.trace system) (if timed then timed_observe else observe);
  (slo, lineage)

let sim_of ep shard = System.sim ep.systems.(shard)

let issue_read ep r =
  let t = ep.tallies.(r.shard) in
  t.issued <- t.issued + 1;
  let on_done (report : Client.read_report) =
    t.completed <- t.completed + 1;
    t.latencies <- report.Client.latency :: t.latencies;
    match report.Client.outcome with
    | `Accepted _ ->
      t.accepted <- t.accepted + 1;
      if ep.traced then t.accepted_reads <- (r.query, report.Client.version) :: t.accepted_reads
    | `Served_by_master _ -> ()
    | `Gave_up -> t.gave_up <- t.gave_up + 1
  in
  match ep.deployment with
  | Some d -> Deployment.read d ~shard:r.shard ~client:r.client r.query ~on_done
  | None -> System.read ep.systems.(0) ~client:r.client r.query ~on_done

let issue_write ep w =
  let t = ep.tallies.(w.w_shard) in
  let sim = sim_of ep w.w_shard in
  let start = Sim.now sim in
  let on_done = function
    | Master.Committed _ ->
      t.w_committed <- t.w_committed + 1;
      t.w_latencies <- (Sim.now sim -. start) :: t.w_latencies
    | Master.Denied _ -> t.w_denied <- t.w_denied + 1
  in
  match ep.deployment with
  | Some d -> Deployment.write d ~shard:w.w_shard ~client:0 w.op ~on_done
  | None -> System.write ep.systems.(0) ~client:0 w.op ~on_done

let at_time ep ~shard ~time f =
  match ep.deployment with
  | Some d -> Deployment.schedule d ~shard ~time f
  | None -> ignore (Sim.schedule_at (sim_of ep 0) ~time f)

(* Set-up: system or deployment creation (key generation included),
   content load, fault injection, monitor attachment and arrival
   scheduling.  This is what [setup_s] times. *)
let setup ?(window = default_window) wl ~seed ~mode =
  let config = config wl in
  let k = n_shards wl in
  let systems, deployment, keys =
    match wl with
    | Sharded_k16 ->
      let d =
        Deployment.create ~n_shards:k ~n_masters:1 ~replication_factor:3 ~n_clients:2 ~config
          ~seed:(Int64.of_int seed) ~items_per_shard:100 ~slice:1.0 ~domains:2 ()
      in
      (* one mid-run host crash, as in E14; the liar is set below *)
      let victim = (Deployment.hosts_of_shard d 1).(0) in
      Deployment.crash_host d ~at:(window /. 2.0) victim;
      Deployment.recover_host d ~at:((window /. 2.0) +. 10.0) victim;
      (Array.init k (Deployment.system d), Some d, Array.init k (Deployment.keys d))
    | Mixed_slo | Point_rsa_writes ->
      let system =
        System.create ~n_masters:2 ~slaves_per_master:3 ~n_clients:8 ~config
          ~seed:(Int64.of_int seed) ()
      in
      let content = Catalog.product_catalog (Prng.create ~seed:(Int64.of_int seed)) ~n:300 in
      System.load_content system content;
      ([| system |], None, [| Array.of_list (List.map fst content) |])
  in
  let probe = { mon_s = 0.0; mon_words = 0.0; mon_events = 0; depth = 0 } in
  let monitor =
    match wl with
    | Mixed_slo -> Some (attach_monitor systems.(0) ~config ~probe ~timed:(mode = Traced))
    | Point_rsa_writes | Sharded_k16 -> None
  in
  let tallies = Array.init k (fun _ -> new_tally ()) in
  if mode <> Plain then
    Array.iteri
      (fun i sys ->
        let ctx = Sha1.init () in
        tallies.(i).digest <- Some ctx;
        Trace.on_emit (System.trace sys) (fun r -> Sha1.feed ctx (digest_line r)))
      systems;
  let reads, writes = schedule wl ~seed ~window ~keys in
  let ep =
    {
      wl;
      window;
      systems;
      deployment;
      reads;
      writes;
      tallies;
      monitor;
      probe;
      traced = mode = Traced;
      liar = None;
      scale = 1.0;
      merged = 0;
    }
  in
  if mode = Traced then begin
    Array.iteri
      (fun i sys ->
        System.on_pledge_submitted sys (fun p -> tallies.(i).pledges <- p :: tallies.(i).pledges);
        if monitor = None then
          Trace.on_emit (System.trace sys) (fun r ->
              tallies.(i).records <- r :: tallies.(i).records))
      systems;
    match deployment with
    | Some d -> Deployment.on_event d (fun ~shard:_ _ -> ep.merged <- ep.merged + 1)
    | None -> ()
  end;
  if wl = Sharded_k16 then
    (* One liar, as in E14: the slave client 0 of the shard attached to
       once the setup phase has run, so it is sure to serve reads. *)
    at_time ep ~shard:liar_shard ~time:4.0 (fun () ->
        let sys = systems.(liar_shard) in
        let liar = System.slave_of_client sys 0 in
        ep.liar <- Some liar;
        System.set_slave_behavior sys ~slave:liar
          (Fault.Malicious { probability = 1.0; mode = Fault.Corrupt_result; from_time = 5.0 }));
  Array.iter (fun r -> at_time ep ~shard:r.shard ~time:r.at (fun () -> issue_read ep r)) reads;
  Array.iter
    (fun w -> at_time ep ~shard:w.w_shard ~time:w.w_at (fun () -> issue_write ep w))
    writes;
  ep

let advance ep time =
  match ep.deployment with
  | Some d -> Deployment.run_until d time
  | None -> System.run_until ep.systems.(0) time

let sum_tallies ep f = Array.fold_left (fun acc t -> acc + f t) 0 ep.tallies

let audit_backlog ep =
  Array.fold_left
    (fun acc sys ->
      List.fold_left (fun acc a -> acc + Auditor.backlog a) acc (System.auditors sys))
    0 ep.systems

let drained ep =
  sum_tallies ep (fun t -> t.issued) = Array.length ep.reads
  && sum_tallies ep (fun t -> t.completed) = Array.length ep.reads
  && sum_tallies ep (fun t -> t.w_committed + t.w_denied) = Array.length ep.writes
  && audit_backlog ep = 0

(* Reads retry for at most (retry_limit + 2) timeouts plus backoff;
   writes queue at one commit per max_latency.  Past this the episode
   stops even if something is still outstanding, and the output checks
   report it. *)
let max_drain wl =
  let c = config wl in
  (float_of_int (c.Config.read_retry_limit + 2)
   *. ((c.Config.read_timeout_factor *. c.Config.max_latency) +. c.Config.retry_backoff_cap))
  +. (float_of_int (int_of_float (write_rate wl *. default_window) + 10) *. c.Config.max_latency)

type run_result = {
  steps : float array;  (** seconds per 1-s simulated step of the arrival window *)
  drain_s : float;  (** seconds of the drain after the window *)
  raw_s : float;  (** the same span in plain wall seconds *)
  words : float;  (** minor words allocated over both, every domain *)
}

let run_s r = Array.fold_left ( +. ) r.drain_s r.steps

(* The timed part: the arrival window in 1-simulated-second steps, then
   the drain until every read and write has answered and the auditors
   are idle.  Each call into the simulator is followed by a probe;
   [words] counts the calls only. *)
let run ep =
  let n = int_of_float ep.window in
  let steps = Array.make n 0.0 in
  (* [Gc.minor_words] is exact but counts the calling domain only;
     [Gc.quick_stat] sums every domain, the joined workers exactly and
     the calling one as of its last minor collection *)
  let minor_words () =
    match ep.deployment with
    | Some d when Deployment.domains d > 1 -> (Gc.quick_stat ()).Gc.minor_words
    | _ -> Gc.minor_words ()
  in
  let raw_s = ref 0.0 and words = ref 0.0 in
  (* the host's speed is read as the median of the last few yardsticks,
     so one caught by an interrupt does not rescale its step *)
  let recent = Array.make 9 nan and next = ref 0 in
  let step time =
    let w0 = minor_words () in
    let t0 = Unix.gettimeofday () in
    advance ep time;
    Gc.minor ();
    let t = Unix.gettimeofday () -. t0 in
    (* read after [run_until] returned: parallel workers are joined, so
       their allocation is folded into the totals *)
    words := !words +. (minor_words () -. w0);
    recent.(!next mod Array.length recent) <- yardstick ();
    incr next;
    raw_s := !raw_s +. t;
    t *. yardstick_s /. median (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list recent))
  in
  for k = 1 to n do
    steps.(k - 1) <- step (float_of_int k)
  done;
  let limit = ep.window +. max_drain ep.wl in
  let t = ref ep.window and drain_s = ref 0.0 in
  while (not (drained ep)) && !t < limit do
    t := !t +. 1.0;
    drain_s := !drain_s +. step !t
  done;
  let r = { steps; drain_s = !drain_s; raw_s = !raw_s; words = !words } in
  ep.scale <- run_s r /. !raw_s;
  r

let event_digest ep =
  let parts =
    Array.to_list
      (Array.map
         (fun t -> match t.digest with Some ctx -> Hex.encode (Sha1.finalize ctx) | None -> "-")
         ep.tallies)
  in
  Hex.encode (Sha1.digest (String.concat "," parts))

(* -- output checks ------------------------------------------------------- *)

let excluded sys = Corrective.excluded (System.corrective sys)

let stat_sum ep name =
  Array.fold_left (fun acc sys -> acc + Stats.get (System.stats sys) name) 0 ep.systems

(* Returns the violated checks; empty when the episode is correct. *)
let check ep =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let n_reads = Array.length ep.reads in
  let issued = sum_tallies ep (fun t -> t.issued) in
  let completed = sum_tallies ep (fun t -> t.completed) in
  if issued <> n_reads then fail "%d of %d scheduled reads were issued" issued n_reads;
  if completed <> issued then
    fail "%d of %d issued reads never answered" (issued - completed) issued;
  let client_issued = stat_sum ep "client.reads_issued" in
  if client_issued <> issued then
    fail "clients counted %d reads issued, the benchmark issued %d" client_issued issued;
  (match ep.wl with
  | Mixed_slo | Point_rsa_writes ->
    let wrong = stat_sum ep "system.accepted_wrong" in
    if wrong > 0 then fail "honest workload accepted %d wrong result(s)" wrong;
    Array.iter
      (fun sys ->
        match excluded sys with
        | [] -> ()
        | l ->
          fail "honest workload excluded slave(s) [%s]"
            (String.concat ";" (List.map string_of_int l)))
      ep.systems
  | Sharded_k16 ->
    Array.iteri
      (fun i sys ->
        let want = if i = liar_shard then Option.to_list ep.liar else [] in
        let got = List.sort_uniq compare (excluded sys) in
        if got <> want then
          fail "shard %d excluded [%s], expected [%s]" i
            (String.concat ";" (List.map string_of_int got))
            (String.concat ";" (List.map string_of_int want)))
      ep.systems);
  List.rev !errs

(* -- per-episode figures ------------------------------------------------- *)

type counts = {
  reads : int;  (** reads that answered *)
  ops : int;  (** reads and writes attempted *)
  failed : int;  (** gave-up or unanswered reads, denied or uncommitted writes *)
  oracle_checks : int;  (** slave-accepted reads, each re-executed on the ground-truth oracle *)
  latencies : float list;  (** simulated read latency, seconds *)
  w_latencies : float list;  (** simulated write commit latency, seconds *)
  signs : int;
  verifies : int;
  evals : int;  (** slave, master and auditor query evaluations *)
  reexecs : int;
  cache_hits : int;
  retries : int;
  double_checks : int;
  events : int;
  trace_records : int;
  bytes : int;
  rehomes : int;
}

let counts ep =
  let hist_count name =
    Array.fold_left
      (fun acc sys -> acc + Histogram.count (Stats.histogram (System.stats sys) name))
      0 ep.systems
  in
  let all_sys f = Array.fold_left (fun acc sys -> acc + f sys) 0 ep.systems in
  let n_reads = Array.length ep.reads and n_writes = Array.length ep.writes in
  let completed = sum_tallies ep (fun t -> t.completed) in
  let gave_up = sum_tallies ep (fun t -> t.gave_up) in
  let committed = sum_tallies ep (fun t -> t.w_committed) in
  {
    reads = completed;
    ops = n_reads + n_writes;
    failed = gave_up + (n_reads - completed) + (n_writes - committed);
    oracle_checks = sum_tallies ep (fun t -> t.accepted);
    latencies =
      Array.fold_left (fun acc (t : tally) -> List.rev_append t.latencies acc) [] ep.tallies;
    w_latencies =
      Array.fold_left (fun acc (t : tally) -> List.rev_append t.w_latencies acc) [] ep.tallies;
    signs = hist_count "span.sign";
    (* a client check verifies the slave's signature and the master's
       keep-alive signature; the auditor re-verifies the slave's *)
    verifies = (2 * hist_count "span.verify") + stat_sum ep "auditor.audited";
    evals =
      stat_sum ep "slave.reads_served"
      + stat_sum ep "master.double_checks_served"
      + stat_sum ep "auditor.reexecutions";
    reexecs = stat_sum ep "auditor.reexecutions";
    cache_hits = stat_sum ep "auditor.cache_hits";
    retries = stat_sum ep "client.read_retries";
    double_checks = stat_sum ep "client.double_checks";
    events = all_sys (fun sys -> Sim.executed_events (System.sim sys));
    trace_records = all_sys (fun sys -> Trace.total_logged (System.trace sys));
    bytes =
      all_sys (fun sys ->
          List.fold_left
            (fun acc (name, v) ->
              if String.ends_with ~suffix:"_bytes" name then acc + v else acc)
            0
            (Stats.counters (System.stats sys)));
    rehomes =
      (match ep.deployment with
      | Some d -> Trace.count_kind (Deployment.trace d) ~kind:"shard_rebalanced"
      | None -> 0);
  }

let add_counts a b =
  {
    reads = a.reads + b.reads;
    ops = a.ops + b.ops;
    failed = a.failed + b.failed;
    oracle_checks = a.oracle_checks + b.oracle_checks;
    latencies = List.rev_append a.latencies b.latencies;
    w_latencies = List.rev_append a.w_latencies b.w_latencies;
    signs = a.signs + b.signs;
    verifies = a.verifies + b.verifies;
    evals = a.evals + b.evals;
    reexecs = a.reexecs + b.reexecs;
    cache_hits = a.cache_hits + b.cache_hits;
    retries = a.retries + b.retries;
    double_checks = a.double_checks + b.double_checks;
    events = a.events + b.events;
    trace_records = a.trace_records + b.trace_records;
    bytes = a.bytes + b.bytes;
    rehomes = a.rehomes + b.rehomes;
  }

(* -- a measured run ------------------------------------------------------ *)

(* A run's work is fixed by its seed and its length: [--seconds] buys
   [seconds / (nominal * repeats)] episodes, each run [repeats] times,
   where [nominal] is what one run of an episode (set-up included) took
   on the reference 2-core box.  Every figure is then taken over the same
   inputs on every commit, and every simulated figure is a pure function
   of the arguments. *)
let nominal_episode_s = function Mixed_slo -> 2.0 | Point_rsa_writes -> 1.4 | Sharded_k16 -> 1.2

let repeats = 3

let episodes_for wl ~seconds =
  max 1 (int_of_float (Float.round (seconds /. (nominal_episode_s wl *. float_of_int repeats))))

(* [setup_s] is the median of at least this many set-ups, or of as many
   as fit in [setup_budget_s]; the extra ones are discarded without
   running. *)
let setups_for_median = 25
let setup_budget_s = 1.0

type measured = {
  setup_s : float list;
  episode_steps : float list list;  (** per episode, seconds per step (median repeat) *)
  episode_latencies : float list list;  (** per episode, simulated read latencies *)
  run_s : float;  (** summed over every episode *)
  slowdown : float;  (** wall over charged seconds, over every run of every episode *)
  words : float;  (** summed over every episode *)
  all : counts;  (** summed over every episode *)
  errors : string list;
  eps : episode list;  (** oldest first; kept unless [mode = Plain] *)
}

let zero_counts =
  {
    reads = 0;
    ops = 0;
    failed = 0;
    oracle_checks = 0;
    latencies = [];
    w_latencies = [];
    signs = 0;
    verifies = 0;
    evals = 0;
    reexecs = 0;
    cache_hits = 0;
    retries = 0;
    double_checks = 0;
    events = 0;
    trace_records = 0;
    bytes = 0;
    rehomes = 0;
  }

let finish_monitor ep =
  match ep.monitor with
  | Some (slo, lineage) ->
    Slo.finalize slo ~now:(Sim.now (sim_of ep 0));
    Lineage.finalize lineage
  | None -> ()

let timed_setup ?window wl ~seed ~mode = timed (fun () -> setup ?window wl ~seed ~mode)

(* The repeats of one episode so far. *)
type repeats_of = {
  kept : episode option;  (** the first repeat, kept unless [mode = Plain] for its probes *)
  first : counts;  (** of the first repeat; every later one must equal it *)
  runs : run_result list;  (** newest first *)
  errors_of : string list;
}

(* Per step, and for the drain, the median over the repeats. *)
let median_run runs =
  let steps =
    Array.mapi (fun k _ -> median (List.map (fun r -> r.steps.(k)) runs)) (List.hd runs).steps
  in
  Array.fold_left ( +. ) (median (List.map (fun r -> r.drain_s) runs)) steps, steps

(* Runs episodes [0 .. episodes - 1] in [repeats] passes, each episode
   once per pass and once per mode in [modes], and returns one result
   per mode.  Repeats of an episode do identical work, so each step and
   the drain are charged the median of their repeats, which a burst of
   outside interference in one repeat cannot move; a pass between two
   repeats spreads them out in time.  [min_setups] adds set-ups,
   discarded without running, until [setup_s] has that many samples or
   they took [setup_budget_s]. *)
let measure ?window ?(repeats = repeats) ?(min_setups = 0) wl ~seed ~episodes ~modes =
  let n_modes = List.length modes in
  let reps = Array.make_matrix n_modes episodes None in
  let setups = Array.make n_modes [] in
  let raw = ref 0.0 and charged = ref 0.0 in
  for _ = 1 to repeats do
    for e = 0 to episodes - 1 do
      List.iteri
        (fun m mode ->
          let s = episode_seed ~seed ~episode:e in
          let ep, setup_s = timed_setup ?window wl ~seed:s ~mode in
          let r = run ep in
          finish_monitor ep;
          raw := !raw +. r.raw_s;
          charged := !charged +. run_s r;
          setups.(m) <- setup_s :: setups.(m);
          let c = counts ep in
          let tag = List.map (Printf.sprintf "episode %d (seed %d): %s" e s) in
          reps.(m).(e) <-
            Some
              (match reps.(m).(e) with
              | None ->
                {
                  kept = (if mode = Plain then None else Some ep);
                  first = c;
                  runs = [ r ];
                  errors_of = tag (check ep);
                }
              | Some x ->
                {
                  x with
                  runs = r :: x.runs;
                  errors_of =
                    (x.errors_of
                    @ if c = x.first then [] else tag [ "repeats of the episode diverged" ]);
                }))
        modes
    done
  done;
  List.mapi
    (fun m mode ->
      let xs = Array.to_list (Array.map Option.get reps.(m)) in
      let setup_s = ref setups.(m) and e = ref episodes in
      while
        List.length !setup_s < min_setups && List.fold_left ( +. ) 0.0 !setup_s < setup_budget_s
      do
        let _, t = timed_setup ?window wl ~seed:(episode_seed ~seed ~episode:!e) ~mode in
        setup_s := t :: !setup_s;
        incr e
      done;
      let medians = List.map (fun x -> median_run x.runs) xs in
      {
        setup_s = !setup_s;
        episode_steps = List.map (fun (_, steps) -> Array.to_list steps) medians;
        episode_latencies = List.map (fun x -> x.first.latencies) xs;
        run_s = List.fold_left (fun acc (t, _) -> acc +. t) 0.0 medians;
        slowdown = !raw /. !charged;
        (* the latest repeat follows the process's one-time allocations *)
        words = List.fold_left (fun acc x -> acc +. (List.hd x.runs).words) 0.0 xs;
        all = List.fold_left (fun acc x -> add_counts acc x.first) zero_counts xs;
        errors = List.concat_map (fun x -> x.errors_of) xs;
        eps = List.filter_map (fun x -> x.kept) xs;
      })
    modes

type metric = { name : string; value : float; unit : string }

let us_per_read m = 1e6 *. per m.run_s m.all.reads

(* Percentiles are taken per episode and the run reports their median:
   an episode whose crash lands on the hot shard, or one stalled step,
   moves one sample, not the run's figure. *)
let per_episode samples p = median (List.map (fun l -> percentile l p) samples)

let end_to_end m =
  let words_per_read = per m.words m.all.reads in
  let st = Gc.quick_stat () in
  [
    { name = "us_per_read"; value = us_per_read m; unit = "us" };
    { name = "words_per_read"; value = words_per_read; unit = "words" };
    { name = "setup_s"; value = median m.setup_s; unit = "s" };
    {
      name = "peak_heap_mb";
      value = float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0;
      unit = "MB";
    };
    { name = "step_ms_p50"; value = 1e3 *. per_episode m.episode_steps 50.0; unit = "ms" };
    { name = "step_ms_p95"; value = 1e3 *. per_episode m.episode_steps 95.0; unit = "ms" };
    { name = "sim_read_p50_ms"; value = 1e3 *. per_episode m.episode_latencies 50.0; unit = "ms" };
    { name = "sim_read_p99_ms"; value = 1e3 *. per_episode m.episode_latencies 99.0; unit = "ms" };
    {
      name = "completed_share";
      value = 1.0 -. per (float_of_int m.all.failed) m.all.ops;
      unit = "ratio";
    };
  ]

(* -- per-layer replay ---------------------------------------------------- *)

(* Seconds (charged at the host's speed) and minor words of [f ()], the
   median of three runs: like the episode repeats, a replay is short
   enough for one burst of outside interference, or one slow yardstick,
   to distort it. *)
let time_loop f =
  let once () =
    let words = ref 0.0 in
    let (), t =
      timed (fun () ->
          let w0 = Gc.minor_words () in
          f ();
          words := Gc.minor_words () -. w0)
    in
    (t, !words)
  in
  let runs = List.init 3 (fun _ -> once ()) in
  (median (List.map fst runs), snd (List.nth runs 2))

let query_class = function
  | Query.Grep _ -> `Grep
  | Query.Aggregate _ -> `Aggregate
  | q when Query.is_point_read q -> `Point
  | Query.Select _ -> `Range

let class_name = function
  | `Point -> "point"
  | `Range -> "range"
  | `Grep -> "grep"
  | `Aggregate -> "aggregate"

let classes = [ `Point; `Range; `Grep; `Aggregate ]

let class_weights = function
  | `Point -> point_only
  | `Range -> { point_only with Mix.point = 0.0; range = 1.0 }
  | `Grep -> { point_only with Mix.point = 0.0; grep = 1.0 }
  | `Aggregate -> { point_only with Mix.point = 0.0; aggregate = 1.0 }

(* At most [cap] elements of [l], evenly spaced. *)
let sample cap l =
  let a = Array.of_list l in
  let n = Array.length a in
  if n <= cap then l
  else List.init cap (fun i -> a.(i * n / cap))

type class_cost = {
  eval_us : float;
  eval_words : float;
  digest_us : float;
  digest_words : float;
}

(* Replays up to 100 of the episode's queries of each class through
   [Query_eval.execute] on the issuing shard's own master store, and
   times [Canonical.result_digest] on the results.  A class the
   workload never issued is timed on a seeded sample drawn from shard
   0's keys, so every class reports a cost. *)
let store_replay ep ~seed =
  let store_of shard = Master.store (System.master ep.systems.(shard) 0) in
  let g = Prng.create ~seed:(Int64.of_int (seed + 7)) in
  List.map
    (fun cls ->
      let recorded =
        List.filter_map
          (fun r -> if query_class r.query = cls then Some (r.shard, r.query) else None)
          (Array.to_list ep.reads)
      in
      let qs =
        if recorded <> [] then sample 100 recorded
        else begin
          let keys = Array.of_list (Store.keys (store_of 0)) in
          let mix = Mix.create ~rng:(Prng.split g) ~keys ~weights:(class_weights cls) () in
          List.init 50 (fun _ -> (0, Mix.next_query mix))
        end
      in
      let n = List.length qs in
      let results = ref [] in
      let eval_s, eval_w =
        time_loop (fun () ->
            results := [];
            List.iter
              (fun (shard, q) ->
                match Query_eval.execute (store_of shard) q with
                | Ok o -> results := o.Query_eval.result :: !results
                | Error e -> failwith ("replayed query failed: " ^ e))
              qs)
      in
      let digest_s, digest_w =
        time_loop (fun () -> List.iter (fun r -> ignore (Canonical.result_digest r)) !results)
      in
      ( cls,
        {
          eval_us = 1e6 *. per eval_s n;
          eval_words = per eval_w n;
          digest_us = 1e6 *. per digest_s n;
          digest_words = per digest_w n;
        } ))
    classes

(* Store evaluations per query class over the traced episodes.  Slaves
   and double-checking masters evaluate in proportion to the issued mix
   and the oracle evaluates every slave-accepted read; the auditor's
   result cache lets it re-execute each (query, version) once, so its
   re-executions are split in proportion to the distinct accepted
   (shard, version, query) triples of each class. *)
let evals_by_class eps =
  let issued = Hashtbl.create 4 and accepted = Hashtbl.create 4 and distinct = Hashtbl.create 4 in
  let bump tbl c = Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c)) in
  let served = ref 0 and dc = ref 0 and reexecs = ref 0 in
  List.iter
    (fun ep ->
      served := !served + stat_sum ep "slave.reads_served";
      dc := !dc + stat_sum ep "master.double_checks_served";
      reexecs := !reexecs + stat_sum ep "auditor.reexecutions";
      Array.iter (fun r -> bump issued (query_class r.query)) ep.reads;
      let seen = Hashtbl.create 1024 in
      Array.iteri
        (fun shard t ->
          List.iter
            (fun (q, version) ->
              let c = query_class q in
              bump accepted c;
              let key = (shard, version, Query.to_string q) in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.add seen key ();
                bump distinct c
              end)
            t.accepted_reads)
        ep.tallies)
    eps;
  let count tbl c = float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl c)) in
  let total tbl = List.fold_left (fun acc c -> acc +. count tbl c) 0.0 classes in
  let share tbl c = if total tbl = 0.0 then 0.0 else count tbl c /. total tbl in
  List.map
    (fun c ->
      ( c,
        (float_of_int (!served + !dc) *. share issued c)
        +. count accepted c
        +. (float_of_int !reexecs *. share distinct c) ))
    classes

(* Times [Sig_scheme.sign] over the recorded pledges' signed payloads,
   with a fresh key of the workload's scheme, and
   [Pledge.verify_signature] against the serving slave's public key. *)
let crypto_replay ep ~seed =
  let pledges =
    sample 200
      (List.concat
         (Array.to_list (Array.mapi (fun i t -> List.map (fun p -> (i, p)) t.pledges) ep.tallies)))
  in
  let key =
    Sig_scheme.generate (config ep.wl).Config.scheme (Prng.create ~seed:(Int64.of_int seed))
  in
  let payloads = List.map (fun (_, p) -> Pledge.signed_payload p) pledges in
  let sign_s, _ =
    time_loop (fun () -> List.iter (fun m -> ignore (Sig_scheme.sign key m)) payloads)
  in
  let checks =
    List.map
      (fun (shard, p) -> (Slave.public (System.slave ep.systems.(shard) p.Pledge.slave_id), p))
      pledges
  in
  let verify_s, _ =
    time_loop (fun () ->
        List.iter (fun (pub, p) -> ignore (Pledge.verify_signature ~slave_public:pub p)) checks)
  in
  let n = List.length pledges in
  (1e6 *. per sign_s n, 1e6 *. per verify_s n)

(* What the monitor would cost on a workload that runs without one: the
   episode's recorded stream, shard by shard, through a fresh [Lineage]
   and [Slo]. *)
let monitor_replay ep =
  let config = Slo.config (config ep.wl) in
  Array.fold_left
    (fun (s, w, n) t ->
      let records = List.rev t.records in
      let ds, dw =
        time_loop (fun () ->
            let slo = Slo.create ~trace:(Trace.create ()) ~config () in
            let lineage = Lineage.create () in
            List.iter
              (fun r ->
                Lineage.observe lineage r;
                Slo.observe slo r)
              records)
      in
      (s +. ds, w +. dw, n + List.length records))
    (0.0, 0.0, 0) ep.tallies

let per_layer ~plain ~traced ~seed =
  let ep = List.hd traced.eps in
  let c = traced.all in
  let reads = c.reads in
  let pr x = per (float_of_int x) reads in
  let sign_us, verify_us = crypto_replay ep ~seed in
  let crypto_us = (pr c.signs *. sign_us) +. (pr c.verifies *. verify_us) in
  let costs = store_replay ep ~seed in
  let evals = evals_by_class traced.eps in
  let store_sum f =
    List.fold_left (fun acc (cls, n) -> acc +. (n *. f (List.assoc cls costs))) 0.0 evals
    /. float_of_int reads
  in
  (* every evaluation digests its result *)
  let store_us = store_sum (fun k -> k.eval_us +. k.digest_us) in
  let store_words = store_sum (fun k -> k.eval_words +. k.digest_words) in
  let evals_pr = List.fold_left (fun acc (_, n) -> acc +. n) 0.0 evals /. float_of_int reads in
  let mean_digest_us =
    store_sum (fun k -> k.digest_us) /. if evals_pr > 0.0 then evals_pr else 1.0
  in
  (* live figures where the monitor is attached, replayed ones elsewhere;
     only the live ones are part of the run's cost *)
  let live = ep.monitor <> None in
  let (mon_s, mon_words, mon_events), mon_reads =
    if live then
      ( List.fold_left
          (fun (s, w, n) ep ->
            (s +. (ep.probe.mon_s *. ep.scale), w +. ep.probe.mon_words, n + ep.probe.mon_events))
          (0.0, 0.0, 0) traced.eps,
        reads )
    else (monitor_replay ep, sum_tallies ep (fun t -> t.completed))
  in
  let monitor_us = 1e6 *. per mon_s mon_reads in
  let plain_us = us_per_read plain in
  let traced_us = us_per_read traced in
  let attributed = crypto_us +. store_us +. if live then monitor_us else 0.0 in
  let merged = List.fold_left (fun acc ep -> acc + ep.merged) 0 traced.eps in
  let m name value unit = { name; value; unit } in
  [
    m "crypto.sign_us" sign_us "us";
    m "crypto.verify_us" verify_us "us";
    m "crypto.signs_per_read" (pr c.signs) "count";
    m "crypto.verifies_per_read" (pr c.verifies) "count";
    m "crypto.us_per_read" crypto_us "us";
  ]
  @ List.map (fun (cls, k) -> m ("store.eval_us." ^ class_name cls) k.eval_us "us") costs
  @ [
      m "store.digest_us" mean_digest_us "us";
      m "store.evals_per_read" evals_pr "count";
      m "store.us_per_read" store_us "us";
      m "store.words_per_read" store_words "words";
      m "audit.reexecs_per_read" (pr c.reexecs) "count";
      m "audit.cache_hit_ratio"
        (per (float_of_int c.cache_hits) (c.cache_hits + c.reexecs))
        "ratio";
      m "monitor.us_per_read" monitor_us "us";
      m "monitor.ns_per_event" (1e9 *. per mon_s mon_events) "ns";
      m "monitor.words_per_read" (per mon_words mon_reads) "words";
      m "sim.events_per_read" (pr c.events) "count";
      m "sim.trace_records_per_read" (pr c.trace_records) "count";
      m "sim.bytes_per_read" (pr c.bytes) "bytes";
      m "sim.residual_us_per_read" (plain_us -. attributed) "us";
      m "core.retries_per_read" (pr c.retries) "count";
      m "core.double_checks_per_read" (pr c.double_checks) "count";
      m "broadcast.write_commit_ms_p50" (1e3 *. median c.w_latencies) "ms";
      m "shard.merged_records_per_read" (per (float_of_int merged) reads) "count";
      m "shard.rehomes" (float_of_int c.rehomes) "count";
      m "trace.overhead_pct" (100.0 *. ((traced_us /. plain_us) -. 1.0)) "%";
      m "host.slowdown" plain.slowdown "ratio";
      m "attributed_share" (attributed /. plain_us) "ratio";
    ]

(* -- the command --------------------------------------------------------- *)

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;
  errors : string list;
}

let bench ?window ?repeats wl ~seed ~seconds ~trace =
  if not trace then begin
    match
      measure ?window ?repeats ~min_setups:setups_for_median wl ~seed
        ~episodes:(episodes_for wl ~seconds) ~modes:[ Plain ]
    with
    | [ m ] ->
      { metrics = end_to_end m; attempted = m.all.ops; failed = m.all.failed; errors = m.errors }
    | _ -> assert false
  end
  else begin
    (* Half the budget runs without probes and half with them, over the
       same episodes, paired episode by episode so that a drift in
       machine speed moves both sides alike.  The first traced
       episode's event digest must equal the same episode run without
       probes but with the digest, or tracing perturbed the stream. *)
    match
      measure ?window ?repeats wl ~seed
        ~episodes:(episodes_for wl ~seconds:(seconds /. 2.0))
        ~modes:[ Plain; Traced ]
    with
    | [ plain; traced ] ->
      let reference =
        setup ?window wl ~seed:(episode_seed ~seed ~episode:0) ~mode:Digest
      in
      ignore (run reference);
      let digest_errors =
        let a = event_digest (List.hd traced.eps) and b = event_digest reference in
        if String.equal a b then []
        else [ Printf.sprintf "traced event digest %s differs from untraced %s" a b ]
      in
      {
        metrics = per_layer ~plain ~traced ~seed;
        attempted = plain.all.ops + traced.all.ops;
        failed = plain.all.failed + traced.all.failed;
        errors = plain.errors @ traced.errors @ check reference @ digest_errors;
      }
    | _ -> assert false
  end

let valid_name name =
  name <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name

let json_of_outcome o =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  let metrics =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value) m.unit)
      o.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.errors = []) o.attempted o.failed (String.concat ", " metrics)
