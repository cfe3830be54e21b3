(* Tests of the benchmark itself: seeded inputs, deterministic
   simulated figures, and metric names that match BENCHMARK.json.
   Episodes here are 10 or 20 simulated seconds so the suite stays
   quick. *)

open Perfbench

let window = 20.0
let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let schedule_of wl ~seed =
  let ep = setup ~window wl ~seed ~mode:Plain in
  ( Array.to_list
      (Array.map (fun r -> (r.at, r.shard, r.client, Query.to_string r.query)) ep.reads),
    Array.to_list (Array.map (fun w -> (w.w_at, w.w_shard, w.op)) ep.writes) )

let test_schedules () =
  List.iter
    (fun (name, wl) ->
      let a = schedule_of wl ~seed:11 and b = schedule_of wl ~seed:11 in
      let c = schedule_of wl ~seed:12 in
      check (name ^ ": same seed, same arrival schedule") (a = b);
      check (name ^ ": schedule is not empty") (fst a <> []);
      check (name ^ ": another seed, another schedule") (fst a <> fst c))
    workloads

(* Wall times aside, one episode is a pure function of its seed.
   Allocation is read from an episode's last repeat, after the
   process's one-time allocations, and with parallel domains it is
   sampled, not exact, so it is compared on one domain only. *)
let test_determinism () =
  List.iter
    (fun (name, wl) ->
      let run () = List.hd (measure ~window ~repeats:2 wl ~seed:5 ~episodes:1 ~modes:[ Plain ]) in
      let a = run () in
      let b = run () in
      check (name ^ ": output checks pass") (a.errors = [] && b.errors = []);
      check (name ^ ": same seed, same counts and simulated latencies") (a.all = b.all);
      if n_shards wl = 1 then check (name ^ ": same seed, same words_per_read") (a.words = b.words);
      let sim m =
        List.filter
          (fun (x : metric) ->
            List.mem x.name [ "sim_read_p50_ms"; "sim_read_p99_ms"; "completed_share" ])
          (end_to_end m)
      in
      check (name ^ ": same seed, same sim_* and completed_share") (sim a = sim b))
    workloads

(* The "name" values of one section of BENCHMARK.json, in order. *)
let declared_names section =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = sub then Some i
      else go (i + 1)
    in
    go i
  in
  let start = Option.get (find_from 0 (Printf.sprintf "%S" section)) in
  let stop = Option.get (find_from start "]") in
  let rec names i acc =
    match find_from i "\"name\"" with
    | Some j when j < stop ->
      let q1 = String.index_from text (j + 6) '"' in
      let q2 = String.index_from text (q1 + 1) '"' in
      names q2 (String.sub text (q1 + 1) (q2 - q1 - 1) :: acc)
    | _ -> List.rev acc
  in
  names start []

let test_names () =
  let e2e = declared_names "end_to_end" and layers = declared_names "per_layer" in
  check "BENCHMARK.json declares metrics" (e2e <> [] && layers <> []);
  List.iter
    (fun (name, wl) ->
      List.iter
        (fun (trace, declared) ->
          let o = bench ~window:10.0 ~repeats:1 wl ~seed:3 ~seconds:1.0 ~trace in
          let names = List.map (fun (m : metric) -> m.name) o.metrics in
          let label = Printf.sprintf "%s --trace %d" name (if trace then 1 else 0) in
          check (label ^ ": every name is well formed") (List.for_all valid_name names);
          check (label ^ ": names are unique")
            (List.length (List.sort_uniq compare names) = List.length names);
          check (label ^ ": emits exactly the declared metrics")
            (List.sort compare names = List.sort compare declared);
          check (label ^ ": every value is finite")
            (List.for_all (fun (m : metric) -> Float.is_finite m.value) o.metrics))
        [ (false, e2e); (true, layers) ])
    workloads

let () =
  test_schedules ();
  test_determinism ();
  test_names ();
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end
