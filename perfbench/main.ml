(* Command line of the repository benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints one human-readable line per metric, then, as the last line,
   one JSON object with the keys correct, attempted, failed and metrics.
   Exits 1 when an output check fails, 2 on bad arguments. *)

let usage () =
  Printf.eprintf
    "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1\n"
    (String.concat "|" (List.map fst Perfbench.workloads));
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Perfbench.workload_of_name v;
      if !workload = None then usage ();
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      if !seed = None then usage ();
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := v = "1";
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed) with
  | Some wl, Some seed ->
    let o = Perfbench.bench wl ~seed ~seconds:!seconds ~trace:!trace in
    List.iter
      (fun (m : Perfbench.metric) -> Printf.printf "%-32s %14.4f %s\n" m.name m.value m.unit)
      o.metrics;
    List.iter (Printf.eprintf "check failed: %s\n") o.errors;
    print_endline (Perfbench.json_of_outcome o);
    exit (if o.errors = [] then 0 else 1)
  | _ -> usage ()
