module System = Secrep_core.System
module Config = Secrep_core.Config
module Prng = Secrep_crypto.Prng
module Catalog = Secrep_workload.Catalog

let fprintf_row fmt ~widths cells =
  let padded =
    List.map2
      (fun w cell ->
        let len = String.length cell in
        if len >= w then cell else cell ^ String.make (w - len) ' ')
      widths cells
  in
  Format.fprintf fmt "| %s |@." (String.concat " | " padded)

let table fmt ~title ~header rows =
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map String.length header)
      rows
  in
  let total = List.fold_left ( + ) 0 widths + (3 * List.length widths) + 1 in
  Format.fprintf fmt "@.%s@.%s@." title (String.make total '-');
  fprintf_row fmt ~widths header;
  Format.fprintf fmt "%s@." (String.make total '-');
  List.iter (fprintf_row fmt ~widths) rows;
  Format.fprintf fmt "%s@." (String.make total '-')

let f2 v = Printf.sprintf "%.2f" v
let f3 v = Printf.sprintf "%.3f" v
let pct v = Printf.sprintf "%.1f%%" (100.0 *. v)

let base_config =
  {
    Config.default with
    Config.max_latency = 5.0;
    keepalive_period = 1.0;
    double_check_probability = 0.05;
    audit_lag_slack = 1.0;
  }

let build_system ?(config = base_config) ?(n_masters = 2) ?(slaves_per_master = 3)
    ?(n_clients = 6) ?(seed = 1L) ?(n_items = 200) ?client_max_latency () =
  let system =
    System.create ~n_masters ~slaves_per_master ~n_clients ~config ~seed
      ?client_max_latency ()
  in
  let g = Prng.create ~seed:(Int64.add seed 1000L) in
  let content = Catalog.product_catalog g ~n:n_items in
  System.load_content system content;
  (system, Array.of_list (List.map fst content))

let drain system ~extra = System.run_for system extra

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let quick_factor quick = if quick then 0.25 else 1.0

let json_dir = ref None

let write_json fmt ~experiment write =
  match !json_dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir (experiment ^ ".json") in
    let oc = open_out path in
    write oc;
    close_out oc;
    Format.fprintf fmt "wrote JSON summary to %s@." path

let failures = ref []

let gate fmt ~experiment verdicts =
  List.iter
    (fun (name, ok) ->
      let id = experiment ^ "/" ^ name in
      Format.fprintf fmt "gate %s: %s@." id (if ok then "pass" else "FAIL");
      if not ok then failures := id :: !failures)
    verdicts

let failed_gates () = List.rev !failures
