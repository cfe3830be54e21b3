(** Shared plumbing for the experiment harness: table rendering,
    standard system builders and workload helpers. *)

val fprintf_row : Format.formatter -> widths:int list -> string list -> unit

val table :
  Format.formatter -> title:string -> header:string list -> string list list -> unit
(** Render an aligned ASCII table with a title line. *)

val f2 : float -> string
(** Two-decimal rendering. *)

val f3 : float -> string
val pct : float -> string
(** "12.3%". *)

val base_config : Secrep_core.Config.t
(** The configuration experiments start from: max_latency 5s,
    keep-alive 1s, p = 0.05, audit on. *)

val build_system :
  ?config:Secrep_core.Config.t ->
  ?n_masters:int ->
  ?slaves_per_master:int ->
  ?n_clients:int ->
  ?seed:int64 ->
  ?n_items:int ->
  ?client_max_latency:(int -> float option) ->
  unit ->
  Secrep_core.System.t * string array
(** A system pre-loaded with a product catalogue; returns the loaded
    keys for workload generation. *)

val drain : Secrep_core.System.t -> extra:float -> unit
(** Run the simulation for [extra] more virtual seconds. *)

val mean : float list -> float
val quick_factor : bool -> float
(** Scale factor for run lengths: 1.0 normally, smaller when --quick. *)

val json_dir : string option ref
(** Where experiments write their JSON summaries ([bench/main.exe --json
    DIR]); [None], the default, writes none. *)

val write_json : Format.formatter -> experiment:string -> (out_channel -> unit) -> unit
(** [write_json fmt ~experiment write] runs [write] on
    [DIR/<experiment>.json] and announces the path on [fmt]; a no-op
    without [--json]. *)

val gate : Format.formatter -> experiment:string -> (string * bool) list -> unit
(** [gate fmt ~experiment verdicts] prints each [(name, ok)] verdict as
    [gate <experiment>/<name>: pass|FAIL] and records the failures.
    An experiment judges its own gates here, after writing its JSON,
    and carries on; [bench/main.exe] exits 1 once every selected
    experiment has run if any gate failed. *)

val failed_gates : unit -> string list
(** The [experiment/name] of every failed gate so far, in order. *)
