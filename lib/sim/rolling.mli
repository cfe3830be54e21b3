(** Rolling-window aggregation over timestamped samples.

    The online SLO engine evaluates rules such as "p99 read latency
    over the last [window] seconds" incrementally from the live event
    stream.  Unlike {!Timeseries} (append-only, full history) a
    rolling window retains only the samples newer than
    [now - window].

    Beside the arrival-order queue the window keeps its values in one
    array sorted ascending under [Float.compare] (the order polymorphic
    [compare] gives floats: NaN below every other value).  With [W]
    samples retained, {!record} costs O(log W) for the binary search
    plus a memmove of up to [W] floats, and so does each eviction;
    {!percentile} is O(1).  {!sum} and {!mean} come from a running
    sum updated by each append and eviction.

    Time must be monotone, matching the simulator clock: feeding a
    sample (or {!advance}-ing) earlier than the latest time seen
    raises [Invalid_argument]. *)

type t

val create : window:float -> unit -> t
(** [window] is the retention horizon in seconds; must be positive
    (NaN is rejected too). *)

val window : t -> float

val record : t -> time:float -> float -> unit
(** Append a sample and evict everything older than [time - window]. *)

val advance : t -> now:float -> unit
(** Evict without appending: age the window to [now].  Used by purely
    time-driven rule checks between samples. *)

val count : t -> int
(** Samples currently retained. *)

val sum : t -> float

val mean : t -> float option
(** [None] on an empty window. *)

val percentile : t -> float -> float option
(** Nearest-rank percentile of the retained samples, e.g.
    [percentile t 99.0].  [None] on an empty window; raises
    [Invalid_argument] outside [0,100]. *)
