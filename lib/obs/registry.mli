(** Labeled metrics registry: counters, gauges and histograms.  A
    histogram is a bounded-memory {!Sketch}: its percentiles carry the
    sketch's relative error bound ({!Sketch.error_bound}) and its memory
    does not grow with the number of observations.

    A time series is identified by a metric name plus a label set such as
    [[("scheme", "deferred"); ("level", "view")]].  Label order does not
    matter — sets are canonicalised by sorting on the key.

    Zero cost when disabled: {!noop} drops every write in a single branch.
    Instrumentation that builds label lists dynamically must guard on
    {!enabled} so the disabled path allocates nothing. *)

type t

type labels = (string * string) list

(** Shared disabled registry; every write is a no-op. *)
val noop : t

val create : unit -> t
val enabled : t -> bool

(** {1 Writes} *)

val incr : ?by:int -> t -> string -> labels -> unit
val set_gauge : t -> string -> labels -> float -> unit
val observe : t -> string -> labels -> float -> unit

(** {1 Resolved cells}

    A write site on a hot path can resolve its series once and then
    write the cell directly; the series and every export are exactly
    what {!incr} and {!set_gauge} would produce.  Resolving creates the
    series (at 0), so resolve a cell at its first write, after checking
    {!enabled}: on a disabled registry the cell is detached and its
    writes go nowhere. *)

type counter
type gauge

(** @raise Invalid_argument if the series exists with another type. *)
val counter_cell : t -> string -> labels -> counter

val incr_cell : counter -> unit

(** @raise Invalid_argument if the series exists with another type. *)
val gauge_cell : t -> string -> labels -> gauge

val set_cell : gauge -> float -> unit

(** {1 Reads} *)

(** Counter value for an exact label set; 0 when absent. *)
val counter : t -> string -> labels -> int

(** Sum of a counter over every label set it was written with. *)
val counter_total : t -> string -> int

val gauge : t -> string -> labels -> float option
val histogram : t -> string -> labels -> Sketch.t option

(** Every series as [(name, canonical labels, cell)], sorted by name then
    labels. *)
val series :
  t ->
  (string * labels * [ `Counter of int | `Gauge of float | `Histogram of Sketch.t ])
  list

(** {1 Snapshots} *)

(** Rows for [Cloudtx_metrics.Table.render] with headers
    [metric | labels | count | value/mean | p50 | p95 | p99]. *)
val to_rows : t -> string list list

(** JSON snapshot: an array of series objects with [metric], [labels] and
    either [value] (counter/gauge) or [count]/[mean]/[min]/[max]/
    [p50]/[p95]/[p99]/[buckets] (histogram).  [buckets] are the
    sketch's non-empty bins ({!Sketch.bins}), each with its own count. *)
val to_json : t -> string

(** Prometheus text exposition format (0.0.4): [# HELP] / [# TYPE] lines
    per metric, histograms as cumulative [_bucket] series plus [_sum] and
    [_count].  The [le] bounds are the upper edges of the sketch's
    non-empty bins ({!Sketch.bins}; non-positive values report [le="0"]).
    Bins are lower-inclusive, so a value exactly on an edge counts toward
    the next [le], not the one it equals.  [_sum] is the exact running
    sum.  Metric and label names are sanitised to the Prometheus charset
    (dots become underscores); label values are escaped. *)
val to_prometheus : t -> string
