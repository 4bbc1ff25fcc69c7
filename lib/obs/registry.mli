(** Labeled metrics registry: counters, gauges and histograms
    ({!Histogram} — exact percentiles by default, or bounded-memory
    sketches when created with the [Sketch] backend).

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

(** [create ()] — [histogram] selects the storage backend for every
    histogram this registry creates: {!Histogram.Exact} (default, exact
    percentiles, O(n) memory) or {!Histogram.Sketch} (bounded-memory
    log-linear sketch for big runs). *)
val create : ?histogram:Histogram.backend -> unit -> t

val enabled : t -> bool

(** The backend new histograms are created with. *)
val histogram_backend : t -> Histogram.backend

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
val histogram : t -> string -> labels -> Histogram.t option

(** Every series as [(name, canonical labels, cell)], sorted by name then
    labels. *)
val series :
  t ->
  (string * labels * [ `Counter of int | `Gauge of float | `Histogram of Histogram.t ])
  list

(** {1 Snapshots} *)

(** Rows for {!Cloudtx_metrics.Table.render} with headers
    [metric | labels | count | value/mean | p50 | p95 | p99]. *)
val to_rows : t -> string list list

(** JSON snapshot: an array of series objects with [metric], [labels] and
    either [value] (counter/gauge) or [count]/[mean]/[min]/[max]/
    [p50]/[p95]/[p99]/[buckets] (histogram). *)
val to_json : t -> string

(** Prometheus text exposition format (0.0.4): [# HELP] / [# TYPE] lines
    per metric, histograms as cumulative [_bucket] series plus [_sum] and
    [_count].  Metric and label names are sanitised to the Prometheus
    charset (dots become underscores); label values are escaped. *)
val to_prometheus : t -> string
