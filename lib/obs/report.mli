(** Run report: the rendered view of a {!Timeseries}.

    A report is the series' per-window cells and whole-run totals plus
    the detected saturation knee, rendered three ways: machine-readable
    JSON ({!to_json}), human-readable markdown ({!to_markdown}) and the
    [--metrics-out] snapshot JSONL ({!to_snapshot}).  The snapshot is
    the live path's artifact and a check, not a second source: [cloudtx
    report JOURNAL --metrics SNAPSHOT] compares its bytes with
    {!to_snapshot} of the journal replay's report — the online/offline
    agreement gate.

    {b Saturation-knee heuristic} (first cut, see DESIGN §8): the knee is
    the first window [i] with total-phase data such that its p99 is at
    least [1.5×] the minimum p99 over earlier windows with data, while
    throughput has flattened — the window finished at most [1.1×] the
    best earlier window's count.  [None] when no window qualifies
    (fewer than two windows with latency data, or latency never
    inflects). *)

type t = {
  width_ms : float;
  windows : Timeseries.cell list;
  totals : Timeseries.totals;
  knee : int option;  (** Window index of the detected saturation knee. *)
}

(** [make ~width_ms ~windows ~totals] assembles a report and runs the
    knee detector. *)
val make :
  width_ms:float -> windows:Timeseries.cell list -> totals:Timeseries.totals -> t

val of_timeseries : Timeseries.t -> t

(** Finished transactions per second in a window (commits + aborts over
    the window width). *)
val throughput : t -> Timeseries.cell -> float

(** Machine-readable report.  Contains nothing wall-clock- or
    path-dependent: two reports over the same series render the same
    bytes. *)
val to_json : t -> string

(** The windowed-metrics snapshot ([--metrics-out]): a header line
    [{"metrics":"cloudtx","version":V,"width_ms":W}], one line per
    window (dense), and a final [{"totals":{...}}] line.  Its window and
    totals fields are {!to_json}'s, minus the derived throughput. *)
val to_snapshot : t -> string

(** Rendered markdown: throughput curve, per-phase quantiles per window,
    commit/abort mix, staleness trajectory, alert overlay and the knee
    callout.  [alert_lines] (e.g. {!Slo.console_line} renderings, or raw
    alert-log records) are appended as an alert-timeline section when
    non-empty; [blame_lines] (a pre-rendered markdown blame section,
    e.g. [Cloudtx_core.Blame.to_markdown_lines]) follow it — the blame
    decomposition rides on the markdown view only, so {!to_json} and
    {!to_snapshot} stay pure functions of the series. *)
val to_markdown :
  ?alert_lines:string list -> ?blame_lines:string list -> t -> string
