(** Building {!Cloudtx_obs.Report}s from files.

    [Obs] owns the report and its renderings but cannot parse JSON (the
    parser lives in [Cloudtx_policy.Json], above it in the dependency
    order), so the file-facing constructors live here.  A report has one
    source, the journal: {!of_journal} replays a flight-recorder journal
    (either format) through {!Health} into a fresh monitor and
    {!Cloudtx_obs.Timeseries}.  A [--metrics-out] snapshot is never read
    back: [cloudtx report JOURNAL --metrics SNAPSHOT] compares its bytes
    with {!Cloudtx_obs.Report.to_snapshot} of the replay. *)

(** [of_journal path] — [rules] (default {!Cloudtx_obs.Slo.default})
    drive the Watchtower evaluation whose alert transitions land in the
    report's per-window gauges; [width_ms] is the window width (default
    100 ms).  Returns the report and the monitor (for alert rendering
    and exit-code gates). *)
val of_journal :
  ?rules:Cloudtx_obs.Slo.rules ->
  ?width_ms:float ->
  string ->
  (Cloudtx_obs.Report.t * Cloudtx_obs.Monitor.t, string) result

(** Alert-timeline lines for {!Cloudtx_obs.Report.to_markdown}: one
    human-readable line per transition record of an [--alerts-out]
    JSONL file (header skipped). *)
val alert_lines_of_file : string -> (string list, string) result

(** The same timeline for a monitor: its {!Cloudtx_obs.Monitor.console_lines},
    the lines [watch] prints, in the order they were emitted. *)
val alert_lines_of_monitor : Cloudtx_obs.Monitor.t -> string list
