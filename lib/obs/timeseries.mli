(** Windowed time-series aggregation over simulated time.

    A time series slices sim-time into fixed-width windows (window [i]
    covers [[i*width_ms, (i+1)*width_ms)] — an observation exactly on an
    edge belongs to the window that {e starts} there) and accumulates,
    per window: transaction begin/commit/abort/kill counts, per-phase
    latency {!Sketch}es (fed by {!latency}, attributed to the finish
    time like the registry's phase histograms), the worst policy-replica
    staleness observed inside the window, and alert fire/resolve
    transitions (via {!note_alert}, wired through {!Monitor.create}'s
    [notify]).

    It is fed by the same bridge as the Watchtower
    ([Cloudtx_core.Health]), record by record, so the two canonical
    feeds — live through [Cloudtx_core.Health.attach], and offline by
    replaying a journal file — produce identical series by construction.
    The staleness it keeps is the lag the monitor's version
    observations compute ({!Monitor.replica_version} and its siblings
    return it); the series tracks no policy versions itself.  Window
    assignment is purely a function of each record's [time_ms], so
    reordered journal records land in the right window.

    Memory is O(windows × bins): every window holds at most four
    sketches and a handful of counters, never raw samples.

    The series only aggregates.  {!Report} is its view and renders it:
    the report JSON and markdown, and the [--metrics-out] snapshot. *)

type t

(** [create ()] — [width_ms] is the window width in simulated
    milliseconds (default [100.]; must be positive). *)
val create : ?width_ms:float -> unit -> t

val width_ms : t -> float

(** {1 Observations}

    [time_ms] selects the window of each. *)

(** A record with nothing to count: the series still reaches its
    window. *)
val tick : t -> time_ms:float -> unit

val txn_begin : t -> time_ms:float -> unit

(** [killed]: a wait-die victim (counted only when not [committed]). *)
val txn_end : t -> time_ms:float -> committed:bool -> killed:bool -> unit

(** One finished transaction's phase breakdown: [total_ms] from submit
    to finish, [execute_ms] to 2PVC prepare open, [commit_ms] from there
    to the decision, [decide_ms] from the decision to finish. *)
val latency :
  t ->
  time_ms:float ->
  total_ms:float ->
  execute_ms:float option ->
  commit_ms:float option ->
  decide_ms:float option ->
  unit

(** A replica lag (in versions) that the monitor computed at [time_ms]. *)
val staleness : t -> time_ms:float -> int -> unit

(** Record an alert transition in the window of its transition time
    ([fired_at] for [`Fire], [resolved_at] for [`Resolve]). *)
val note_alert : t -> [ `Fire | `Resolve ] -> Slo.alert -> unit

(** {1 Reading the series} *)

(** Quantiles of one phase in one window, from its sketch. *)
type stats = { count : int; p50 : float; p99 : float; p999 : float; max : float }

type cell = {
  index : int;
  start_ms : float;
  begun : int;
  commits : int;
  aborts : int;
  killed : int;  (** Wait-die victims (a subset of [aborts]). *)
  staleness : int;  (** Worst replica version lag seen in the window. *)
  alerts_fired : int;
  alerts_resolved : int;
  alerts_open : int;  (** Cumulative open alerts at window end. *)
  phases : (string * stats) list;
      (** Phases with data, in ["execute"; "commit"; "decide"; "total"]
          order. *)
}

(** Whole-run aggregate: counters summed, [staleness] the overall peak,
    phase stats from the {e merged} per-window sketches (exactly the
    sketch of the full stream, by merge exactness). *)
type totals = {
  begun : int;
  commits : int;
  aborts : int;
  killed : int;
  staleness : int;
  alerts_fired : int;
  alerts_resolved : int;
  alerts_open : int;
  phases : (string * stats) list;
}

(** The dense window list, indices [0 .. max]: windows nothing landed in
    are listed (all-zero), not skipped.  Empty when no event arrived. *)
val cells : t -> cell list

val totals : t -> totals
