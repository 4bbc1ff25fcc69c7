(** Journal-to-health bridge: decodes flight-recorder records into
    {!Cloudtx_obs.Monitor} events.

    The monitor itself ([lib/obs]) is protocol-blind; this module owns the
    protocol-aware half of the Watchtower — a fold {!step} over the typed
    {!Journal_io.record} stream (live through {!attach}, or offline from
    a file of either format through {!of_file}) that emits the neutral
    {!Cloudtx_obs.Monitor.event}s the SLO rules consume: transaction
    begin/step/end, master and replica policy versions, prepare votes and
    proof evaluations.

    Best-effort: an [Undecodable] record still advances the monitor's
    clock (as [Activity]) and is counted in {!decode_errors}, as is a
    malformed resilience event; the bridge never raises on malformed
    input. *)

type t

(** [create monitor] — [timeseries], when given, receives every emitted
    event too (after the monitor), so one journal pass feeds both the
    Watchtower and the windowed series.  The bridge also derives a
    {!Cloudtx_obs.Monitor.Txn_latency} per finished transaction from
    the journaled TM lifecycle (creation, the [2pvc.*] phase-open
    marks, finish) — the same clock points the live registry's phase
    histograms sample, so offline replay reproduces them exactly. *)
val create : ?timeseries:Cloudtx_obs.Timeseries.t -> Cloudtx_obs.Monitor.t -> t

(** Feed one decoded journal record. *)
val step : t -> Journal_io.record -> unit

(** Records whose payload failed to decode so far. *)
val decode_errors : t -> int

(** [attach journal monitor] registers a streaming observer on [journal]
    (see {!Cloudtx_obs.Journal.add_observer}) feeding [monitor] — the
    live [--monitor] path.  Composes with other observers (e.g. a
    [Blame] collector) in registration order.  Returns the bridge for
    {!decode_errors}. *)
val attach :
  ?timeseries:Cloudtx_obs.Timeseries.t ->
  Cloudtx_obs.Journal.t ->
  Cloudtx_obs.Monitor.t ->
  t

(** [of_file path monitor] replays a journal file through the monitor in
    journal order — the [watch] path.  Returns the number of records fed,
    or [Error] on an unreadable file, a bad header or a record envelope
    that does not parse (naming the line or frame).  Unlike
    {!Audit.of_file} this tolerates seq gaps (a capped in-memory buffer
    legitimately drops oldest records); each record's own [seq] is what
    lands in alert evidence. *)
val of_file :
  ?timeseries:Cloudtx_obs.Timeseries.t ->
  string ->
  Cloudtx_obs.Monitor.t ->
  (int, string) result
