(** Journal-to-health bridge: decodes flight-recorder records into
    {!Cloudtx_obs.Monitor} events.

    The monitor itself ([lib/obs]) is protocol-blind; this module owns the
    protocol-aware half of the Watchtower — a fold {!step} over the typed
    {!Journal_io.record} stream (live through {!attach}, or offline from
    a file of either format through {!of_file}) that emits the neutral
    {!Cloudtx_obs.Monitor.event}s the SLO rules consume: transaction
    begin/step/end, master and replica policy versions, prepare votes and
    proof evaluations.

    A record that carries no event ticks the monitor: it advances the
    monitor's clock and nothing else.  So does a TM record from a node
    whose create the stream never saw (evicted from a capped buffer) or
    whose transaction already finished.

    Best-effort: an [Undecodable] record ticks and is counted in
    {!decode_errors}, as is a malformed resilience event; the bridge
    never raises on malformed input. *)

type t

(** [create monitor] — [timeseries], when given, is fed from the same
    pass after the monitor (transaction begins and ends, staleness lags,
    ticks), so one journal pass feeds both the Watchtower and the
    windowed series.  The series' per-transaction latencies come from the
    journaled TM lifecycle (creation, the [2pvc.*] phase-open marks,
    finish) — the same clock points the live registry's phase histograms
    sample, so offline replay reproduces them exactly. *)
val create : ?timeseries:Cloudtx_obs.Timeseries.t -> Cloudtx_obs.Monitor.t -> t

(** Feed one decoded journal record. *)
val step : t -> Journal_io.record -> unit

(** Records whose payload failed to decode so far. *)
val decode_errors : t -> int

(** [attach journal monitor] feeds [monitor] from [journal]'s live
    records ({!Journal_io.attach}) — the live [--monitor] path.  Shares
    each record value with the journal's other consumers (e.g. a
    [Blame] collector), in attach order: a typed record as it was
    written, an event or raw write decoded once.  Returns the bridge
    for {!decode_errors}. *)
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
