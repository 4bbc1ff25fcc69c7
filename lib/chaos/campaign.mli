(** Deterministic fault campaigns over the scheme × consistency grid.

    A campaign sweeps seeded random {!Plan}s across cells of the
    {!Cloudtx_protocol.Scheme} × {!Cloudtx_protocol.Consistency} grid.
    Each plan runs three staggered multi-server write transactions under the
    simulator with the flight recorder enabled, injects the plan's
    faults, heals everything after the fault horizon, runs to quiescence
    and then asserts:

    {b Liveness} — every transaction reached a terminal outcome once the
    faults ended (timers, retransmission and the Inquiry termination
    protocol must unwedge every crash/partition the plan produced).

    {b Safety} — at every terminal state no participant is left in doubt
    ({!Cloudtx_core.Participant.in_doubt}) and committed transactions
    pass {!Cloudtx_core.Trusted.check} for the cell's scheme and level;
    the run's journal replays clean under {!Cloudtx_core.Audit}, which
    owns AC1–AC3, commit after prepare and each recovered participant's
    in-doubt set.  The evidence is the journal: nothing here reads a WAL.

    Determinism: a plan's seed drives both plan generation and the
    simulated run, so identical seeds give identical verdicts. *)

type cell = {
  scheme : Cloudtx_protocol.Scheme.t;
  level : Cloudtx_protocol.Consistency.level;
}

val cell_name : cell -> string

(** Parses ["scheme:level"], e.g. ["deferred:view"]. *)
val cell_of_string : string -> (cell, string) result

(** All 8 scheme × level cells. *)
val all_cells : cell list

type failure = {
  what : string;  (** The violated invariant, human-readable. *)
  journal : string list;  (** The failing run's flight-recorder lines. *)
}

(** [run_plan cell plan] — one plan in one cell, checked for liveness,
    safety, then by the audit.  [dedup:false] disables driver-side
    idempotent delivery (the chaos escape hatch); [certify:true] adds a
    fourth layer: the journal must certify serializable
    ({!Cloudtx_core.Certify});
    [journal_path] writes the run's journal through to a file, in
    [journal_format] (default JSONL).  A run given no [journal_path]
    records in {!Cloudtx_core.Journal_io.in_memory_format} (binary)
    whatever [journal_format] says: audit/certify assertions and
    [failure.journal] lines are identical either way, because the live
    tap hands every consumer the typed record and a failing run's
    journal is rendered to the canonical JSONL lines a JSONL file
    holds;
    [metrics_path] writes a windowed-metrics snapshot JSONL
    ({!Cloudtx_obs.Report.to_snapshot}, window width [metrics_width_ms])
    built live from the run's journal stream — written whatever the
    verdict, so a failing cell still yields a flight deck;
    [variant] selects the participants' decision-logging discipline;
    [policy] is the TM timeout policy (default [Fixed], which keeps
    journals byte-identical to pre-policy captures).  Under [Adaptive] a
    fifth assertion layer checks graceful degradation: no TM fires more
    decision retries than the policy's budget allows.
    [resilience] arms per-server circuit breakers and admission control
    ({!Cloudtx_core.Resilience}) on every submit, and adds a sixth
    layer: after the heal plus one breaker cooldown, a probe
    transaction must complete without any timeout-shaped or fast-fail
    reason, every breaker must be [Closed] again, and the in-flight
    count must be zero. *)
val run_plan :
  ?dedup:bool ->
  ?certify:bool ->
  ?variant:Cloudtx_txn.Tpc.variant ->
  ?journal_format:Cloudtx_obs.Journal.format ->
  ?journal_path:string ->
  ?metrics_path:string ->
  ?metrics_width_ms:float ->
  ?policy:Cloudtx_protocol.Timeout_policy.t ->
  ?resilience:Cloudtx_core.Resilience.config ->
  cell ->
  Plan.t ->
  (unit, failure) result

type case = { cell : cell; plan : Plan.t; failure : failure }
type verdict = { plans_run : int; failures : case list }

(** [run ~plans ()] sweeps [plans] random plans (seeds [base_seed],
    [base_seed+1], …) across [cells] (default: all 8).
    [journal_path]/[metrics_path] are passed to every {!run_plan} — each
    run overwrites the same file, so they are mainly useful for
    single-run sweeps ([plans = 1] with one cell).  [horizon] scales
    every generated plan's fault windows ({!Plan.random}); [policy] and
    [resilience] are passed to every {!run_plan}. *)
val run :
  ?dedup:bool ->
  ?certify:bool ->
  ?variant:Cloudtx_txn.Tpc.variant ->
  ?journal_format:Cloudtx_obs.Journal.format ->
  ?journal_path:string ->
  ?metrics_path:string ->
  ?metrics_width_ms:float ->
  ?policy:Cloudtx_protocol.Timeout_policy.t ->
  ?resilience:Cloudtx_core.Resilience.config ->
  ?horizon:float ->
  ?cells:cell list ->
  ?base_seed:int64 ->
  plans:int ->
  unit ->
  verdict
