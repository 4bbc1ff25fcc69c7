(** Transaction manager: drives one transaction through execution, the
    scheme's per-query enforcement, and commit.

    One TM node is spawned per transaction (node name ["tm-<txn id>"]),
    mirroring the paper's model where "each transaction is handled by only
    one TM".  The TM:

    + ships queries to their servers sequentially;
    + applies the configured scheme during execution — punctual proof
      checks, Incremental Punctual's per-query version-consistency check,
      Continuous's per-query 2PV with Update rounds;
    + at commit runs 2PVC (Algorithm 2) — or plain 2PC when the scheme
      already established consistency (Section V-C);
    + force-logs its decision, distributes it and collects acks, and
      answers recovering participants' [Inquiry] messages afterwards.

    Once every participant owed the decision has acknowledged it, and
    each forced it to its log (always under Basic 2PC), no participant
    can inquire again, and the TM retires its node
    ({!Cloudtx_sim.Transport.retire}): it is forgotten when the last
    message to or from it settles.  A TM that finished because its
    adaptive retry budget ran out stays registered and keeps answering
    inquiries. *)

type master_mode =
  [ `Once  (** Fetch the master version once per 2PVC run. *)
  | `Every_round  (** Re-fetch before resolving every round (the paper's
                      default accounting: r retrievals). *) ]

type config = {
  scheme : Scheme.t;
  level : Consistency.level;
  master_mode : master_mode;
  max_rounds : int;
      (** Abort with [Rounds_exhausted] when validation has not converged
          after this many voting rounds (the paper notes global
          consistency is theoretically unbounded). *)
  vote_timeout : float;
      (** Milliseconds to wait for a voting round before aborting with
          [Timed_out]; 0 disables (default — crash-free runs then carry no
          timer noise in their message counts). *)
  decision_retry : float;
      (** Retransmission period for unacknowledged decisions; 0 disables.
          A decided transaction can never abort, so the decision is
          re-sent until every participant acknowledges — this is what lets
          a recovering participant finish an in-doubt transaction. *)
  read_only_optimization : bool;
      (** Classic 2PC read-only optimization (Samaras et al.): a
          participant with no buffered writes votes READ, releases at vote
          time and skips the decision phase and all forced logging.
          Offered only on non-validating commits (a validating 2PVC may
          need to re-poll the participant in Update rounds). Default
          false, preserving Table I's accounting. *)
  snapshot_reads : bool;
      (** Serve read-only queries from an MVCC snapshot as of the
          transaction's start timestamp: no shared locks, no blocking, no
          wait-die deaths for readers. Writes are unaffected. Default
          false. *)
  timeout_policy : Cloudtx_protocol.Timeout_policy.t;
      (** How the coordinator arms its vote watchdog and decision-retry
          timers.  [Fixed] (default) uses [vote_timeout]/[decision_retry]
          verbatim — journals are byte-identical to pre-v4 captures.
          [Adaptive] estimates per-peer RTTs, backs off exponentially
          with deterministic jitter, and converts exhausted retry budgets
          into clean aborts ([Budget_exhausted]).  See
          {!Cloudtx_protocol.Timeout_policy}. *)
}

val config :
  ?master_mode:master_mode ->
  ?max_rounds:int ->
  ?vote_timeout:float ->
  ?decision_retry:float ->
  ?read_only_optimization:bool ->
  ?snapshot_reads:bool ->
  ?timeout_policy:Cloudtx_protocol.Timeout_policy.t ->
  Scheme.t ->
  Consistency.level ->
  config

(** [submit cluster config txn ~on_done] spawns the TM and starts the
    first query; [on_done] fires when the decision is acknowledged.
    The caller then runs the cluster (see {!Cluster.run}).

    [ts] overrides the transaction's start timestamp (default: now).
    A restart of a wait-die victim passes the original timestamp so the
    transaction {e ages} and eventually beats its killers — pass it
    together with a fresh transaction id (TM node names must be
    unique). *)
val submit :
  ?ts:float ->
  ?resilience:Resilience.t ->
  Cluster.t ->
  config ->
  Cloudtx_txn.Transaction.t ->
  on_done:(Outcome.t -> unit) ->
  unit

(** A submitted transaction's coordinator, for fault injection. *)
type handle

(** Like {!submit}, returning the coordinator handle.

    [dedup] (default true) registers the TM with the transport's
    duplicate suppression, so copies of one send that the network
    duplicated reach the machine once — the coordinator-side half of
    idempotent delivery under duplication.  [false] is an escape hatch
    for chaos tests demonstrating the failure mode.

    [resilience] gates the submit through shared circuit breakers and
    admission control ({!Resilience}).  A rejected transaction fails fast
    and deterministically: no machine, no protocol traffic, no journal
    create record — [on_done] fires immediately with reason
    {!Outcome.Breaker_open} or {!Outcome.Admission_rejected}.  Admitted
    transactions report their outcome back as breaker evidence. *)
val submit_handle :
  ?ts:float ->
  ?dedup:bool ->
  ?resilience:Resilience.t ->
  Cluster.t ->
  config ->
  Cloudtx_txn.Transaction.t ->
  on_done:(Outcome.t -> unit) ->
  handle

val txn_id : handle -> string

(** Fail-stop the coordinator: volatile machine state is lost and it stops
    receiving; only the force-logged decision record (if any) survives. *)
val crash : handle -> unit

(** Restart a crashed coordinator.  With a durable decision record it
    re-drives the decision phase: retransmits the decision at-least-once
    until every owed participant acks, and answers [Inquiry] pulls.
    Without one it presumes abort (Section V), answering inquiries with
    ABORT and delivering an [on_done] outcome with reason
    {!Outcome.Coordinator_crash}. *)
val restart : handle -> unit

(** [run_one cluster config txn] — submit, run to quiescence, return the
    outcome. Raises [Failure] if the simulation quiesced undecided (e.g. a
    participant is crashed). *)
val run_one : Cluster.t -> config -> Cloudtx_txn.Transaction.t -> Outcome.t
