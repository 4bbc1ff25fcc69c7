(** Pure transaction-manager state machine for 2PV / 2PVC (sans-IO).

    One machine instance drives one transaction: it ships queries to their
    servers sequentially, applies the configured proof scheme during
    execution (punctual checks, Incremental Punctual's version check,
    Continuous's per-query 2PV with Update rounds), runs 2PVC (Algorithm 2)
    at commit — or plain 2PC when the scheme already established
    consistency — distributes the decision, collects acks, and answers
    recovering participants' [Inquiry] messages.

    The machine performs no IO: {!handle} maps an {!input} (a delivered
    message or a timer fire) to a list of {!action}s the driver interprets
    against its transport, clock, and observability sinks.  Drivers exist
    for the discrete-event simulator ({!Cloudtx_core.Manager}) and for the
    model-checking harness in [test/test_model_check.ml]; a real-network
    driver only needs to interpret the same vocabulary. *)

type master_mode =
  [ `Once  (** Fetch the master version once per 2PVC run. *)
  | `Every_round
    (** Re-fetch before resolving every round (the paper's default
        accounting: r retrievals). *) ]

type config = {
  scheme : Scheme.t;
  level : Consistency.level;
  master_mode : master_mode;
  max_rounds : int;
      (** Abort with [Rounds_exhausted] when validation has not converged
          after this many voting rounds. *)
  vote_timeout : float;
      (** Delay before {!action.Arm_watchdog} fires; 0 disables timers. *)
  decision_retry : float;
      (** Retransmission period for unacknowledged decisions; 0 disables. *)
  read_only_optimization : bool;
      (** Offer the classic 2PC read-only optimization on non-validating
          commits. *)
  snapshot_reads : bool;
      (** Ask servers to serve read-only queries from an MVCC snapshot. *)
  timeout_policy : Timeout_policy.t;
      (** How timer delays are derived.  {!Timeout_policy.Fixed} (the
          default) uses [vote_timeout]/[decision_retry] verbatim;
          {!Timeout_policy.Adaptive} derives them from journaled
          {!input.Rtt_sample}s with backoff, jitter and budgets. *)
}

val config :
  ?master_mode:master_mode ->
  ?max_rounds:int ->
  ?vote_timeout:float ->
  ?decision_retry:float ->
  ?read_only_optimization:bool ->
  ?snapshot_reads:bool ->
  ?timeout_policy:Timeout_policy.t ->
  Scheme.t ->
  Consistency.level ->
  config

type phase = Executing | Query_validating | Committing | Deciding | Finished

(** Observability hints.  A driver with tracing enabled maps these onto
    span opens/closes; a headless driver ignores them.  The machine emits
    them unconditionally and in the same order the simulator's original
    (pre-split) TM emitted its span operations, so a driver reproduces the
    PR-1 span tree bit-for-bit. *)
type obs =
  | Query_open of { index : int; server : string }
      (** A ["query"] span under the txn span. *)
  | Query_close of { outcome : string }
  | Round_open of {
      parent : [ `Txn | `Phase ];
      span_name : string;  (** ["2pv.round"] or ["2pvc.validate"]. *)
      round : int;
      query : int option;
    }
  | Round_close of { resolution : string option }
      (** Close the open round span, if any. *)
  | Phase_open of { span_name : string; reason : string option }
      (** ["2pvc.prepare"], ["2pvc.commit"] or ["2pvc.abort"]; drivers also
          take phase timestamps here. *)
  | Phase_close
  | Txn_close of { outcome : string; reason : string }

type action =
  | Send of { dst : string; msg : Message.t }
  | Arm_watchdog of { epoch : int; delay : float }
      (** Start a timer; deliver {!input.Watchdog_fired} with this epoch
          when it fires.  Stale epochs are ignored by the machine. *)
  | Arm_retry of { delay : float }
      (** Start a timer; deliver {!input.Retry_fired} when it fires. *)
  | Force_log
      (** The decision record hit the forced log: account one TM log
          force. *)
  | Mark of string  (** Trace marker on the TM's node. *)
  | Obs of obs
  | Finish of { committed : bool; reason : Outcome.reason; commit_rounds : int }
      (** Terminal: the transaction is decided and fully acknowledged.
          The driver builds the {!Outcome.t} (it owns the clock and proof
          counters) and surrenders the machine. *)

type input =
  | Deliver of { src : string; msg : Message.t }
  | Watchdog_fired of { epoch : int }
  | Retry_fired
  | Rtt_sample of { peer : string; ms : float }
      (** A measured round-trip to [peer], fed by the driver (and
          journaled, so replay sees the same estimates).  Emits no
          actions; ignored under {!Timeout_policy.Fixed}. *)

type t

(** [create cfg txn ~submitted_at] — a machine in the initial (Executing)
    state.  Raises [Invalid_argument] if the transaction has no queries.
    The TM's node name is ["tm-" ^ txn.id]; the master's is ["master"]. *)
val create : config -> Cloudtx_txn.Transaction.t -> submitted_at:float -> t

(** Ship the first query.  Call once, before any {!handle}. *)
val start : t -> action list

(** Advance the machine by one input.  Raises [Invalid_argument] on
    messages that are impossible in the current phase (anything a correct
    peer could not have sent). *)
val handle : t -> input -> action list

val name : t -> string
val view : t -> View.t
val decision : t -> bool option
val phase : t -> phase
val submitted_at : t -> float

(** Decision metadata, final once the machine has emitted {!action.Force_log}
    (or {!action.Finish}); drivers persist it as the coordinator's durable
    decision record so a restart can re-drive the decision phase without the
    machine. *)

val reason : t -> Outcome.reason
val commit_rounds : t -> int
val decision_targets : t -> string list

(** The machine has finished and every decision target has acknowledged
    the decision: 2PC's point at which a coordinator may forget the
    transaction.  False for a machine that finished because its adaptive
    retry budget ran out, which keeps answering inquiries. *)
val acknowledged : t -> bool
