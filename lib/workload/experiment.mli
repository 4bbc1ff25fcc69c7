(** Measurement harness: run transactions over a scenario and aggregate
    the metrics the paper's evaluation reports. *)

module Running_stats = Cloudtx_metrics.Running_stats
module Sample_set = Cloudtx_metrics.Sample_set
module Manager = Cloudtx_core.Manager
module Outcome = Cloudtx_protocol.Outcome
module Transaction = Cloudtx_txn.Transaction

type stats = {
  outcomes : Outcome.t list;  (** In completion order, final attempts only. *)
  committed : int;
  aborted : int;
  latency_ms : Sample_set.t;
  proofs : Running_stats.t;
  protocol_messages : Running_stats.t;
      (** Per transaction, summed over
          {!Cloudtx_protocol.Message.protocol_labels} (only meaningful for
          sequential runs). *)
  commit_rounds : Running_stats.t;
  restarts : int;  (** Wait-die victims resubmitted (open runs only). *)
}

val commit_ratio : stats -> float

(** [run_sequential scenario config ~n make] runs [n] transactions one at
    a time: transaction [i] (from [make ~i]) is submitted, the engine is
    stepped until its outcome lands, then the next is submitted.
    Background churn events interleave at their scheduled instants.
    Per-transaction protocol-message counts are deltas of
    {!Table1.protocol_messages}, so the run enables the transport's
    metrics registry. *)
val run_sequential :
  Scenario.t -> Manager.config -> n:int -> (i:int -> Transaction.t) -> stats

(** [run_open scenario config ~arrivals make] submits transaction [i] at
    [List.nth arrivals i] (simulated ms from now) and runs to quiescence —
    a concurrent open-loop run where lock contention and wait-die are
    live. Per-transaction message counts are not attributed.

    [max_restarts] (default 0) resubmits each wait-die victim up to that
    many times with a fresh transaction id but its {e original} start
    timestamp, after a short backoff: the classic wait-die aging rule, so
    a victim grows relatively older and eventually wins its locks.  Only
    the final attempt's outcome enters the statistics; [restarts] counts
    resubmissions. *)
val run_open :
  ?max_restarts:int ->
  Scenario.t ->
  Manager.config ->
  arrivals:float list ->
  (i:int -> Transaction.t) ->
  stats

(** [run_closed scenario config ~clients ~total make] — closed-loop run:
    [clients] logical clients each keep one transaction in flight,
    submitting the next as soon as the previous completes, until [total]
    transactions have finished.  Wait-die victims count as completions
    (no restart).  Returns the stats and the throughput in transactions
    per simulated second. *)
val run_closed :
  Scenario.t ->
  Manager.config ->
  clients:int ->
  total:int ->
  (i:int -> Transaction.t) ->
  stats * float
