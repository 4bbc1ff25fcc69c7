(** Critical-path timelines and aggregate blame profiles.

    Protocol-blind half of the latency blame engine (DESIGN §9): the
    segment taxonomy, per-transaction timelines, the coverage invariant
    that makes a timeline a {e critical path}, and the bounded-memory
    aggregation into per-cell blame tables.  The protocol-aware half —
    turning flight-recorder records into timelines — lives above this
    library in [Cloudtx_core.Blame].

    A timeline partitions the transaction's end-to-end latency interval
    [[begun_ms, finished_ms]] into consecutive segments, each blamed on
    one causal step (a policy fetch, a 2PV round, a lock wait, ...).
    Because the segments tile the interval, their durations sum to the
    end-to-end latency exactly up to float summation error — the
    {!slack_bound_ms} documents that bound, and {!covered} checks it.
    The critical path of a sequential coordinator {e is} this tiling:
    every wall-clock moment of the transaction is attributed to exactly
    one dominating cause. *)

(** Where a slice of latency went.  [kind_name] spells the stable
    label used in JSON/markdown output. *)
type kind =
  | Queueing  (** submit → TM creation (admission queueing). *)
  | Policy_fetch  (** Master version round-trip. *)
  | Exec  (** Query shipping: Execute → Execute_reply round-trip. *)
  | Lock_wait  (** Server-side wait-die park (blocked → granted/killed). *)
  | Proof_eval  (** Server-side proof evaluation (Eval → Evaluated). *)
  | Validate_round  (** 2PV validation round-trip (incl. Update rounds). *)
  | Vote_round  (** 2PVC prepare/vote round-trip. *)
  | Decide  (** Decision propagation until the closing ack. *)
  | Retry_stall  (** Idle until a decision-retransmission timer fired. *)
  | Timeout_stall  (** Idle until a vote watchdog fired. *)
  | Inquiry_stall  (** Idle until a participant's Inquiry arrived. *)
  | Recovery  (** Coordinator crash → re-creation gap. *)
  | Other  (** Unclassified (unexpected record kind). *)

val kind_name : kind -> string
val all_kinds : kind list

type segment = {
  kind : kind;
  peer : string;  (** Attributed remote node ([""] when none). *)
  detail : string;  (** Round / query qualifier ([""] when none). *)
  phase : string;  (** ["execute"], ["commit"] or ["decide"]. *)
  start_ms : float;
  end_ms : float;
  seq : int;  (** Journal seq of the record that closed the segment. *)
}

val segment_ms : segment -> float

type timeline = {
  txn : string;
  node : string;  (** The coordinator's node name. *)
  scheme : string;
  level : string;
  committed : bool;
  reason : string;
  begun_ms : float;
  finished_ms : float;
  segments : segment list;  (** Chronological; tiles the interval. *)
}

val total_ms : timeline -> float

(** [|Σ segment durations − total|] — zero up to float summation. *)
val coverage_slack_ms : timeline -> float

(** The documented slack bound: [1e-6 + 1e-12 · |total| · n_segments]
    milliseconds.  The tiling makes each segment an exact float
    difference of adjacent record timestamps, so the only error is the
    non-telescoping summation of those differences — at most one ulp of
    the running sum per addition. *)
val slack_bound_ms : timeline -> float

(** Does the timeline cover the end-to-end latency within
    {!slack_bound_ms}?  [explain]/[blame] exit 1 when it does not. *)
val covered : timeline -> bool

(** Per-kind time totals of one timeline, largest first (ties broken by
    taxonomy order).  Head = the dominant segment kind. *)
val by_kind : timeline -> (kind * float) list

val dominant : timeline -> (kind * float) option

(** Per-phase time totals ([execute]/[commit]/[decide] order), for
    reconciliation against the registry's phase histograms. *)
val by_phase : timeline -> (string * float) list

val timeline_to_json : timeline -> string

(** Human-readable timeline with the critical path marked: one row per
    segment plus a per-kind blame summary. *)
val timeline_to_text : timeline -> string list

(** {1 Aggregation}

    Bounded-memory blame profiles: per scheme×level cell and segment
    kind, a {!Sketch} of per-transaction time-in-segment plus exact
    span counts and totals; globally, the top-k slowest transactions
    (their full timelines are the only unbounded-per-txn state kept,
    and there are at most [k] of them). *)

type agg

val agg_create : ?top_k:int -> unit -> agg

val agg_observe : agg -> timeline -> unit

type row = {
  row_kind : kind;
  row_txns : int;  (** Transactions with any time in this segment. *)
  row_spans : int;  (** Individual segments observed. *)
  row_total_ms : float;
  row_mean_ms : float;  (** Mean per-transaction time-in-segment. *)
  row_p50_ms : float;
  row_p99_ms : float;
  row_max_ms : float;
}

type cell = {
  cell_scheme : string;
  cell_level : string;
  cell_txns : int;
  cell_committed : int;
  cell_aborted : int;
  cell_total_ms : float;  (** Σ end-to-end latency over the cell. *)
  cell_rows : row list;  (** Sorted by [row_total_ms], largest first. *)
}

type slow = {
  slow_timeline : timeline;
  slow_dominant : kind;
  slow_dominant_ms : float;
}

(** Cells sorted by (scheme, level) name; rows blame-sorted. *)
val agg_cells : agg -> cell list

(** Top-k slowest transactions, slowest first (ties by txn id). *)
val agg_slowest : agg -> slow list

(** Deterministic rendering — a pure function of the observed
    timelines, so live and offline collections agree byte-for-byte. *)
val agg_to_json : ?extra:(string * string) list -> agg -> string

val agg_to_markdown : agg -> string list
