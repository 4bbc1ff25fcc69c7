(** Watchtower: the streaming health engine.

    A monitor consumes the same per-record event stream the flight
    recorder journals — live (via {!Journal.add_observer}) or offline (a
    journal file replayed through [Cloudtx_core.Health]) — and evaluates
    the declarative {!Slo.rules} online.  Each rule owns a
    firing/resolved alert lifecycle; every transition lands in up to
    three sinks:

    + the metrics registry — [alerts_total{rule,severity}] counter and
      [alerts_active{rule}] gauge, so a Prometheus export carries the
      live alert state;
    + a structured JSONL alert log ({!Slo.log_line}, one record per
      transition);
    + human-readable console lines ({!Slo.console_line}).

    The monitor knows nothing about the wire protocol: it consumes the
    neutral {!event} vocabulary below.  The protocol-aware decoding of
    journal records into events lives in [Cloudtx_core.Health], above
    this library in the dependency order. *)

(** One observation, extracted from one journal record.  [Activity] is
    any record that proves a node made progress without carrying other
    health information — it still advances the monitor's clock. *)
type event =
  | Txn_begin of { txn : string; node : string; scheme : string; level : string }
  | Txn_step of { txn : string }  (** The transaction's TM took a step. *)
  | Txn_end of {
      txn : string;
      committed : bool;
      reason : string;
      killed : bool;  (** Wait-die victim (feeds the livelock rule). *)
    }
  | Txn_latency of {
      txn : string;
      total_ms : float;  (** Submit-to-finish. *)
      execute_ms : float option;  (** Submit to 2PVC prepare open. *)
      commit_ms : float option;  (** Prepare open to decision. *)
      decide_ms : float option;  (** Decision to finish. *)
    }
      (** Per-phase latency breakdown derived at transaction finish —
          no rule consumes it; it exists for {!Timeseries}. *)
  | Master_version of { domain : string; version : int }
      (** The policy master was observed to hold this version. *)
  | Replica_version of { node : string; domain : string; version : int }
      (** [node]'s replica was observed to hold this version. *)
  | Vote of { txn : string; node : string; vote : bool }
      (** A participant's forced-log prepare vote. *)
  | Proof_result of {
      txn : string;
      node : string;
      domain : string;
      version : int;
      result : bool;
    }
  | Breaker_transition of { server : string; from_ : string; to_ : string }
      (** A server's circuit breaker changed state
          (closed/open/half-open) — feeds the [breaker_flap] rule. *)
  | Admission_reject of { txn : string; reason : string; server : string option }
      (** The manager fast-failed a submit — bounded in-flight
          ([reason = "admission-rejected"]) or an open breaker
          ([reason = "breaker-open"], [server] named) — feeds the
          [admission_storm] rule. *)
  | Activity of { node : string }

type t

(** [create ()] — [rules] defaults to {!Slo.default}; [registry] (when
    live) receives the alert counters/gauges; [log] receives one
    {!Slo.log_line} per transition; [console] one {!Slo.console_line};
    [notify] sees every alert transition as a structured value (a fresh
    fire or a resolve — refreshes of an already-open alert do not
    re-notify), the hook {!Timeseries.note_alert} plugs into. *)
val create :
  ?rules:Slo.rules ->
  ?registry:Registry.t ->
  ?log:(string -> unit) ->
  ?console:(string -> unit) ->
  ?notify:([ `Fire | `Resolve ] -> Slo.alert -> unit) ->
  unit ->
  t

val rules : t -> Slo.rules

(** Feed one event.  [seq] and [time_ms] come from the journal record
    envelope; events must arrive in journal order. *)
val observe : t -> seq:int -> time_ms:float -> event -> unit

(** Every alert ever fired, in firing order. *)
val alerts : t -> Slo.alert list

(** Alerts currently firing, in firing order. *)
val open_alerts : t -> Slo.alert list

val fired_total : t -> int

(** Every line handed to [console] so far, in emission order: the alert
    transitions as they were announced, kept whether or not a [console]
    sink was given. *)
val console_lines : t -> string list

(** Open alerts with severity {!Slo.Critical} — the exit-code gate for
    [cloudtx watch] and [cloudtx health]. *)
val unresolved_critical : t -> int

(** Worst replica lag observed per node over the whole run, as
    [(node, (versions, domain))], sorted by node. *)
val staleness_peak : t -> (string * (int * string)) list

(** Transactions currently open (begun, not ended). *)
val open_txns : t -> string list
