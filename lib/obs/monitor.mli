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

(** One observation, extracted from one journal record.  A record that
    carries none still advances the monitor's clock: see {!tick}. *)
type event =
  | Txn_begin of { txn : string; node : string; scheme : string; level : string }
  | Txn_step of { txn : string }  (** The transaction's TM took a step. *)
  | Txn_end of {
      txn : string;
      committed : bool;
      reason : string;
      killed : bool;  (** Wait-die victim (feeds the livelock rule). *)
    }
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

(** {1 Observations one at a time}

    Each function below is {!observe} of one event, without building
    it: the ones a journal bridge makes for most records.  The version observations
    return the largest replica lag they computed for a replica seen at a
    version above 0 (0 when none lags): the staleness a
    {!Timeseries.staleness} window keeps.  The timed sweep's lags are
    not returned. *)

(** A record that carries no event: only the clock-driven sweeps run. *)
val tick : t -> seq:int -> time_ms:float -> unit

(** An open transaction's state, returned by {!txn_begin}. *)
type txn

val txn_begin : t -> seq:int -> time_ms:float -> txn:string -> node:string -> txn

(** [Txn_step] of the transaction [txn_begin] returned; only the sweeps
    run once it has ended or begun again. *)
val txn_step : t -> seq:int -> time_ms:float -> txn -> unit

val master_version : t -> seq:int -> time_ms:float -> domain:string -> version:int -> int

val replica_version :
  t -> seq:int -> time_ms:float -> node:string -> domain:string -> version:int -> int

val proof_result :
  t ->
  seq:int ->
  time_ms:float ->
  txn:string ->
  node:string ->
  domain:string ->
  version:int ->
  result:bool ->
  int

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
