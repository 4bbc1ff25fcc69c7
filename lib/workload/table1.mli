(** Table I reproduction: engineered worst cases and measured counts.

    One place for the logic shared by the bench harness, the CLI and the
    integration tests: build a retail deployment, inject the staleness
    pattern that drives a scheme x consistency-level cell to its worst
    case, run one transaction, and report measured protocol messages and
    proof evaluations next to the paper's closed forms. *)

module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Outcome = Cloudtx_protocol.Outcome

type staleness =
  | Fresh  (** No churn: single-round validation (r = 1). *)
  | View_worst
      (** One participant fresh, the rest a version behind: forces the
          view-consistency extra round (r = 2). *)
  | Global_worst
      (** Master ahead of every participant: forces r = 2 with all n
          participants updated. *)

val staleness_name : staleness -> string

(** The staleness pattern that exercises a cell's Table I worst case.
    Incremental and Continuous are priced by the paper for the
    consistency-maintained regime, i.e. [Fresh]. *)
val worst_for : Scheme.t -> Consistency.level -> staleness

type measurement = {
  outcome : Outcome.t;
  messages : int;  (** Protocol messages (paper accounting). *)
  proofs : int;
}

(** [run_case scheme level staleness] builds a fresh deployment with
    [n_servers] (default 4) servers, runs one [queries]-query (default 4)
    spread transaction and measures it off the deployment's metrics
    registry. *)
val run_case :
  ?n_servers:int ->
  ?queries:int ->
  Scheme.t ->
  Consistency.level ->
  staleness ->
  measurement

(** Pre-formatted rows for the full 8-cell matrix, as printed by the
    bench: scheme, level, staleness, message formula, analytic, measured,
    proof formula, analytic, measured. *)
val matrix_rows : n:int -> u:int -> string list list

(** Sum of the registry's [messages_total] over
    {!Cloudtx_protocol.Message.protocol_labels} (paper accounting:
    excludes master-version requests, query shipping and policy
    propagation).  0 on a disabled registry. *)
val protocol_messages : Cloudtx_obs.Registry.t -> int
