(** Canonical simulated deployments used by the examples, tests and
    benches.

    The [retail] scenario models the paper's motivating company: several
    regional databases under one administrative domain, clerks whose
    credentials are issued by a corporate CA, and a policy that grants
    access to role-holding employees.  Policy versions can be bumped
    without changing semantics (pure staleness, the common case the
    paper's protocols must tolerate cheaply) or tightened so that stale
    replicas make genuinely unsafe decisions. *)

module Cluster = Cloudtx_core.Cluster
module Rule = Cloudtx_policy.Rule
module Credential = Cloudtx_policy.Credential
module Transaction = Cloudtx_txn.Transaction

type t = {
  cluster : Cluster.t;
  domain : string;
  subjects : string list;
  credentials_of : string -> Credential.t list;
  servers : string list;
  keys_of : string -> string list;  (** Items hosted per server. *)
  ca : Cloudtx_policy.Ca.t;
  samplers : (float, (string array * Zipf.t) array) Hashtbl.t;
      (** [Generator.generate]'s memo: per Zipf skew, each server's keys
          (in [servers] order) and its sampler over them. *)
}

(** The version-1 rule set: [permit(S, A, I) :- role(S, clerk)] for both
    actions. *)
val clerk_rules : Rule.t list

(** Semantically identical rules whose publication still bumps the
    version — pure staleness churn. *)
val clerk_rules_refreshed : unit -> Rule.t list

(** Tightened rules: writes now require [role(S, senior)]. Clerks' write
    proofs evaluate FALSE under this version. *)
val senior_write_rules : Rule.t list

(** Clerk rules extended with a suspension exception
    ([not suspended(S)], stratified negation) naming [subject]: that
    clerk's proofs evaluate FALSE under the new version, everyone else is
    unaffected. *)
val suspend_rules : subject:string -> Rule.t list

(** [retail ()] builds the deployment.

    - [n_servers] data servers named ["server-1"..], each hosting
      [items_per_server] integer items ["s<i>-k<j>"] initialised to 100,
      guarded by non-negativity constraints.
    - [n_subjects] clerks ["clerk-1"..] with 1-year role credentials.
    - single domain ["retail"].
    - [variant]/[dedup]/[inquiry_timeout] are forwarded to
      {!Cluster.create} (decision-logging discipline, idempotent
      delivery, termination-protocol timer). *)
val retail :
  ?seed:int64 ->
  ?latency:Cloudtx_sim.Latency.t ->
  ?ocsp_latency:Cloudtx_sim.Latency.t ->
  ?variant:Cloudtx_txn.Tpc.variant ->
  ?dedup:bool ->
  ?inquiry_timeout:float ->
  ?n_servers:int ->
  ?items_per_server:int ->
  ?n_subjects:int ->
  unit ->
  t

(** A transaction whose [i]th query touches server [(start + i) mod
    n_servers] — the worst-case shape for Table I where every query lands
    on a distinct participant (when [queries <= n_servers]). Reads one key
    and optionally debits another on the same server. *)
val spread_transaction :
  t ->
  id:string ->
  subject:string ->
  queries:int ->
  ?start:int ->
  ?writes:bool ->
  unit ->
  Transaction.t
