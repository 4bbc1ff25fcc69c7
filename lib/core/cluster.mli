(** A simulated cloud deployment: data servers behind policy replicas, a
    master policy server, certificate authorities and the network fabric —
    the paper's Figure 2 topology.

    The cluster bootstraps every server's replica with version 1 of each
    domain's policy; later {!publish} calls model eventually-consistent
    propagation by delivering the new version to each server after a
    per-server delay. *)

module Transport = Cloudtx_sim.Transport
module Splitmix = Cloudtx_sim.Splitmix

type server_spec = {
  s_name : string;
  s_items : (string * Cloudtx_store.Value.t) list;
  s_constraints : Cloudtx_store.Integrity.t list;
}

val server_spec :
  name:string ->
  ?constraints:Cloudtx_store.Integrity.t list ->
  items:(string * Cloudtx_store.Value.t) list ->
  unit ->
  server_spec

type t

(** [create ~servers ~domains ()] builds and wires the whole deployment.

    - [domains]: initial rule set per administrative domain.
    - [domain_of]: item-to-domain mapping (default: everything belongs to
      the single first domain).
    - [cas]: certificate authorities available for credential status
      checks (shared objects — the paper's "online method" abstracted from
      messaging).
    - [context_facts]: session/environment facts visible to every proof
      (mutable via {!set_context}).
    - [seed]/[latency]: simulation determinism and network regime.
    - [dedup]/[inquiry_timeout]: forwarded to every
      {!Participant.create} — idempotent delivery (default on) and the
      termination-protocol timer (default disabled). *)
val create :
  ?seed:int64 ->
  ?latency:Cloudtx_sim.Latency.t ->
  ?ocsp_latency:Cloudtx_sim.Latency.t ->
  ?cas:Cloudtx_policy.Ca.t list ->
  ?context_facts:Cloudtx_policy.Rule.fact list ->
  ?domain_of:(string -> string) ->
  ?variant:Cloudtx_txn.Tpc.variant ->
  ?proof_cache:bool ->
  ?dedup:bool ->
  ?inquiry_timeout:float ->
  servers:server_spec list ->
  domains:(string * Cloudtx_policy.Rule.t list) list ->
  unit ->
  t

val transport : t -> Message.t Transport.t
val master : t -> Master.t
val participants : t -> Participant.t list
val participant : t -> string -> Participant.t
val ca : t -> string -> Cloudtx_policy.Ca.t option
val domain_of : t -> string -> string

(** Replace the environment facts every subsequent proof evaluation sees
    (e.g. the requester moved to another region). *)
val set_context : t -> Cloudtx_policy.Rule.fact list -> unit

(** Per-transaction proof tallies, the source of
    [Outcome.proofs_evaluated].  [track_proofs t ~txn] starts counting the
    proofs any participant evaluates for [txn]; [take_proofs t ~txn]
    returns the count and forgets the tally (0 when untracked).  The
    manager brackets each transaction with the pair, so only transactions
    in flight hold a tally. *)
val track_proofs : t -> txn:string -> unit

val take_proofs : t -> txn:string -> int

(** [publish t ~domain ~delay rules] publishes the next policy version at
    the master and schedules its propagation to each server: [delay]
    returns the per-server lag in milliseconds — [infinity] means the
    update never reaches that server ([`Uniform (lo, hi)] draws
    independently per server, [`Fixed f] asks the callback, [`Now] is
    near-instant).  Returns the new version. *)
val publish :
  t ->
  domain:string ->
  ?accept_capabilities:bool ->
  delay:[ `Uniform of float * float | `Fixed of (string -> float) | `Now ] ->
  Cloudtx_policy.Rule.t list ->
  Cloudtx_policy.Policy.t

(** Convenience: run the simulation engine to quiescence. *)
val run : ?until:float -> ?max_steps:int -> t -> [ `Quiescent | `Time_limit | `Step_limit ]

val now : t -> float
