(** Banking scenario: account partitions, funds transfers and
    owner/teller authorization.

    A second full deployment (next to {!Scenario.retail}) exercising the
    parts of the system the retail scenario does not:

    - integrity constraints that actually fail under load (overdrafts
      violate per-account non-negativity, so integrity votes say NO);
    - per-branch funds conservation for intra-branch transfers
      ({!Cloudtx_store.Integrity.sum_preserved});
    - richer policies: customers may move their own money
      ([owns(S, A)] joined against the touched account), tellers may move
      anyone's, and auditors may only read;
    - transactions whose read/write sets depend on data semantics
      (debit + credit pairs) rather than uniform random keys. *)

module Cluster = Cloudtx_core.Cluster
module Transaction = Cloudtx_txn.Transaction
module Splitmix = Cloudtx_sim.Splitmix

type t = {
  cluster : Cluster.t;
  domain : string;
  branches : string list;  (** Server names, ["branch-1"] ... *)
  accounts_of : string -> string list;  (** Accounts per branch. *)
  customers : string list;  (** ["cust-1"] ...; {!build} says who owns what. *)
  tellers : string list;
  auditors : string list;
  credentials_of : string -> Cloudtx_policy.Credential.t list;
  owner_of : string -> string;  (** Account to owning customer. *)
  ca : Cloudtx_policy.Ca.t;
}

(** [build ()] creates [n_branches] branch servers, each hosting
    [accounts_per_branch] accounts that open at 100.  There are three
    customers, one teller and one auditor; customer [i] owns account [j]
    of every branch when [j mod 3 = i].  Every branch enforces
    per-account non-negativity and whole-branch conservation is checked
    by {!conserved}. *)
val build :
  ?seed:int64 ->
  ?latency:Cloudtx_sim.Latency.t ->
  ?n_branches:int ->
  ?accounts_per_branch:int ->
  unit ->
  t

(** [transfer t ~id ~by ~from_acct ~to_acct ~amount] — a two-query
    transaction: debit then credit (single query when both accounts share
    a branch). The issuing subject's credentials ride along. *)
val transfer :
  t ->
  id:string ->
  by:string ->
  from_acct:string ->
  to_acct:string ->
  amount:int ->
  Transaction.t

(** [audit t ~id ~by ~branch] — read-only sweep of a branch's accounts. *)
val audit : t -> id:string -> by:string -> branch:string -> Transaction.t

(** [random_transfer t rng ~id ~overdraft_ratio] draws a customer, one of
    their accounts as source, any account as sink, and an amount —
    deliberately exceeding the opening balance with probability
    [overdraft_ratio] so integrity NO-votes occur. *)
val random_transfer :
  t -> Splitmix.t -> id:string -> overdraft_ratio:float -> Transaction.t

(** Total funds across all branches (conservation check: commits must
    never change it, because every debit has a matching credit). *)
val total_funds : t -> int

(** Balance of one account. *)
val balance : t -> string -> int option
