(** Proofs of authorization — f_si = <q_i, s_i, P^si(m(q_i)), t_i, C>.

    A proof records that server [s_i], holding version [v] of domain [A]'s
    policy, evaluated query [q_i]'s access request at time [t_i] against
    credential set [C], with outcome [result].  [evaluate] constructs a
    proof; re-running [evaluate] with the same request at a later time is
    the paper's [eval(f, t)] — the re-validation the Deferred / Punctual /
    Continuous schemes perform at commit or per query.

    Validity requires (paper, Section III-A):
    + every credential syntactically valid at [t] (format, signature,
      alpha passed, omega not passed);
    + every credential semantically valid at [t] (the issuing CA's online
      status check reports it unrevoked over [t_i, t]);
    + the policy's inference rules satisfiable from the credential facts
      for every data item the query touches.

    The evaluation injects request-describing facts —
    [req_subject(subject)], [req_action(action)] and one [req_item(i)]
    per touched item — so that range-restricted rules can bind their head
    variables, e.g.
    {[ permit(S, A, I) :- role(S, clerk), req_action(A), req_item(I). ]}
    The fact base is those facts, then the environment's context facts,
    then the facts of each credential that passes, in credential order;
    it is built in one pass over the credentials. *)

type request = {
  subject : string;
  action : string;  (** e.g. ["read"] or ["write"]. *)
  items : string list;  (** m(q): the data items the query touches. *)
}

(** How the evaluating server resolves credential issuers. *)
type env = {
  find_ca : string -> Ca.t option;
      (** Issuer name to CA, for semantic (revocation) checks. *)
  trusted_server : string -> bool;
      (** Accept access credentials issued by this cloud server? *)
  context : unit -> Rule.fact list;
      (** Environment facts available to every derivation (e.g. the
          requester's current location as attested by the session); read
          at evaluation time so they can change mid-transaction. *)
}

type failure =
  | Syntactic of Credential.id * Credential.syntactic_failure
  | Revoked of Credential.id
  | Untrusted_issuer of Credential.id
  | Denied of string  (** Rules unsatisfiable for this item. *)

type t = {
  query_id : string;
  server : string;
  domain : string;
  policy_version : Policy.version;
  evaluated_at : float;  (** t_i *)
  credential_ids : Credential.id list;
  request : request;
  result : bool;
  failures : failure list;  (** Empty iff [result]. *)
}

(** [evaluate ~query_id ~server ~policy ~creds ~env ~at request] runs the
    full three-step validation and returns the proof record.  Facts from
    invalid credentials are excluded from the derivation, and — because the
    paper's validity definition quantifies over every credential in [C] —
    any credential failure makes the whole proof FALSE even if the
    remaining credentials would satisfy the rules. *)
val evaluate :
  query_id:string ->
  server:string ->
  policy:Policy.t ->
  creds:Credential.t list ->
  env:env ->
  at:float ->
  request ->
  t

val pp : Format.formatter -> t -> unit
