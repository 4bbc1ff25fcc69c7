(** The master policy server.

    Global consistency needs "some master server on the system which knows
    the latest policy version" — this node hosts the {!Cloudtx_policy.Admin}
    authority of every domain and answers version requests with the latest
    policies (bodies included, so a stale participant can be updated
    without a second fetch). *)

module Transport = Cloudtx_sim.Transport

type t

val create :
  transport:Message.t Transport.t ->
  name:string ->
  admins:Cloudtx_policy.Admin.t list ->
  t

val name : t -> string

val admin : t -> domain:string -> Cloudtx_policy.Admin.t option

val latest : t -> domain:string -> Cloudtx_policy.Policy.version option
