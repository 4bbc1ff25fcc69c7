(** Versioned authorization policies.

    Per the paper's model, a policy [P^si(D)] belongs to an administrative
    domain [A], carries a version number [v] in [N], and consists of
    inference rules.  Access for [(subject, action, item)] is granted when
    the rules derive the goal atom [permit(subject, action, item)] from the
    presented credential facts.

    Server-issued access credentials ("capabilities", like Bob's read
    credential) enter the derivation as [capability(subject, action, item)]
    facts; a policy built with [accept_capabilities:true] (the default)
    includes the implicit rule [permit(S,A,I) :- capability(S,A,I)]. *)

type version = int

type t = private {
  domain : string;  (** Administrative domain A. *)
  version : version;
  rules : Rule.t list;
  accept_capabilities : bool;
  mutable plan : Infer.plan option;
      (** {!effective_rules} compiled, filled in at the policy's first
          evaluation and kept for the later ones until {!forget_plan}.
          A cache, not content: structural equality sees it, so compare
          policies by their other fields. *)
}

(** [create ~domain rules] is version 1 of the domain's policy. *)
val create : ?accept_capabilities:bool -> domain:string -> Rule.t list -> t

(** [amend t rules] is the next version with a replaced rule set. *)
val amend : ?accept_capabilities:bool -> t -> Rule.t list -> t

(** [of_wire] reconstructs a policy received off the wire at its original
    version number. *)
val of_wire :
  domain:string -> version:version -> accept_capabilities:bool -> Rule.t list -> t

(** The goal atom [permit(subject, action, item)]. *)
val goal : subject:string -> action:string -> item:string -> Rule.atom

(** The fact contributed by a server-issued access credential. *)
val capability_fact : subject:string -> action:string -> item:string -> Rule.fact

(** Effective rule set: [rules] plus the capability rule when enabled. *)
val effective_rules : t -> Rule.t list

(** [forget_plan t] drops [t]'s compiled plan; its next evaluation
    compiles it again. *)
val forget_plan : t -> unit

(** [permits t ~facts ~subject ~action ~item] — single saturation, single
    goal.  The first evaluation of a policy value compiles its rules
    ({!Infer.compile}) and raises [Invalid_argument] if they recurse
    through negation. *)
val permits :
  t -> facts:Rule.fact list -> subject:string -> action:string -> item:string -> bool

(** [permits_all t ~facts ~subject ~action ~items] checks every item
    against one saturation; returns the items denied (empty = granted). *)
val permits_all :
  t ->
  facts:Rule.fact list ->
  subject:string ->
  action:string ->
  items:string list ->
  string list

val pp : Format.formatter -> t -> unit
