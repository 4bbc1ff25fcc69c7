(** Forward-chaining inference over {!Rule} programs.

    [saturate] computes the least fixpoint of a rule set over a base of
    facts; [satisfies] answers the satisfiability question at the heart of a
    proof of authorization: can the policy's rules derive the requested
    permission from the presented credentials?

    Evaluation is split in two.  {!compile} stratifies a rule set and
    resolves each rule's variables to slots, once; {!run} saturates a fact
    base over that plan, stratum by stratum, joining each rule's body
    against the facts of the predicate it names (the base is indexed by
    predicate).  A stratum whose rules read nothing it derives takes one
    pass; a recursive one repeats until a pass derives nothing new.  A
    policy compiles its rules at its first evaluation and keeps the plan
    ({!Policy.permits_all}), so a proof pays only for {!run}.

    A negation cycle surfaces as [Invalid_argument] from {!compile}: from
    {!saturate} and {!satisfies} on every call, from a policy at its first
    evaluation. *)

(** A stratified, compiled rule set. *)
type plan

(** [compile rules] stratifies [rules]. Raises [Invalid_argument] if they
    recurse through negation. *)
val compile : Rule.t list -> plan

(** Derived fact database. *)
type db

(** [run plan ~facts] derives everything derivable from [facts]. Raises
    [Invalid_argument] if any fact is non-ground. *)
val run : plan -> facts:Rule.fact list -> db

(** [saturate ~rules ~facts] is [run (compile rules) ~facts]. *)
val saturate : rules:Rule.t list -> facts:Rule.fact list -> db

(** All facts (base and derived) in the database, in ascending order of
    (predicate, arguments). *)
val facts : db -> Rule.fact list

val size : db -> int

(** [holds db atom] — is this ground atom in the database? Raises
    [Invalid_argument] on a non-ground query. *)
val holds : db -> Rule.atom -> bool

(** [query db pattern] is every binding of the pattern's variables that
    makes it hold, as association lists from variable name to constant. *)
val query : db -> Rule.atom -> (string * string) list list

(** [satisfies ~rules ~facts goal] saturates and checks the (ground)
    goal. *)
val satisfies : rules:Rule.t list -> facts:Rule.fact list -> Rule.atom -> bool
