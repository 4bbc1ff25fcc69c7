(** Forward-chaining inference over {!Rule} programs.

    [saturate] computes the least fixpoint of a rule set over a base of
    facts; [satisfies] answers the satisfiability question at the heart of a
    proof of authorization: can the policy's rules derive the requested
    permission from the presented credentials?

    Evaluation is split in two.  {!compile} stratifies a rule set, numbers
    the predicates its rules mention and resolves each rule's atoms to
    those numbers and its variables to slots, once.  {!run} keeps each
    such predicate's facts as a list of rows (argument arrays), indexed by
    its number, and saturates them stratum by stratum, joining each rule's
    body left to right over the rows of the predicate each atom names.  A
    proof builds no hash table: a predicate holds a few rows, so testing
    whether a fact is known scans that predicate's rows, which costs
    their number.  Building a relation of n rows thus costs about n{^2}/2
    comparisons: cheaper than hashing for the rows of a request of up to
    a few dozen items, dearer beyond.  Facts of predicates no rule mentions are kept aside as
    given and only read by {!facts}, {!size}, {!holds} and {!query}.

    A stratum whose rules read nothing it derives takes one pass.  A
    recursive one takes a full pass, then semi-naive rounds: each round
    joins every atom that names a predicate the stratum derives against
    only the rows the previous round added, until a round adds none.  A
    policy compiles its rules at its first evaluation and keeps the plan
    ({!Policy.permits_all}), so a proof pays only for {!run}.  A plan
    holds no per-evaluation state, so one plan serves every replica that
    shares the policy.

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

(** [holds3 db pred a b c] is [holds db] of the fact [pred(a, b, c)],
    without building it. *)
val holds3 : db -> string -> string -> string -> string -> bool

(** [query db pattern] is every binding of the pattern's variables that
    makes it hold, as association lists from variable name to constant. *)
val query : db -> Rule.atom -> (string * string) list list

(** [satisfies ~rules ~facts goal] saturates and checks the (ground)
    goal. *)
val satisfies : rules:Rule.t list -> facts:Rule.fact list -> Rule.atom -> bool
