(** Datalog-style inference rules, with stratified negation.

    The paper defines an authorization policy as "a set of inference rules
    that are encoded by policy makers to capture systems access control
    regulations" and grants access when the rules can be satisfied from the
    user's credentials.  We realize that with function-free Horn clauses
    extended with negation-as-failure: each rule derives a head atom from
    ground instances of its body literals, where a negated literal holds
    when the atom is {e not} derivable.

    Example — the CompuMe policy from the paper's Section II, with an
    exception list:
    {[
      permit(U, read, customers) :- role(U, sales_rep),
                                    assigned(U, R),
                                    located(U, R),
                                    not suspended(U).
    ]}

    Negation must be {e stratified} (no recursion through [not]); the
    engine checks this when it compiles a rule set ({!Infer.compile}). *)

type term = Var of string | Const of string

type atom = { pred : string; args : term list }

(** A ground atom (no variables), i.e. a fact. *)
type fact = atom

(** A body literal: an atom to derive, or an atom that must not be
    derivable (negation as failure). *)
type literal = Pos of atom | Neg of atom

type t = { head : atom; body : literal list }

(** {1 Construction helpers} *)

val v : string -> term
val c : string -> term
val atom : string -> term list -> atom

(** [fact p args] is a ground atom; raises [Invalid_argument] if any
    argument is a variable. *)
val fact : string -> string list -> fact

(** [rule head body] — all-positive body. Checks range restriction (every
    head variable occurs in the body) and raises [Invalid_argument]
    otherwise. A rule with an empty body must be ground. *)
val rule : atom -> atom list -> t

(** [rule_literals head body] — general form.  Safety requires every
    variable of the head {e and of every negated literal} to occur in some
    positive literal; violations raise [Invalid_argument]. *)
val rule_literals : atom -> literal list -> t

(** Positive body atoms, in order. *)
val positive_body : t -> atom list

(** Negated body atoms, in order. *)
val negative_body : t -> atom list

val is_ground : atom -> bool

(** Structural equality on atoms. *)
val atom_equal : atom -> atom -> bool

val pp_atom : Format.formatter -> atom -> unit
val pp : Format.formatter -> t -> unit

(** The text of an atom, as [pp_atom] prints it. Credential signature
    payloads are built from it. *)
val atom_to_string : atom -> string
val to_string : t -> string
