(** Per-server policy replica.

    Each cloud server holds its own copy of the policies of the domains
    whose data it serves.  Under the eventual-consistency model, updates
    reach different servers at different times, so replicas can lag the
    {!Admin} master — exactly the staleness the paper's schemes defend
    against.  [install] is monotone: an older version never overwrites a
    newer one (last-writer-wins on version numbers). *)

type t

val create : unit -> t

(** [install t p] applies the update unless the replica already holds the
    same or a newer version of that domain.  The policy it replaces drops
    its compiled plan ({!Policy.forget_plan}), so a plan lives only while
    its policy is installed somewhere and evaluated. *)
val install : t -> Policy.t -> [ `Installed | `Stale ]

val get : t -> domain:string -> Policy.t option

(** Version held for the domain; [None] when the domain is unknown. *)
val version : t -> domain:string -> Policy.version option

val domains : t -> string list
