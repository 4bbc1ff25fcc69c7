(** Integrity constraints — the "data consistency" half of a safe
    transaction.

    A participant's YES/NO vote in 2PC (and in 2PVC's voting phase) reports
    whether applying the transaction's buffered writes would preserve these
    constraints.  Constraints read through a lookup function so they can be
    checked against a hypothetical state (committed data overlaid with a
    workspace) without mutating anything.

    Footprint contract: every constraint declares the keys its check
    reads, and the check reads no other key.  Its verdict is therefore a
    function of the values at those keys alone, which lets a server skip
    the constraints whose keys a transaction does not write (see
    {!Server.integrity_violations}).  The contract holds by construction:
    the combinators read only the keys they declare, and {!make} hides
    every other key from the check it wraps. *)

type lookup = string -> Value.t option

type t = private {
  name : string;
  keys : string list;  (** The only keys [check] reads. *)
  check : lookup -> bool;
}

(** [make ~name ~keys check] wraps an arbitrary predicate over [keys].
    [check] is given a lookup that answers [None] for any key missing
    from [keys], so such a key reads as absent in every state. *)
val make : name:string -> keys:string list -> (lookup -> bool) -> t

(** [non_negative key] — the integer at [key] must be >= 0 (missing or
    non-integer values violate it). *)
val non_negative : string -> t

(** [range key ~lo ~hi] — integer at [key] within [lo, hi] inclusive. *)
val range : string -> lo:int -> hi:int -> t

(** [sum_at_most keys ~bound] — the integers at [keys] must exist and sum
    to at most [bound]. *)
val sum_at_most : string list -> bound:int -> t

(** [sum_preserved keys ~total] — the integers at [keys] sum exactly to
    [total]; the classic funds-conservation constraint. *)
val sum_preserved : string list -> total:int -> t

(** [check_all constraints lookup] is the names of violated constraints
    (empty = integrity holds). *)
val check_all : t list -> lookup -> string list
