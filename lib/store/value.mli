(** Values stored in the data servers' partitions, and the write
    operations transactions buffer against them. *)

type t =
  | Int of int
  | Text of string

val equal : t -> t -> bool

(** [as_int t] is the integer payload, or [None] for text. *)
val as_int : t -> int option

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** A buffered write: overwrite, or read-modify-write an integer (the
    debit/credit primitive funds transfers need). *)
type update =
  | Set of t
  | Add of int
      (** [Add k] on [Int n] yields [Int (n + k)]; on a missing or
          non-integer value it yields nothing — the item effectively
          disappears from the hypothetical state, which integrity
          constraints then reject. *)

(** [apply update prev] — the value after the update. *)
val apply : update -> t option -> t option
