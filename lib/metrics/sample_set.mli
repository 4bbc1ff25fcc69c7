(** Sample container with exact percentiles.

    Stores every observation (simulation scale makes this affordable) so the
    harness can report medians and tail percentiles of latency
    distributions. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float

(** [percentile t p] with [p] in [0, 100]. Raises [Invalid_argument] when
    empty or [p] out of range. Linear interpolation between closest ranks. *)
val percentile : t -> float -> float

val median : t -> float

(** Running extrema, O(1) — [infinity] / [neg_infinity] when empty. *)
val min : t -> float

val max : t -> float
