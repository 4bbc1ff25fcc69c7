(** Deterministic splittable pseudo-random number generator (SplitMix64).

    Every source of randomness in the simulator flows through one of these
    states so that a run is a pure function of its seed: identical seeds give
    identical traces, which the tests rely on.  [split] derives an
    independent stream, letting subsystems (network latency, workload
    arrivals, policy churn) draw without perturbing each other.

    The state is kept unboxed, so a draw allocates nothing beyond its
    result: an [int] or a [bool] allocates nothing at all. *)

type t

(** [create seed] is a fresh generator. Distinct seeds give independent
    streams of 2^64 period. *)
val create : int64 -> t

(** Next raw 64-bit output. Advances the state. *)
val next_int64 : t -> int64

(** [int t bound] is uniform in [0, bound); [bound] must be positive. *)
val int : t -> int -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [uniform t ~lo ~hi] is uniform in [lo, hi); requires [lo < hi]. *)
val uniform : t -> lo:float -> hi:float -> float

(** [exponential t ~mean] draws from Exp(1/mean); requires [mean > 0]. *)
val exponential : t -> mean:float -> float

(** [bool t ~p] is true with probability [p] (clamped to [0, 1]). *)
val bool : t -> p:float -> bool

(** [split t] advances [t] and returns a generator whose stream is
    independent of [t]'s subsequent outputs. *)
val split : t -> t

(** [choice t arr] picks a uniformly random element; [arr] must be
    non-empty. *)
val choice : t -> 'a array -> 'a
