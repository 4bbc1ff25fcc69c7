(** Online mean accumulator (Welford's update).

    Used by the benchmark harness to summarize per-run measurements
    (message counts, proof counts) without storing samples. *)

type t

(** [create ()] is an empty accumulator. *)
val create : unit -> t

(** [add t x] folds the observation [x] into [t]. *)
val add : t -> float -> unit

(** Arithmetic mean; 0 when empty. *)
val mean : t -> float
