(** Binary min-heap of timestamped events.

    Orders by [(time, seq)] where [seq] is an insertion sequence number, so
    events scheduled for the same instant pop in FIFO order — the property
    that makes simulation runs deterministic.

    Times, seqs and values are kept in three arrays, the times unboxed:
    once the arrays have grown, a push allocates nothing, and neither do
    {!min_time} and {!take} beyond the float they return. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

(** [push h ~time ~seq v] inserts [v]. *)
val push : 'a t -> time:float -> seq:int -> 'a -> unit

(** [min_time h] is the timestamp of the minimum entry.  Raises
    [Invalid_argument] when [h] is empty. *)
val min_time : 'a t -> float

(** [take h] removes the minimum entry and returns its value.  Raises
    [Invalid_argument] when [h] is empty. *)
val take : 'a t -> 'a

(** [pop h] removes and returns the minimum entry, or [None] when empty. *)
val pop : 'a t -> (float * int * 'a) option

(** [peek_time h] is the timestamp of the minimum entry without removing. *)
val peek_time : 'a t -> float option
