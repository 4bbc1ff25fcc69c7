(** Mergeable bounded-memory quantile sketch (HDR-style log-linear).

    Positive values are binned by octave (the power-of-two range
    [[2^k, 2^(k+1))] that contains them) and then linearly into
    [2^sub_bits] equal-width sub-buckets per octave, so the sub-bucket
    holding a value [v] has width [2^k / 2^sub_bits <= v / 2^sub_bits].
    Reporting the sub-bucket midpoint therefore carries a {b relative
    error of at most [1 / 2^(sub_bits + 1)]} ({!error_bound}) for any
    value inside the sketch's dynamic range
    [[2^lo_exp, 2^(hi_exp + 1))] — with the defaults, sub-microsecond
    through multi-hour latencies in milliseconds at <= 1.6% error.
    Values outside the range clamp to the extreme bins (the bound does
    not hold for them); non-positive or NaN values land in a dedicated
    zero bin reported as [0].

    Memory is O(bins): octave rows are allocated lazily on first touch,
    so a sketch holds at most [n_octaves * 2^sub_bits] counters no
    matter how many values it absorbs ({!memory_words}), unlike
    [Cloudtx_metrics.Sample_set] which retains every observation.  Every
    histogram in a {!Registry} is a sketch.

    Sketches with equal [sub_bits] merge by adding bin counts
    ({!merge_into}), which is exact: a merged sketch equals the sketch
    of the concatenated streams. *)

type t

(** [create ()] — [sub_bits] (default 5, i.e. 32 sub-buckets per octave)
    trades memory for accuracy; must be in [0, 12]. *)
val create : ?sub_bits:int -> unit -> t

val sub_bits : t -> int

(** Worst-case relative error of a reported quantile for in-range
    values: [1 / 2^(sub_bits + 1)]. *)
val error_bound : t -> float

val observe : t -> float -> unit
val count : t -> int

(** Exact running sum/min/max/mean of every observation (tracked beside
    the bins, not reconstructed from them). *)
val sum : t -> float

val mean : t -> float
val min : t -> float
val max : t -> float

(** [percentile t p] interpolates between the bin midpoints holding the
    order statistics of ranks [floor r] and [ceil r], [r = p/100*(n-1)]
    — the same rank convention as [Cloudtx_metrics.Sample_set], so the
    result is within {!error_bound} (relative) of the exact
    interpolation's bracketing order statistics.  Raises
    [Invalid_argument] when empty or [p] outside [0, 100]. *)
val percentile : t -> float -> float

(** [merge_into dst src] adds [src]'s bins and running aggregates into
    [dst].  Raises [Invalid_argument] when [sub_bits] differ. *)
val merge_into : t -> t -> unit

(** Non-empty bins as [(upper_bound, count)], ascending; the zero bin
    (non-positive values) reports upper bound [0.].  A bin includes its
    lower edge and excludes its upper bound, so a value equal to an upper
    bound counts in the next bin.  Suitable as cumulative Prometheus
    [_bucket] boundaries. *)
val bins : t -> (float * int) list

(** Words currently retained (bins plus bookkeeping) — the bounded-memory
    assertion hook for the bench. *)
val memory_words : t -> int
