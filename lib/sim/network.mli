(** Network model: per-message latency, loss, duplication, reordering and
    partitions.

    Deciding a message's fate is separated from delivering it so the model
    can be unit-tested without an engine; {!Transport} combines the two. *)

type t

(** [create ~latency ~rng] builds a model with reliable, in-order links:
    the commit protocols in the paper assume reliable channels, and faults
    are injected only through the setters below (the failure tests and the
    chaos campaign). *)
val create : latency:Latency.t -> rng:Splitmix.t -> t

(** [set_link t a b model] overrides the latency of the (undirected) link
    between [a] and [b] — e.g. a WAN hop between regions while everything
    else stays on the LAN model. *)
val set_link : t -> string -> string -> Latency.t -> unit

(** Remove a per-link override. *)
val clear_link : t -> string -> string -> unit

(** [set_drop t p] sets an independent loss probability per message
    (initially 0). *)
val set_drop : t -> float -> unit

(** [set_duplicate t p] sets an independent per-message duplication
    probability (initially 0): each extra copy gets its own latency draw,
    and another duplication coin flip, so bursts of copies are possible. *)
val set_duplicate : t -> float -> unit

(** [set_reorder_jitter t model] adds an extra randomized delay per
    delivery that can invert FIFO order on a link ([None], the initial
    setting, disables it). *)
val set_reorder_jitter : t -> Latency.t option -> unit

(** [set_link_drop t ~src ~dst p] sets a {e directional} loss probability
    on the [src]→[dst] link, on top of the global [drop] — the lossy-link
    gray fault (e.g. replies from one server vanish while requests get
    through).  [p <= 0.] clears it.  The coin is only flipped for links
    with an override, so runs without the fault consume the RNG stream
    identically. *)
val set_link_drop : t -> src:string -> dst:string -> float -> unit

val clear_link_drop : t -> src:string -> dst:string -> unit

(** [set_burst_extra t d] adds [d] ms to every delivery — the
    latency-burst gray fault.  Deterministic (no RNG draw); [0.] (the
    default) disables. *)
val set_burst_extra : t -> float -> unit

(** [set_slowdown t node d] adds [d] ms to every delivery [node] sends or
    receives — the slow-server gray fault.  Deterministic; [d <= 0.]
    clears. *)
val set_slowdown : t -> string -> float -> unit

val clear_slowdown : t -> string -> unit

(** [partition t a b] blocks traffic in both directions between [a] and
    [b]. *)
val partition : t -> string -> string -> unit

(** [heal t a b] removes the partition between [a] and [b]. *)
val heal : t -> string -> string -> unit

(** [heal_all t] removes every partition. *)
val heal_all : t -> unit

val partitioned : t -> string -> string -> bool

(** {2 A message's fate}

    The fabric asks for a message's copies one at a time: {!first_copy},
    then {!next_copy} until it answers none.  A delay is never negative,
    so a negative answer means none: the message is lost, or it has no
    further copy.  Both draw from the network's RNG only for the faults
    in force, and a quiet network (no partition, link override, link
    loss or slowdown) reads no fault table: with no loss, duplication or
    jitter set, a message costs one latency draw. *)

(** [first_copy t ~src ~dst] decides what happens to one message: the
    delay of its first delivery, or a negative number when it is lost.
    A message from a node to itself is delivered once with zero delay and
    is never lost or duplicated. *)
val first_copy : t -> src:string -> dst:string -> float

(** [next_copy t] is the delay of one more delivery (a duplicate) of the
    message {!first_copy} last decided, each with its own latency draw and
    another duplication coin flip, or a negative number when there is no
    further copy.  Without duplication it draws nothing. *)
val next_copy : t -> float
