(** Message delivery fabric connecting simulated nodes.

    A ['msg Transport.t] owns the engine, network model and observability
    sinks for one simulated cluster.  Nodes register a handler under their
    name; [send] consults the network model and schedules the receiver's
    handler.  The sinks (tracer, registry, journal) are off until enabled:
    with the tracer on, every send, delivery, drop and {!mark} becomes a
    {!Trace} instant; with the registry on, every send bumps
    [messages_total{type}] (the unit of the paper's message-complexity
    metric).

    Crashed nodes silently swallow traffic, modelling fail-stop servers for
    the recovery experiments.

    {2 Node lifecycle}

    A node is {!register}ed under its name and stays until it is
    {!unregister}ed (a coordinator restart swaps in a new handler that
    way) or {!retire}d.  For each registration the fabric counts the
    message copies in flight to or from it: a copy counts from when
    {!send} schedules it until it is dropped (crashed or unregistered
    receiver) or the receiver's handler returns, and a {!send_after}
    counts from when it is scheduled.  [retire] removes the node at once
    when nothing is in flight, or else when its last copy settles; until
    then a retiring node still sends and receives as before.

    Why retirement never makes a send find its receiver gone: a caller
    retires a node only once nothing but a reply can still reach it (a
    coordinator whose participants all acknowledged a forced decision),
    and every reply is caused by a copy in flight or a pending
    {!send_after}.  A retiring node outlives all of those, including the
    copies its own handler sends while retiring, so every reply still
    finds it.  That matters for determinism: a send to an unregistered
    node is dropped without consulting {!Network.first_copy}, so it draws
    nothing from the network's RNG, and a node forgotten too early would
    shift every later latency sample of the run.

    A registration's count belongs to that registration: copies
    scheduled before a node re-registered under the same name never
    remove the new registration.

    {2 Duplicate suppression}

    The network may deliver one send several times
    ({!Network.set_duplicate}).  Those copies share one duplicate filter,
    which lives exactly as long as the copies ({!filters} counts the live
    ones); a send with one copy carries none.  A registration made with
    [~dedup:true] takes the first copy that reaches it and sees the later
    ones suppressed: they are traced as received, then marked
    [dedup:<label>] on the receiver, and its handler does not run.
    Suppression compares against the registration that took a copy, so a
    node that re-registered after a restart still sees later copies, and
    a node that only crashed (its registration kept) still suppresses
    them.  A copy swallowed by a crashed receiver was not delivered and
    does not count. *)

type 'msg t

(** [create ~label_of ()] builds an empty fabric with its own engine.
    [label_of] renders a message for traces and metrics; [latency]
    defaults to {!Latency.lan}; [seed] fixes all randomness. *)
val create :
  ?seed:int64 ->
  ?latency:Latency.t ->
  label_of:('msg -> string) ->
  unit ->
  'msg t

val engine : _ t -> Engine.t
val network : _ t -> Network.t

(** The fabric's span tracer; {!Cloudtx_obs.Tracer.noop} until
    {!enable_tracing} is called, so instrumentation is free by default. *)
val tracer : _ t -> Cloudtx_obs.Tracer.t

(** The fabric's metrics registry; {!Cloudtx_obs.Registry.noop} until
    {!enable_metrics} is called. *)
val registry : _ t -> Cloudtx_obs.Registry.t

(** [enable_tracing t] installs (once) and returns a live tracer clocked
    by simulated time, so exported traces are deterministic.  Every
    [send]/[mark] from then on also lands in the tracer as an instant
    event; {!Trace.of_tracer} reads them back as the wire view. *)
val enable_tracing : _ t -> Cloudtx_obs.Tracer.t

(** [enable_metrics t] installs (once) and returns a live registry; also
    hooks the engine to sample queue depth ([sim.pending_events]). *)
val enable_metrics : _ t -> Cloudtx_obs.Registry.t

(** The fabric's windowed time series; [None] until
    {!enable_timeseries} is called. *)
val timeseries : _ t -> Cloudtx_obs.Timeseries.t option

(** [enable_timeseries t] installs (once) and returns a windowed
    {!Cloudtx_obs.Timeseries.t} aligned to the fabric's clock: sim-time
    starts at 0, so window 0 opens at the engine's epoch and window
    edges fall on exact multiples of [width_ms] of simulated time.
    Feeding it is the observer's job (see [Cloudtx_core.Health.attach]);
    the fabric only owns the window/clock convention. *)
val enable_timeseries :
  ?width_ms:float -> _ t -> Cloudtx_obs.Timeseries.t

(** The fabric's flight-recorder journal; {!Cloudtx_obs.Journal.noop}
    until {!enable_journal} is called. *)
val journal : _ t -> Cloudtx_obs.Journal.t

(** [enable_journal ?format ?max_buffer_bytes ?path t] installs (once)
    and returns a live journal clocked by simulated time; [format]
    selects JSONL (default) or binary encoding, and with [path] records
    are also written through to that file.  [max_buffer_bytes] caps
    the in-memory buffer (drop-oldest); evictions feed the registry's
    [journal.dropped] counter when metrics are enabled.  The protocol
    drivers record every machine step from then on. *)
val enable_journal :
  ?format:Cloudtx_obs.Journal.format ->
  ?max_buffer_bytes:int ->
  ?path:string ->
  _ t ->
  Cloudtx_obs.Journal.t

(** Simulated now, for convenience. *)
val now : _ t -> float

(** A private RNG stream split off the fabric seed, for workloads. *)
val fork_rng : _ t -> Splitmix.t

(** [register ?dedup t name handler] installs the node.  Raises
    [Invalid_argument] on duplicate names.  Handler receives
    [(src, msg)].  With [dedup] (default false) the node sees each send
    once however many copies the network makes (see above). *)
val register :
  ?dedup:bool -> 'msg t -> string -> (src:string -> 'msg -> unit) -> unit

(** [unregister t name] removes the node's handler at once (e.g. to swap
    in a recovery handler after a restart).  In-flight messages to [name]
    are delivered to whichever handler is registered at delivery time, or
    dropped if none is. *)
val unregister : _ t -> string -> unit

(** [retire t name] removes the node once no copy is in flight to or from
    it: at once if none is, else when the last one settles.  No-op for an
    unregistered name.  A coordinator retires when nothing can reach it
    any more. *)
val retire : _ t -> string -> unit

val registered : _ t -> string -> bool

(** Duplicate filters alive: sends the network duplicated whose copies
    have not all settled. *)
val filters : _ t -> int

(** [crash t name] makes the node drop all incoming traffic (fail-stop). *)
val crash : _ t -> string -> unit

(** [recover t name] lets a crashed node receive again. *)
val recover : _ t -> string -> unit

val crashed : _ t -> string -> bool

(** [send t ~src ~dst msg] schedules delivery per the network model.
    With the registry on it bumps [messages_total{type=<label>}]; with the
    tracer on it emits the send and, later, each delivery or drop.
    Unknown destinations are traced as drops.  [label_of] runs only for
    the sinks that are on, so with them off a send that the network
    delivers once allocates its delivery event and a few float boxes. *)
val send : 'msg t -> src:string -> dst:string -> 'msg -> unit

(** [send_after t ~delay ~src ~dst msg] is [send t ~src ~dst msg] run
    [delay] ms from now (a reply that waits on local work), counted in
    flight at both ends from now on, so neither retires in between. *)
val send_after :
  'msg t -> delay:float -> src:string -> dst:string -> 'msg -> unit

(** [at t ~delay f] schedules local work (not a message, not counted). *)
val at : _ t -> delay:float -> (unit -> unit) -> unit

(** [mark t ~node label] records a protocol annotation in the trace; a
    no-op while tracing is off, so callers that build [label] guard on
    [Cloudtx_obs.Tracer.enabled (tracer t)]. *)
val mark : _ t -> node:string -> string -> unit

(** Run the engine (see {!Engine.run}). *)
val run : ?until:float -> ?max_steps:int -> _ t -> [ `Quiescent | `Time_limit | `Step_limit ]
