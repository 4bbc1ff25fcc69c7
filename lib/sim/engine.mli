(** Discrete-event simulation driver.

    A simulation is a heap of timestamped thunks.  [run] repeatedly pops the
    earliest event, advances the clock to its timestamp and executes it;
    executing an event may schedule further events.  Ties are broken by
    scheduling order, so a run is fully deterministic. *)

type t

val create : unit -> t

(** Current simulated time (milliseconds). Starts at 0. *)
val now : t -> float

(** [schedule t ~delay f] runs [f] at [now t +. delay]. Negative delays are
    clamped to 0 (the event runs "now", after already-queued events for the
    current instant). *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f] at absolute [time]; clamped to [now]. *)
val schedule_at : t -> time:float -> (unit -> unit) -> unit

(** Number of events executed so far. *)
val steps : t -> int

(** Events still queued. *)
val pending : t -> int

(** [step t] executes the next event; false when the queue is empty. *)
val step : t -> bool

(** [set_observer t (Some f)] calls [f ~pending] before each event
    executes, the clock already at its time ([pending] excludes the
    event itself); [None] (the default) disables the hook.  Used by the
    observability layer to sample queue depth without the engine
    depending on it. *)
val set_observer : t -> (pending:int -> unit) option -> unit

(** [run ?until ?max_steps t] executes events until quiescence, until the
    clock would pass [until], or until [max_steps] events have run —
    whichever comes first.  Returns the reason it stopped. *)
val run : ?until:float -> ?max_steps:int -> t -> [ `Quiescent | `Time_limit | `Step_limit ]
