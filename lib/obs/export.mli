(** Span exporters.

    {!to_chrome} renders Chrome [trace_event] JSON — load the file in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto} to see the
    transaction lifecycle laid out per node. *)

(** Chrome trace-event JSON.  Each distinct span track becomes a thread
    (named via [thread_name] metadata); spans are complete ([ph = "X"])
    events, instants are [ph = "i"].  Timestamps are microseconds as the
    format requires; the tracer's millisecond clock is scaled by 1000.
    Spans still open at export time are emitted with [dur = 0] and an
    ["open": true] argument.  A finished [lock.wait] span with a
    [killed_by] attribute additionally emits a flow-event pair
    ([ph = "s"]/["f"]) linking the wait-die victim to the killer
    transaction's [txn] span, so the UI draws the victim->killer arrow
    instead of burying the relationship in args. *)
val to_chrome : Tracer.t -> string
