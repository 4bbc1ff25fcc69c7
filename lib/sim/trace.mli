(** The wire view of a simulation run: every send, delivery, drop and
    protocol mark, in the order they happened.

    {!Transport} emits each wire event as an instant on its span tracer
    (see {!Transport.enable_tracing}) and {!of_tracer} reads them back, so
    the view costs nothing unless tracing is on.  This module owns both
    directions of that encoding.

    The benchmark harness renders the paper's figures from this view:
    message sequence charts (Figures 2 and 7) from [Send] entries, and the
    proof-evaluation timelines (Figures 3-6) from [Mark] entries tagged by
    the protocol layer. *)

type kind =
  | Send of { src : string; dst : string; label : string }
  | Recv of { src : string; dst : string; label : string }
  | Drop of { src : string; dst : string; label : string }
      (** Message lost by the network model. *)
  | Mark of { node : string; label : string }
      (** Protocol-level annotation, e.g. ["query_start"], ["proof_eval"],
          ["log_force:prepared"]. *)

type entry = { time : float; kind : kind }

(** [emit tracer kind] records [kind] as an instant at the tracer's clock:
    a wire event on its sender's track ([Recv] on its receiver's) with the
    other endpoint under ["peer"] and the message under ["label"]; a
    [Mark] on its node's track, named by its label, with no attributes.
    Callers guard on {!Cloudtx_obs.Tracer.enabled} so a disabled tracer
    allocates nothing. *)
val emit : Cloudtx_obs.Tracer.t -> kind -> unit

(** [of_tracer tracer] is every instant {!emit} recorded, in emission
    order.  Spans and instants with other shapes (such as ["wal.force"])
    are skipped. *)
val of_tracer : Cloudtx_obs.Tracer.t -> entry list

val pp_entry : Format.formatter -> entry -> unit

(** {1 Renderers} *)

(** Multi-line rendering, one {!pp_entry} per line. *)
val to_string : entry list -> string

(** Mermaid [sequenceDiagram] source: one arrow per delivered message
    ([Send] entries whose delivery is also traced render once), notes for
    [Mark] entries, dashed arrows for drops.  Paste into any mermaid
    renderer to get the paper's Figure 2/7-style charts. *)
val to_mermaid : entry list -> string

(** CSV export: [time,kind,src,dst,label] with RFC-4180 quoting; header
    row included. [Mark] entries put the node in [src]. *)
val to_csv : entry list -> string

(** JSONL export: one JSON object per entry with [time_ms], [kind]
    ([send]/[recv]/[drop]/[mark]), [src]/[dst] where applicable and
    [label].  [Mark] entries put the node in [src]. *)
val to_jsonl : entry list -> string
