(** Latency blame collector: flight-recorder records → critical-path
    timelines (DESIGN §9).

    The protocol-aware half of the blame engine: a fold {!step} over the
    same typed {!Journal_io.record} stream the {!Health} bridge reads —
    live, as a journal observer ({!attach}), or offline, by replaying a
    journal file of either format or its lines ({!of_file}/{!of_lines})
    — that reconstructs, per transaction, the causal timeline of
    {!Cloudtx_obs.Critical_path} segments:

    - The coordinator's machine steps are instantaneous in the
      discrete-event simulation (every action shares its input's
      timestamp), so wall-clock only passes {e between} consecutive
      records on the TM's node.  Each such gap is one segment, blamed on
      the record that closed it: a delivered [Master_version_reply]
      makes it a policy fetch, an [Execute_reply] a query round-trip, a
      [Validate_reply]/[Commit_reply] a 2PV/2PVC round, a
      [Decision_ack] decision propagation, a timer fire a
      retransmission/watchdog stall, an [Inquiry] an inquiry stall.
    - Server-side [Wait_open]/[Wait_close] records (wait-die parks) and
      [Eval]→[Evaluated] intervals for the transaction are carved out
      of the enclosing round-trip gap as [lock.wait] / [proof.eval]
      sub-segments, preserving the tiling.
    - [Phase_open] marks partition the segments into the same
      execute/commit/decide phases the registry histograms use, so the
      aggregate blame totals reconcile with [phase_*_ms].

    Because the segments tile [submit, finish], their durations sum to
    the end-to-end latency within {!Cloudtx_obs.Critical_path.slack_bound_ms}.
    The collector is a pure function of the record stream, so a live
    collection and an offline replay of the same journal render
    byte-identical output ({!to_json}). *)

type t

(** [create ()] — [keep_timelines] retains every finished timeline for
    {!timelines}/{!find} (explain paths; unbounded memory).  Default
    [false]: only bounded aggregate state plus the [top_k] (default 5)
    slowest timelines are kept. *)
val create : ?keep_timelines:bool -> ?top_k:int -> unit -> t

(** Feed one decoded journal record. *)
val step : t -> Journal_io.record -> unit

(** [attach journal] registers a collector on the journal's live
    records through {!Journal_io.attach} — the live path.  Composes with
    {!Health.attach}, sharing each record value: a typed record as it
    was written, an event or raw write decoded once. *)
val attach : ?keep_timelines:bool -> ?top_k:int -> Cloudtx_obs.Journal.t -> t

(** Replay journal lines (header first).  [Error] names the first line
    whose header or record envelope is bad. *)
val of_lines :
  ?keep_timelines:bool -> ?top_k:int -> string list -> (t, string) result

(** Replay a journal file of either format ({!Journal_io.fold_file});
    [Error] names the first bad line or frame. *)
val of_file :
  ?keep_timelines:bool -> ?top_k:int -> string -> (t, string) result

(** Transactions that reached [Finish]. *)
val finished : t -> int

(** Transactions still open at the end of the stream (not aggregated). *)
val unfinished : t -> int

(** Records whose payload failed to decode. *)
val decode_errors : t -> int

val agg : t -> Cloudtx_obs.Critical_path.agg

(** Finished timelines in finish order (empty unless [keep_timelines]). *)
val timelines : t -> Cloudtx_obs.Critical_path.timeline list

(** Lookup one finished transaction (requires [keep_timelines]). *)
val find : t -> txn:string -> Cloudtx_obs.Critical_path.timeline option

(** The slowest finished transaction (available regardless of
    [keep_timelines] — the top-k slowest always retain timelines). *)
val slowest : t -> Cloudtx_obs.Critical_path.timeline option

(** Finished timelines whose segments fail to cover the end-to-end
    latency within the documented slack (analysis violation: exit 1). *)
val uncovered : t -> Cloudtx_obs.Critical_path.timeline list

(** Deterministic blame report (aggregate + slowest), byte-identical
    between live collection and offline replay of the same journal. *)
val to_json : t -> string

(** The markdown blame section ({!Cloudtx_obs.Critical_path.agg_to_markdown}
    plus the collector's counters) for [cloudtx report]/[blame --md]. *)
val to_markdown_lines : t -> string list
