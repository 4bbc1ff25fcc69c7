(** Offline replay auditor for flight-recorder journals.

    Given a journal written by {!Cloudtx_obs.Journal} (via the
    {!Manager}/{!Participant} drivers), [run] re-drives fresh
    {!Cloudtx_protocol.Tm_machine}/{!Cloudtx_protocol.Ps_machine}
    instances from the journaled inputs alone and verifies, with no
    access to the live run:

    - {b Conformance}: every action a replayed machine emits matches the
      recorded one byte-for-byte (the machines are deterministic, so any
      divergence proves the journal was mutated or the machines changed);
    - {b Integrity}: the header is valid, [seq] is gap-free (a gap proves
      a dropped record), and every input's recorded actions are present;
    - {b Atomic commitment}: AC1 (all nodes that decide a transaction
      decide the same value), AC2 (commit only when no participant voted
      NO), AC3 (no node decides twice), and every [Apply{commit}] on a
      node is preceded by that node's [Prepare] (forced vote record);
    - {b Soundness}: at every commit the TM's proof view satisfies the
      scheme's trusted-transaction definition ({!Trusted.check}), with
      master versions reconstructed from the [Master_version_reply]
      messages that TM received;
    - {b Accounting}: Table I protocol messages, proof evaluations and
      forced log writes, recomputed from the journal alone (exposed in
      the {!report} for comparison against the live registry and the
      {!Complexity} closed forms).

    Diagnostics are pointed: the first divergent [seq], expected
    vs. got.  Counts assume loss-free delivery (the master is not a
    journaled node, so its sends are only visible as deliveries). *)

type report = {
  records : int;  (** Journal records replayed (header excluded). *)
  nodes : int;  (** Distinct machines (TMs + participants). *)
  transactions : int;  (** TM [Finish] actions seen. *)
  commits : int;
  aborts : int;
  protocol_messages : int;
      (** Messages under {!Message.protocol_labels} — Table I's metric. *)
  proofs : int;  (** Proof evaluations ({!Ps_machine.input.Evaluated}). *)
  forced_logs : int;  (** TM decision forces + participant votes/decisions. *)
}

val report_to_string : report -> string

(** {1 Incremental audit}

    The auditor is a fold step over {!Journal_io.record}s, so a caller
    that already decodes a journal (the chaos campaign) audits it in the
    same pass as its other checks. *)

type t

(** [create ~version] — a fresh auditor for a journal whose header
    carries format [version] (older versions render some actions
    differently; replayed actions are compared at this version). *)
val create : version:int -> t

(** Replay one record.  The first failure sticks: later records are
    ignored and {!finish} reports it. *)
val step : t -> Journal_io.record -> unit

(** End-of-journal checks (unmatched actions, AC1/AC2) and the report;
    [Error] names the first divergent [seq] and what was expected vs.
    recorded. *)
val finish : t -> (report, string) result

(** {1 Whole journals} *)

(** [run ~lines] audits one journal, header line first. *)
val run : lines:string list -> (report, string) result

(** [of_file path] reads a journal (JSONL or binary, auto-detected) and
    audits it.  Both formats decode to the same typed records
    ({!Journal_io}), so the replay — and the verdict — is identical
    across formats. *)
val of_file : string -> (report, string) result
