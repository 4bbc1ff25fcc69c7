(** Pure participant (data-server) state machine for 2PV / 2PVC (sans-IO).

    The machine owns the protocol decisions the paper requires of a
    participant — what to evaluate, when to force-log the prepare record,
    how to vote, when a parked query retries or dies — while everything
    that touches a store, a lock table, a policy replica or a clock is
    expressed as an {!action} the driver interprets and (where needed)
    answers with a follow-up {!input}:

    + {!action.Exec} → {!input.Exec_result} (workspace execution outcome);
    + {!action.Eval} → {!input.Evaluated} (proof evaluations + policies in
      force, with the continuation echoed back verbatim);
    + {!action.Prepare} → {!input.Prepared} (the integrity vote, after the
      prepared record was force-logged);
    + {!action.Check_read_only} → {!input.Read_only_result};
    + {!action.Apply} / {!action.Forget} release locks; the driver feeds
      the resulting {!Cloudtx_store.Lock_manager.release} back as a
      {!input.Release} {e after} the current action list is fully
      interpreted, which keeps decision acks ahead of retried queries on
      the wire. *)

type eval_cont =
  | To_execute_reply of {
      reply_to : string;
      query_id : string;
      reads : (string * Cloudtx_store.Value.t option) list;
    }
  | To_validate_reply of { reply_to : string; round : int }
  | To_commit_reply of { reply_to : string; round : int }
  | To_update_reply of {
      reply_to : string;
      round : int;
      reply_with : [ `Validate | `Commit ];
    }
  | To_read_only_reply of { reply_to : string; round : int; vote : bool }

type exec_result =
  | Executed of (string * Cloudtx_store.Value.t option) list
  | Blocked
  | Die

type action =
  | Send of {
      dst : string;
      msg : Message.t;
      after_proofs : int;
      credentials : Cloudtx_policy.Credential.t list;
    }
      (** Send [msg], delayed by the status-check cost of [after_proofs]
          proof evaluations over [credentials] (zero = immediate). *)
  | Begin_work of { txn : string; ts : float }
  | Exec of {
      txn : string;
      ts : float;
      query : Cloudtx_txn.Query.t;
      evaluate : bool;
      reply_to : string;
      snapshot : bool;
    }
      (** Run [query] in [txn]'s workspace ([snapshot]: MVCC read as of
          [ts], never blocks) and answer with {!input.Exec_result},
          echoing [query], [evaluate] and [reply_to]. *)
  | Eval of {
      txn : string;
      subject : string;
      credentials : Cloudtx_policy.Credential.t list;
      queries : Cloudtx_txn.Query.t list;
      with_proofs : bool;
      with_policies : bool;
      cont : eval_cont;
    }
      (** Evaluate proofs for [queries] (when [with_proofs]) and collect
          the distinct policies in force (when [with_policies]); answer
          with {!input.Evaluated}, echoing [cont]. *)
  | Check_read_only of { txn : string; reply_to : string; round : int }
  | Prepare of {
      txn : string;
      proof_truth : bool;
      policy_versions : (string * int) list;
    }
      (** Force-log the prepared record; answer with {!input.Prepared}. *)
  | Apply of {
      txn : string;
      commit : bool;
      forced : bool;
      writes : (string * int) list;
    }
      (** Commit/abort the workspace, finish the transaction, release its
          locks.  On commit, [writes] stamps each distinct key the
          transaction wrote here with its position in this store's
          per-key version order (1, 2, ... — machine-computed, so replay
          reproduces it byte-for-byte; counters restart with each crash
          epoch).  Aborts carry [[]]. *)
  | Forget of { txn : string }
      (** Read-only release: drop the workspace without a decision. *)
  | Install of { policies : Cloudtx_policy.Policy.t list; announce : bool }
      (** Install policies into the replica ([announce]: emit the
          [policy_installed] marker for fresh installs). *)
  | Wait_open of { txn : string; query_id : string }
      (** The transaction parked on a lock: open its [lock.wait] span. *)
  | Wait_close of { txn : string; outcome : string; killed_by : string option }
      (** The park resolved ([outcome] = ["granted"] | ["die"] | ["abort"];
          [killed_by] is the transaction whose release triggered a
          wait-die kill — drivers link the victim's [lock.wait] span to
          the killer's [txn] span with it). *)
  | Arm_inquiry of { txn : string; epoch : int; delay : float }
      (** Start a timer; deliver {!input.Inquiry_fired} with this epoch
          when it fires.  Any later activity on the transaction re-arms
          with a higher epoch (stale epochs are ignored), so the inquiry
          only triggers after [delay] of coordinator silence. *)
  | Mark of string

type input =
  | Deliver of { src : string; msg : Message.t }
  | Exec_result of {
      txn : string;
      query : Cloudtx_txn.Query.t;
      evaluate : bool;
      reply_to : string;
      result : exec_result;
    }
  | Evaluated of {
      txn : string;
      proofs : Cloudtx_policy.Proof.t list;
      policies : Cloudtx_policy.Policy.t list;
      cont : eval_cont;
    }
  | Prepared of { txn : string; vote : bool }
  | Read_only_result of {
      txn : string;
      reply_to : string;
      round : int;
      read_only : bool;
      integrity_ok : bool;
    }
  | Release of {
      by : string option;
      release : Cloudtx_store.Lock_manager.release;
    }
  | Inquiry_fired of { txn : string; epoch : int }
      (** An {!action.Arm_inquiry} timer fired.  If the transaction is
          still live and untouched since: a prepared participant sends the
          paper's [Inquiry] to its coordinator (and re-arms); one that
          never voted aborts unilaterally — it made no promise, and a
          later [Commit_request] will find no workspace and vote NO. *)
  | Recovered of {
      decided : string list;
      in_doubt : (string * bool * string list) list;
    }
      (** Restart: re-seed the decided-transaction memory and the in-doubt
          transactions (with their WAL-recorded integrity votes and the
          keys their WAL prepared records write — the executed queries are
          gone) from the recovered log; sends an [Inquiry] per in-doubt
          transaction. *)

type t

(** [create ~name ()] — [name] is the server's node name; [variant]
    selects the decision-logging discipline (default
    {!Cloudtx_txn.Tpc.Basic}); [inquiry_timeout] > 0 arms a per-transaction
    inactivity timer driving the termination protocol (default 0:
    disabled, the paper's reliable-coordinator assumption). *)
val create :
  name:string ->
  ?variant:Cloudtx_txn.Tpc.variant ->
  ?inquiry_timeout:float ->
  unit ->
  t

(** Advance the machine by one input.  Raises [Invalid_argument] on
    messages a correct peer could not have sent. *)
val handle : t -> input -> action list

val name : t -> string

(** Queries executed here for [txn], oldest first. *)
val queries_of : t -> txn:string -> Cloudtx_txn.Query.t list

(** Transactions this participant voted on and still awaits a decision
    for (the in-doubt ones), sorted. *)
val in_doubt : t -> string list

(** Fail-stop crash: wipe all per-transaction protocol state. *)
val reset : t -> unit
