(** Write-ahead log for commit-protocol recovery.

    Models exactly what the paper's recovery discussion needs: forced
    (synchronous) versus non-forced records, so log complexity — "the
    number of times the protocol forcibly logs for recovery", 2n+1 for
    2PC/2PVC — is measurable, and replay, so crash tests can rebuild a
    participant's state.  Per Section V, a 2PVC participant "must forcibly
    log the set of (vi, pi) tuples along with its vote and truth value";
    the [Prepared] record carries those fields. *)

type record =
  | Begin_txn of { txn : string }
  | Prepared of {
      txn : string;
      writes : (string * Value.t) list;
      integrity_vote : bool;
      proof_truth : bool;
      policy_versions : (string * int) list;  (** (p_i, v_i) tuples. *)
    }
  | Decision of { txn : string; commit : bool }
  | End_txn of { txn : string }
  | Checkpoint of { active : string list }
      (** Fuzzy checkpoint: committed data is on disk; [active] names the
          transactions whose records must survive truncation. *)

type entry = { lsn : int; time : float; forced : bool; record : record }

type t

val create : unit -> t

(** [append t ~time ~forced record] returns the new record's LSN. *)
val append : t -> time:float -> forced:bool -> record -> int

(** Stable short name of a record's constructor, e.g. ["prepared"]. *)
val record_tag : record -> string

(** [set_observer t (Some f)] calls [f ~time ~forced ~tag] after every
    append; [None] (the default) disables the hook.  Lets the
    observability layer watch log writes without this module depending on
    it. *)
val set_observer :
  t -> (time:float -> forced:bool -> tag:string -> unit) option -> unit

(** Number of forced (synchronous) appends — the paper's log-complexity
    metric. *)
val force_count : t -> int

val length : t -> int

(** Entries in LSN order. *)
val entries : t -> entry list

(** [truncate_after t lsn] drops every record with LSN > [lsn]; models the
    tail lost in a crash before unforced records hit disk. *)
val truncate_after : t -> int -> unit

(** [checkpoint t ~time ~active] force-writes a [Checkpoint] record naming
    the currently active transactions; returns its LSN. *)
val checkpoint : t -> time:float -> active:string list -> int

(** [truncate_to_checkpoint t] reclaims the log prefix before the most
    recent checkpoint, keeping (a) the checkpoint itself and everything
    after it and (b) all records of the transactions the checkpoint names
    as active. No-op when no checkpoint exists. Returns records
    reclaimed. *)
val truncate_to_checkpoint : t -> int

(** Durable representation: one checksummed line per entry, LSN order.
    Append-only, so a crash can only damage the tail. *)
val serialize : t -> string

(** [load data] rebuilds a log from {!serialize} output, tolerating a torn
    tail: the first line whose checksum, JSON or schema fails to validate
    — a record cut mid-write by a crash — ends the log, and the longest
    valid prefix is recovered.  Returns the log and the number of
    lines dropped (0 = clean). *)
val load : string -> t * int

(** A transaction's last relevant state in the log. *)
type state =
  [ `No_trace  (** Never logged: presume per protocol variant. *)
  | `Active  (** Begin seen, no prepare: abort. *)
  | `Prepared of (string * Value.t) list * (string * int) list
    (** In doubt: must ask the coordinator. *)
  | `Committed of (string * Value.t) list
    (** The writes of its last [Prepared] record. *)
  | `Aborted
  | `Finished ]

(** Analysis pass over the log, as a recovering participant would run it:
    for [txn], the last relevant state. *)
val recover_txn : t -> txn:string -> state

(** [recover_all t] is {!recover_txn} for every transaction the log's
    records name, in order of first appearance, in one pass. *)
val recover_all : t -> (string * state) list
