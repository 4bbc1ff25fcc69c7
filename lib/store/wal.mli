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

(** [crash t] drops every record after the last forced one: the tail a
    crash loses before unforced records reach disk.  Costs the records it
    drops, not the log's length. *)
val crash : t -> unit

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

(** What a restart reads back from the log. *)
type recovery = {
  txns : (string * state * bool) list;
      (** Every transaction the records name, in order of first
          appearance: its {!recover_txn} state and the integrity vote of
          its last [Prepared] record ([false] without one). *)
  decided : string list;
      (** The transactions with a [Decision] record, in the order of their
          first one. *)
}

(** [recover t] is the restart's analysis, in one pass over the log. *)
val recover : t -> recovery
