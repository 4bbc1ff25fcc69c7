(** Two-Phase Commit — the paper's baseline atomic commit protocol
    (Figure 7), as pure coordinator/participant state machines.

    The machines emit {!action} lists instead of doing I/O, so the
    simulator interprets them over a lossy network while the unit tests
    drive them with hand-crafted message sequences.  Log records are
    tagged forced/non-forced so the paper's log-complexity metric (2n+1
    forced writes for basic 2PC) is measurable directly.

    {2 Variants}

    - {b Basic}: participant forces a [prepared] record before voting YES
      and a [decision] record before acking; coordinator forces its
      decision record and writes a non-forced [end] record after all acks.
    - {b Presumed abort} (PrA): no information means abort — the
      coordinator does not force abort decisions and participants neither
      force abort records nor ack aborts.
    - {b Presumed commit} (PrC): the coordinator forces a [collecting]
      record naming the participants before voting; commit decisions are
      then not forced and participants do not ack commits; aborts behave
      like basic.

    Per the paper (Section V, Recovery), these optimizations apply
    unchanged to 2PVC because its logging is also strictly before/after
    the voting phase. *)

type variant = Basic | Presumed_abort | Presumed_commit

val variant_name : variant -> string

(** Whether the decision record is forced under [variant]: always under
    Basic, for commits under presumed abort, for aborts under presumed
    commit.  A participant that forced its decision never recovers in
    doubt, so it never inquires again. *)
val decision_forced : variant -> commit:bool -> bool

(** Wire messages. [Vote_request] is the "Prepare" of Figure 7. *)
type msg =
  | Vote_request
  | Vote of bool  (** YES / NO. *)
  | Decision of bool  (** commit / abort. *)
  | Ack

(** What a machine wants done. [dst] is a node name; the coordinator
    addresses participants and vice versa ([`Coordinator]). *)
type action =
  | Send of { dst : [ `Coordinator | `Node of string ]; msg : msg }
  | Force_log of string  (** Synchronous log write with this tag. *)
  | Write_log of string  (** Non-forced log write. *)
  | Apply of bool  (** Participant: commit (true) / abort the workspace. *)
  | Outcome of bool  (** Coordinator: global decision reached. *)
  | Done  (** Machine finished; resources releasable. *)

(** {1 Coordinator} *)

type coordinator

val coordinator :
  txn:string -> participants:string list -> variant -> coordinator

(** Kick off the voting phase. *)
val coord_start : coordinator -> action list

(** A vote arrived. Votes from unknown or duplicate senders raise
    [Invalid_argument]. *)
val coord_on_vote : coordinator -> from:string -> yes:bool -> action list

val coord_on_ack : coordinator -> from:string -> action list

(** The decision, once reached. *)
val coord_outcome : coordinator -> bool option

(** What a recovering coordinator with no decision record concludes. *)
val coord_presumption : variant -> [ `Abort | `Commit_if_collecting ]

(** {1 Participant} *)

type participant

val participant : txn:string -> name:string -> variant -> participant

(** [part_on_vote_request p ~vote] — the local vote is supplied by the
    caller (integrity check result). *)
val part_on_vote_request : participant -> vote:bool -> action list

val part_on_decision : participant -> commit:bool -> action list

(** What a recovering participant concludes for an in-doubt (prepared,
    no decision) transaction: ask the coordinator. With no prepared
    record: presume per variant. *)
val part_presumption : variant -> prepared:bool -> [ `Ask | `Abort ]
