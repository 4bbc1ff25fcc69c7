(** Serializability certifier: journal-driven history checking.

    Replays nothing — it folds over a flight-recorder journal's typed
    records (the same {!Journal_io} stream {!Audit} replays and
    {!Health} watches), extracts each
    committed transaction's read/write sets and the per-store version
    order, builds the direct serialization graph (DSG) and decides
    whether the committed history is serializable.

    Extraction rules (best-effort, seq-gap tolerant like {!Health}):
    - PS [Exec_result{Executed}] input records yield read events (the
      overlay reads the store returned) and buffer the query's write
      updates into the transaction's workspace model.
    - PS [Apply{commit=true}] action records install versions; since
      codec v3 they carry the machine-stamped per-key version order, and
      a repeated create record marks a crash epoch (version counters
      restart per epoch).  Pre-v3 journals fall back to journal order
      and the buffered write keys.
    - TM [Finish] action records supply outcomes for transactions with
      no [Apply] anywhere (read-only commits).
    - PS [Exec{snapshot=true}] action records mark the following reads
      as snapshot reads, mapped by version commit time vs the
      transaction's start timestamp; other reads map positionally (the
      newest version applied before the read record).

    DSG edges (each carries the journal seqs evidencing both ends):
    - WR: the reader observed the source's installed version.
    - WW: consecutive versions of one key at one store.
    - RW (anti-dependency): the reader observed the version the target
      immediately overwrote.

    The verdict is either a witness serial order (any topological order
    of the DSG) plus the Fekete snapshot-isolation test, or a minimal
    anomaly cycle named by the classic taxonomy — plus a value-level
    dirty-read check that catches reads of uncommitted workspaces, which
    never form DSG edges.  All decisions are deterministic functions of
    the journal bytes. *)

type edge_kind = Wr | Ww | Rw

type edge = {
  src : string;  (** transaction the dependency leaves *)
  dst : string;  (** transaction it enters *)
  kind : edge_kind;
  node : string;  (** store the conflict happened on *)
  key : string;
  src_seq : int;  (** journal seq evidencing the source end *)
  dst_seq : int;  (** journal seq evidencing the destination end *)
}

type anomaly_kind =
  | Lost_update  (** rw+ww 2-cycle on one key *)
  | Write_skew  (** rw+rw 2-cycle across keys *)
  | Non_repeatable_read  (** rw+wr 2-cycle on one key *)
  | Read_skew  (** rw+wr 2-cycle across keys (G-single) *)
  | Dirty_read  (** a committed read matched an uncommitted workspace *)
  | Serialization_cycle  (** any other DSG cycle (G2) *)

type anomaly = {
  anomaly : anomaly_kind;
  txns : string list;  (** transactions implicated, cycle order *)
  cycle : edge list;  (** the minimal cycle; [] for dirty reads *)
  seq_range : int * int;  (** journal seqs bounding the evidence *)
  detail : string;
}

type verdict =
  | Serializable of {
      order : string list;  (** witness serial order, all committed txns *)
      si : bool;
          (** passes the Fekete snapshot-isolation test: every DSG cycle
              carries two consecutive anti-dependency edges (trivially
              true here — the graph is acyclic) *)
    }
  | Anomalous of anomaly

type report = {
  records : int;  (** envelope records parsed *)
  decode_errors : int;  (** records skipped as undecodable *)
  committed : string list;  (** by first journal appearance *)
  aborted : string list;
  reads_mapped : int;  (** external reads mapped to a version *)
  versions : int;  (** installed versions across all stores *)
  edges : edge list;  (** the DSG, deduplicated, seq-ordered *)
  verdict : verdict;
}

(** {1 Incremental extraction}

    A fold step over {!Journal_io.record}s; the analysis runs once, in
    {!finish}. *)

type t

val create : unit -> t

(** Extract one record's history events; an [Undecodable] record is
    counted in [decode_errors] and skipped. *)
val step : t -> Journal_io.record -> unit

val finish : t -> report

(** {1 Whole journals} *)

(** Certify a journal given as its lines (header first).  [Error] only
    for an empty journal, a bad header or an unparseable record envelope
    (naming the line) — payload-level damage is tolerated and counted in
    [decode_errors]. *)
val run : lines:string list -> (report, string) result

val of_file : string -> (report, string) result

val kind_name : edge_kind -> string

(** ["lost update"], ["write skew"], ... *)
val anomaly_name : anomaly_kind -> string

(** One-line [t1 -rw(x@s1 #5->#9)-> t2 -...] rendering of an anomaly. *)
val describe_anomaly : anomaly -> string

(** One-line verdict summary for CLI tables. *)
val summary : report -> string

(** Export the DSG (committed transactions, conflict edges, anomaly
    cycle highlighted) for {!Cloudtx_obs.Dsg.to_dot} / [to_json]. *)
val to_dsg : report -> Cloudtx_obs.Dsg.t
