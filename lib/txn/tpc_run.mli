(** Synchronous, network-free executor for the {!Tpc} state machines.

    Delivers every emitted message immediately, in order.  Used by unit
    tests and by the complexity benches to count messages and forced log
    writes without simulator noise. *)

type stats = {
  outcome : bool;  (** Global decision. *)
  messages : int;  (** Total protocol messages exchanged. *)
  coordinator_forced : int;
  participants_forced : int;
  coordinator_log : string list;  (** Tags, in write order. *)
  participant_logs : (string * string list) list;
  applied : (string * bool) list;
      (** What each participant applied (commit/abort). *)
}

(** [run variant ~votes] plays one complete instance where participant [p]
    votes [List.assoc p votes]. Raises [Invalid_argument] on an empty vote
    list. *)
val run : Tpc.variant -> votes:(string * bool) list -> stats
