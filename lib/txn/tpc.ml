type variant = Basic | Presumed_abort | Presumed_commit

let variant_name = function
  | Basic -> "basic"
  | Presumed_abort -> "presumed-abort"
  | Presumed_commit -> "presumed-commit"

type msg = Vote_request | Vote of bool | Decision of bool | Ack

type action =
  | Send of { dst : [ `Coordinator | `Node of string ]; msg : msg }
  | Force_log of string
  | Write_log of string
  | Apply of bool
  | Outcome of bool
  | Done

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)
(* ------------------------------------------------------------------ *)

type cstate = C_init | C_voting | C_acking | C_done

type coordinator = {
  txn : string;
  participants : string list;
  variant : variant;
  mutable cstate : cstate;
  votes : (string, bool) Hashtbl.t;
  acks : (string, unit) Hashtbl.t;
  mutable decision : bool option;
}

let coordinator ~txn ~participants variant =
  if participants = [] then invalid_arg "Tpc.coordinator: no participants";
  {
    txn;
    participants;
    variant;
    cstate = C_init;
    votes = Hashtbl.create 8;
    acks = Hashtbl.create 8;
    decision = None;
  }

let broadcast c msg =
  List.map (fun p -> Send { dst = `Node p; msg }) c.participants

let coord_start c =
  if c.cstate <> C_init then invalid_arg "Tpc.coord_start: already started";
  c.cstate <- C_voting;
  let prelude =
    match c.variant with
    | Presumed_commit -> [ Force_log "collecting" ]
    | Basic | Presumed_abort -> []
  in
  prelude @ broadcast c Vote_request

(* Forced/non-forced decision logging and ack expectations per variant. *)
let decision_forced variant ~commit =
  match variant with
  | Basic -> true
  | Presumed_abort -> commit
  | Presumed_commit -> not commit

let decision_log variant commit =
  let tag = if commit then "commit" else "abort" in
  if decision_forced variant ~commit then Force_log tag else Write_log tag

(* Acks are expected exactly for the decisions participants force. *)
let acks_expected variant commit = decision_forced variant ~commit

let decide c commit =
  c.decision <- Some commit;
  let log = decision_log c.variant commit in
  let sends = broadcast c (Decision commit) in
  if acks_expected c.variant commit then begin
    c.cstate <- C_acking;
    (log :: sends) @ [ Outcome commit ]
  end
  else begin
    c.cstate <- C_done;
    (log :: sends) @ [ Outcome commit; Done ]
  end

let coord_on_vote c ~from ~yes =
  if c.cstate <> C_voting then
    invalid_arg "Tpc.coord_on_vote: not collecting votes";
  if not (List.mem from c.participants) then
    invalid_arg (Printf.sprintf "Tpc.coord_on_vote: unknown participant %s" from);
  if Hashtbl.mem c.votes from then
    invalid_arg (Printf.sprintf "Tpc.coord_on_vote: duplicate vote from %s" from);
  Hashtbl.replace c.votes from yes;
  if Hashtbl.length c.votes = List.length c.participants then begin
    let all_yes =
      List.for_all (fun p -> Hashtbl.find c.votes p) c.participants
    in
    decide c all_yes
  end
  else []

let coord_on_ack c ~from =
  if c.cstate <> C_acking then invalid_arg "Tpc.coord_on_ack: not expecting acks";
  if not (List.mem from c.participants) then
    invalid_arg (Printf.sprintf "Tpc.coord_on_ack: unknown participant %s" from);
  Hashtbl.replace c.acks from ();
  if Hashtbl.length c.acks = List.length c.participants then begin
    c.cstate <- C_done;
    [ Write_log "end"; Done ]
  end
  else []

let coord_outcome c = c.decision

let coord_presumption = function
  | Basic | Presumed_abort -> `Abort
  | Presumed_commit -> `Commit_if_collecting

(* ------------------------------------------------------------------ *)
(* Participant                                                         *)
(* ------------------------------------------------------------------ *)

type pstate = P_init | P_prepared | P_done

type participant = {
  p_txn : string;
  p_name : string;
  p_variant : variant;
  mutable pstate : pstate;
}

let participant ~txn ~name variant =
  { p_txn = txn; p_name = name; p_variant = variant; pstate = P_init }

let part_on_vote_request p ~vote =
  if p.pstate <> P_init then
    invalid_arg "Tpc.part_on_vote_request: already voted";
  if vote then begin
    p.pstate <- P_prepared;
    [ Force_log "prepared"; Send { dst = `Coordinator; msg = Vote true } ]
  end
  else begin
    (* Unilateral abort: a NO voter needs no decision message. *)
    p.pstate <- P_done;
    let log =
      match p.p_variant with
      | Presumed_abort -> []
      | Basic | Presumed_commit -> [ Write_log "abort" ]
    in
    log @ [ Send { dst = `Coordinator; msg = Vote false }; Apply false; Done ]
  end

let part_on_decision p ~commit =
  match p.pstate with
  | P_done -> [] (* duplicate decision after a NO vote or retransmission *)
  | P_init -> invalid_arg "Tpc.part_on_decision: decision before vote"
  | P_prepared ->
    p.pstate <- P_done;
    let log = decision_log p.p_variant commit in
    let ack =
      if acks_expected p.p_variant commit then
        [ Send { dst = `Coordinator; msg = Ack } ]
      else []
    in
    (log :: Apply commit :: ack) @ [ Done ]

let part_presumption _variant ~prepared = if prepared then `Ask else `Abort
