module Codec = Cloudtx_protocol.Codec
module Codec_bin = Cloudtx_protocol.Codec_bin
module Tm = Cloudtx_protocol.Tm_machine
module Ps = Cloudtx_protocol.Ps_machine

type report = {
  records : int;
  nodes : int;
  transactions : int;
  commits : int;
  aborts : int;
  protocol_messages : int;
  proofs : int;
  forced_logs : int;
}

let report_to_string r =
  Printf.sprintf
    "records=%d nodes=%d transactions=%d commits=%d aborts=%d \
     protocol_messages=%d proofs=%d forced_logs=%d"
    r.records r.nodes r.transactions r.commits r.aborts r.protocol_messages
    r.proofs r.forced_logs

exception Fail of string

let failf fmt = Printf.ksprintf (fun m -> raise (Fail m)) fmt

(* A replayed (or recorded) action of either machine kind. *)
type replayed = Rtm of Tm.action | Rps of Ps.action

type tm_state = { cfg : Tm.config; txn_id : string; m : Tm.t }

(* [incarnation] counts the participant's repeated create records: each
   one is a crash reset; [last_forced], the seq of its latest forced
   record, outlives them as the WAL does. *)
type ps_state = {
  mutable ps : Ps.t;
  mutable incarnation : int;
  mutable last_forced : int;
}

type kind = Tm_node of tm_state | Ps_node of ps_state

type node = {
  node_name : string;
  mutable kind : kind;
  mutable pending : replayed list;
      (* this input's recorded-but-unmatched actions, FIFO *)
  mutable last_seq : int;  (* seq of this node's latest replayed record *)
}

(* One participant's logged decision. *)
type apply = {
  node : string;
  at : int;  (* seq *)
  commit : bool;
  forced : bool;
  incarnation : int;
}

(* Everything the protocol checks accumulate about one transaction. *)
type txn_stats = {
  mutable finish : (int * bool) option;  (* TM Finish: seq, committed *)
  mutable applies : apply list;  (* latest first *)
  mutable prepared_nodes : string list;  (* nodes with a Prepare action *)
  mutable first_no_vote : int option;  (* seq of a Prepared{vote=false} *)
  latest : (string, int) Hashtbl.t;
      (* domain -> master version, from Master_version_reply deliveries *)
  mutable master_moved : bool;
      (* the master reported two different versions of some domain during
         this transaction — the instant-indexed (ψ, Def 8/9) checks are
         only exact against a fixed master, so they are skipped then,
         mirroring the live soundness tests (the conformance replay still
         proves the machine enforced them online) *)
}

type state = {
  nodes : (string, node) Hashtbl.t;
  txns : (string, txn_stats) Hashtbl.t;
  mutable records : int;
  mutable transactions : int;
  mutable commits : int;
  mutable aborts : int;
  mutable protocol_messages : int;
  mutable proofs : int;
  mutable forced_logs : int;
  journal_version : int;
      (* from the header; replayed PS actions are rendered as that format
         version encoded them, so pre-v3 journals still byte-compare *)
  mutable failure : string option;  (* the first one sticks *)
}

let txn_stats st txn =
  match Hashtbl.find_opt st.txns txn with
  | Some s -> s
  | None ->
    let s =
      {
        finish = None;
        applies = [];
        prepared_nodes = [];
        first_no_vote = None;
        latest = Hashtbl.create 4;
        master_moved = false;
      }
    in
    Hashtbl.add st.txns txn s;
    s

let is_protocol msg = List.mem (Message.label msg) Message.protocol_labels

let to_json ~version = function
  | Rtm a -> Codec.tm_action_to_json a
  | Rps a -> Codec.ps_action_to_json_at ~version a

(* Do [a] and [b] render alike at the journal's [version]?  Only [Apply]
   renders otherwise before v3, without its writes, and a TM mark
   renders as a PS mark does. *)
let same_action ~version a b =
  match (a, b) with
  | Rtm a, Rtm b -> Codec_bin.same_tm_action a b
  | Rps (Ps.Apply a), Rps (Ps.Apply b) when version <= 2 ->
    String.equal a.txn b.txn && a.commit = b.commit && a.forced = b.forced
  | Rps a, Rps b -> Codec_bin.same_ps_action a b
  | Rtm (Tm.Mark x), Rps (Ps.Mark y) | Rps (Ps.Mark x), Rtm (Tm.Mark y) ->
    String.equal x y
  | Rtm _, Rps _ | Rps _, Rtm _ -> false

(* ------------------------------------------------------------------ *)
(* Per-record protocol checks (run when the action record is matched,   *)
(* so seq ordering of the checks follows the journal)                   *)
(* ------------------------------------------------------------------ *)

let check_tm_action st ~seq ~node (t : tm_state) = function
  | Tm.Send { msg; _ } -> if is_protocol msg then
      st.protocol_messages <- st.protocol_messages + 1
  | Tm.Force_log -> st.forced_logs <- st.forced_logs + 1
  | Tm.Finish { committed; _ } ->
    let s = txn_stats st t.txn_id in
    (match s.finish with
    | Some (prev, _) ->
      failf "seq %d (%s): AC3 violated: second decision for %s (first at seq %d)"
        seq node t.txn_id prev
    | None -> s.finish <- Some (seq, committed));
    st.transactions <- st.transactions + 1;
    if committed then begin
      st.commits <- st.commits + 1;
      (* Soundness: the replayed machine's view at commit must satisfy
         the scheme's own trusted-transaction definition, judged against
         the master versions this TM was told about. *)
      let latest domain = Hashtbl.find_opt s.latest domain in
      let instant_indexed =
        match t.cfg.Tm.scheme with
        | Scheme.Incremental_punctual | Scheme.Continuous -> true
        | Scheme.Deferred | Scheme.Punctual -> false
      in
      if not (instant_indexed && s.master_moved) then
        match
          Trusted.check t.cfg.Tm.scheme ~level:t.cfg.Tm.level ~latest
            (Tm.view t.m)
        with
        | Ok () -> ()
        | Error why ->
          failf "seq %d (%s): %s committed but untrusted: %s" seq node t.txn_id
            why
    end
    else st.aborts <- st.aborts + 1
  | Tm.Arm_watchdog _ | Tm.Arm_retry _ | Tm.Mark _ | Tm.Obs _ -> ()

(* AC3 lets a node decide a transaction again only to redo the same
   decision after a crash lost its unforced log record: presumed commit
   logs commits unforced, so the node recovers in doubt, inquires and
   applies the same commit once more. *)
let redo_after_crash ~commit ~incarnation prev =
  prev.commit = commit && (not prev.forced) && prev.incarnation <> incarnation

let check_ps_action st ~seq ~node (p : ps_state) = function
  | Ps.Send { msg; _ } ->
    if is_protocol msg then st.protocol_messages <- st.protocol_messages + 1
  | Ps.Prepare { txn; _ } ->
    (* Server.prepare always forces the vote record to the WAL. *)
    st.forced_logs <- st.forced_logs + 1;
    p.last_forced <- seq;
    let s = txn_stats st txn in
    s.prepared_nodes <- node :: s.prepared_nodes
  | Ps.Apply { txn; commit; forced; writes = _ } ->
    if forced then begin
      st.forced_logs <- st.forced_logs + 1;
      p.last_forced <- seq
    end;
    let s = txn_stats st txn in
    let incarnation = p.incarnation in
    (match List.find_opt (fun a -> String.equal a.node node) s.applies with
    | Some prev when not (redo_after_crash ~commit ~incarnation prev) ->
      failf "seq %d (%s): AC3 violated: node decides %s twice" seq node txn
    | Some _ | None -> ());
    if commit && not (List.mem node s.prepared_nodes) then
      failf "seq %d (%s): commit of %s not preceded by prepare on this node" seq
        node txn;
    s.applies <- { node; at = seq; commit; forced; incarnation } :: s.applies
  | Ps.Begin_work _ | Ps.Exec _ | Ps.Eval _ | Ps.Check_read_only _ | Ps.Forget _
  | Ps.Install _ | Ps.Wait_open _ | Ps.Wait_close _ | Ps.Arm_inquiry _
  | Ps.Mark _ -> ()

let note_tm_input st ~seq ~node (t : tm_state) = function
  | Tm.Deliver { src; msg } ->
    (* Sends from journaled nodes are counted from their action records;
       a delivery from an un-journaled sender (the master) is the only
       trace of that message, so count it here.  Assumes loss-free
       delivery for such senders. *)
    if is_protocol msg && not (Hashtbl.mem st.nodes src) then
      st.protocol_messages <- st.protocol_messages + 1;
    (match msg with
    | Message.Master_version_reply { txn; policies } ->
      if not (String.equal txn t.txn_id) then
        failf "seq %d (%s): master reply for foreign transaction %s" seq node txn;
      let s = txn_stats st txn in
      List.iter
        (fun (p : Cloudtx_policy.Policy.t) ->
          let domain = p.Cloudtx_policy.Policy.domain in
          let version = p.Cloudtx_policy.Policy.version in
          (match Hashtbl.find_opt s.latest domain with
          | Some prev when prev <> version -> s.master_moved <- true
          | _ -> ());
          Hashtbl.replace s.latest domain version)
        policies
    | _ -> ())
  | Tm.Watchdog_fired _ | Tm.Retry_fired | Tm.Rtt_sample _ -> ()

let note_ps_input st ~seq ~node p = function
  | Ps.Deliver { src; msg } ->
    if is_protocol msg && not (Hashtbl.mem st.nodes src) then
      st.protocol_messages <- st.protocol_messages + 1
  | Ps.Evaluated { proofs; _ } -> st.proofs <- st.proofs + List.length proofs
  | Ps.Prepared { txn; vote } ->
    if not vote then begin
      let s = txn_stats st txn in
      if s.first_no_vote = None then s.first_no_vote <- Some seq
    end
  | Ps.Recovered { in_doubt; _ } ->
    (* In doubt: what the node prepared without a durable decision.  Its
       WAL survives up to its last forced record, so a decision is durable
       once its [Apply] or a later record of the node was forced. *)
    let durable a = String.equal a.node node && a.at <= p.last_forced in
    let want =
      Hashtbl.fold
        (fun txn s acc ->
          let prepared = List.mem node s.prepared_nodes in
          if prepared && not (List.exists durable s.applies) then txn :: acc
          else acc)
        st.txns []
      |> List.sort String.compare
    in
    let got =
      List.sort String.compare (List.map (fun (txn, _, _) -> txn) in_doubt)
    in
    if got <> want then
      failf "seq %d (%s): recovered in doubt [%s], journal shows [%s]" seq node
        (String.concat ", " got) (String.concat ", " want)
  | Ps.Exec_result _ | Ps.Read_only_result _ | Ps.Release _
  | Ps.Inquiry_fired _ -> ()

(* ------------------------------------------------------------------ *)
(* Record replay                                                       *)
(* ------------------------------------------------------------------ *)

let create_tm st ~seq ~node_name cfg txn ~submitted_at =
  if Hashtbl.mem st.nodes node_name then
    failf "seq %d (%s): duplicate TM create" seq node_name;
  let m =
    try Tm.create cfg txn ~submitted_at
    with Invalid_argument m ->
      failf "seq %d (%s): replayed machine rejected create: %s" seq node_name m
  in
  let t = { cfg; txn_id = txn.Cloudtx_txn.Transaction.id; m } in
  let pending = List.map (fun a -> Rtm a) (Tm.start m) in
  Hashtbl.add st.nodes node_name
    { node_name; kind = Tm_node t; pending; last_seq = seq }

let create_ps st ~seq ~node_name ~variant ~inquiry_timeout =
  let fresh () = Ps.create ~name:node_name ~variant ~inquiry_timeout () in
  match Hashtbl.find_opt st.nodes node_name with
  | None ->
    Hashtbl.add st.nodes node_name
      {
        node_name;
        kind = Ps_node { ps = fresh (); incarnation = 0; last_forced = 0 };
        pending = [];
        last_seq = seq;
      }
  | Some n -> (
    (* A repeated participant create mirrors a crash reset. *)
    if n.pending <> [] then
      failf "seq %d (%s): create while %d recorded action(s) unmatched" seq
        node_name (List.length n.pending);
    match n.kind with
    | Ps_node p ->
      p.ps <- fresh ();
      p.incarnation <- p.incarnation + 1
    | Tm_node _ -> failf "seq %d (%s): participant create over a TM" seq node_name)

let node_of st ~seq name =
  match Hashtbl.find_opt st.nodes name with
  | Some n -> n
  | None -> failf "seq %d (%s): record for a node never created" seq name

let replay_input st ~seq ~node_name payload =
  let n = node_of st ~seq node_name in
  n.last_seq <- seq;
  if n.pending <> [] then
    failf
      "seq %d (%s): input record while %d recorded action(s) unmatched \
       (reordered or dropped record?)"
      seq node_name (List.length n.pending);
  let step handle m input =
    try handle m input
    with Invalid_argument m ->
      failf "seq %d (%s): replayed machine rejected input: %s" seq node_name m
  in
  n.pending <-
    (match (n.kind, payload) with
    | Tm_node t, Codec_bin.Tm_input input ->
      note_tm_input st ~seq ~node:node_name t input;
      List.map (fun a -> Rtm a) (step Tm.handle t.m input)
    | Ps_node p, Codec_bin.Ps_input input ->
      note_ps_input st ~seq ~node:node_name p input;
      List.map (fun a -> Rps a) (step Ps.handle p.ps input)
    | _ -> failf "seq %d (%s): input for the other machine kind" seq node_name)

(* The replayed and recorded actions must render identically at the
   journal's version ({!Journal_io} has checked that a JSONL record's
   text is that rendering of what it decodes to); only a divergence is
   rendered. *)
let match_action st ~seq ~node_name got =
  let n = node_of st ~seq node_name in
  n.last_seq <- seq;
  match n.pending with
  | [] ->
    failf "seq %d (%s): action record but the replayed machine emitted none"
      seq node_name
  | expected :: rest ->
    let version = st.journal_version in
    if not (same_action ~version expected got) then
      failf "seq %d (%s): action diverges\n  expected %s\n  got      %s" seq
        node_name
        (Codec.to_string (to_json ~version expected))
        (Codec.to_string (to_json ~version got));
    n.pending <- rest;
    (match (expected, n.kind) with
    | Rtm a, Tm_node t -> check_tm_action st ~seq ~node:node_name t a
    | Rps a, Ps_node p -> check_ps_action st ~seq ~node:node_name p a
    | Rtm _, Ps_node _ | Rps _, Tm_node _ ->
      failf "seq %d (%s): internal kind mismatch" seq node_name)

let replay st (r : Journal_io.record) =
  let seq = r.Journal_io.seq and node_name = r.Journal_io.node in
  let expected = st.records + 1 in
  if seq <> expected then
    failf "seq %d: expected seq %d — dropped or reordered record" seq expected;
  st.records <- seq;
  match r.Journal_io.body with
  | Journal_io.Undecodable m ->
    failf "seq %d (%s): cannot decode record: %s" seq node_name m
  | Journal_io.Event _ ->
    (* Driver-side resilience events (breaker transitions, admission
       verdicts): not machine steps, nothing to replay. *)
    ()
  | Journal_io.Payload (Codec_bin.Create_tm { config; txn; submitted_at }) ->
    create_tm st ~seq ~node_name config txn ~submitted_at
  | Journal_io.Payload (Codec_bin.Create_ps { variant; inquiry_timeout }) ->
    create_ps st ~seq ~node_name ~variant ~inquiry_timeout
  | Journal_io.Payload ((Codec_bin.Tm_input _ | Codec_bin.Ps_input _) as p) ->
    replay_input st ~seq ~node_name p
  | Journal_io.Payload (Codec_bin.Tm_action a) ->
    match_action st ~seq ~node_name (Rtm a)
  | Journal_io.Payload (Codec_bin.Ps_action a) ->
    match_action st ~seq ~node_name (Rps a)

(* ------------------------------------------------------------------ *)
(* End-of-journal checks                                               *)
(* ------------------------------------------------------------------ *)

let check_final st =
  Hashtbl.iter
    (fun name n ->
      if n.pending <> [] then
        failf
          "%s: journal ends after seq %d with %d recorded action(s) unmatched \
           (truncated?)"
          name n.last_seq (List.length n.pending))
    st.nodes;
  Hashtbl.iter
    (fun txn (s : txn_stats) ->
      (* AC1: everyone who decided this transaction decided the same. *)
      (match s.applies with
      | [] -> ()
      | first :: _ ->
        List.iter
          (fun a ->
            if a.commit <> first.commit then
              failf "seq %d (%s): AC1 violated: nodes disagree on %s" a.at
                a.node txn)
          s.applies);
      (match (s.finish, s.applies) with
      | Some (fseq, committed), first :: _ when committed <> first.commit ->
        failf "seq %d: AC1 violated: TM and participants disagree on %s" fseq txn
      | _ -> ());
      (* AC2: a commit requires unanimous YES votes. *)
      let committed =
        (match s.finish with Some (_, c) -> c | None -> false)
        || List.exists (fun a -> a.commit) s.applies
      in
      match (committed, s.first_no_vote) with
      | true, Some seq ->
        failf "seq %d: AC2 violated: %s committed over a NO vote" seq txn
      | _ -> ())
    st.txns

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

type t = state

let create ~version =
  {
    nodes = Hashtbl.create 16;
    txns = Hashtbl.create 16;
    records = 0;
    transactions = 0;
    commits = 0;
    aborts = 0;
    protocol_messages = 0;
    proofs = 0;
    forced_logs = 0;
    journal_version = version;
    failure = None;
  }

let step st r =
  if st.failure = None then
    try replay st r with Fail m -> st.failure <- Some m

let finish st =
  match st.failure with
  | Some m -> Error m
  | None -> (
    try
      check_final st;
      Ok
        {
          records = st.records;
          nodes = Hashtbl.length st.nodes;
          transactions = st.transactions;
          commits = st.commits;
          aborts = st.aborts;
          protocol_messages = st.protocol_messages;
          proofs = st.proofs;
          forced_logs = st.forced_logs;
        }
    with Fail m -> Error m)

let audit fold =
  Result.bind
    (fold ~init:(fun version -> create ~version) (fun t r -> step t r; t))
    finish

let run ~lines = audit (Journal_io.fold_lines lines)
let of_file path = audit (Journal_io.fold_file path)
