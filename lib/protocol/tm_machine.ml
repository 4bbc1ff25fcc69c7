module Transaction = Cloudtx_txn.Transaction
module Query = Cloudtx_txn.Query
module Proof = Cloudtx_policy.Proof
module Policy = Cloudtx_policy.Policy
module Sketch = Cloudtx_obs.Sketch

type master_mode = [ `Once | `Every_round ]

type config = {
  scheme : Scheme.t;
  level : Consistency.level;
  master_mode : master_mode;
  max_rounds : int;
  vote_timeout : float;
  decision_retry : float;
  read_only_optimization : bool;
  snapshot_reads : bool;
  timeout_policy : Timeout_policy.t;
}

let config ?(master_mode = `Every_round) ?(max_rounds = 16) ?(vote_timeout = 0.)
    ?(decision_retry = 0.) ?(read_only_optimization = false)
    ?(snapshot_reads = false) ?(timeout_policy = Timeout_policy.Fixed) scheme
    level =
  {
    scheme;
    level;
    master_mode;
    max_rounds;
    vote_timeout;
    decision_retry;
    read_only_optimization;
    snapshot_reads;
    timeout_policy;
  }

type awaiting_master =
  | No_fetch
  | Exec_check of Proof.t  (** Incremental global: current query's proof. *)
  | Query_prefetch  (** Continuous global: before Validate requests. *)
  | Commit_resolve  (** 2PVC: before resolving the completed round. *)

type phase =
  | Executing
  | Query_validating  (** Continuous per-query 2PV. *)
  | Committing
  | Deciding
  | Finished

type obs =
  | Query_open of { index : int; server : string }
  | Query_close of { outcome : string }
  | Round_open of {
      parent : [ `Txn | `Phase ];
      span_name : string;
      round : int;
      query : int option;
    }
  | Round_close of { resolution : string option }
  | Phase_open of { span_name : string; reason : string option }
  | Phase_close
  | Txn_close of { outcome : string; reason : string }

type action =
  | Send of { dst : string; msg : Message.t }
  | Arm_watchdog of { epoch : int; delay : float }
  | Arm_retry of { delay : float }
  | Force_log
  | Mark of string
  | Obs of obs
  | Finish of { committed : bool; reason : Outcome.reason; commit_rounds : int }

type input =
  | Deliver of { src : string; msg : Message.t }
  | Watchdog_fired of { epoch : int }
  | Retry_fired
  | Rtt_sample of { peer : string; ms : float }

type t = {
  cfg : config;
  txn : Transaction.t;
  name : string;
  name_hash : int64; (* jitter stream key, precomputed *)
  view : View.t;
  submitted_at : float;
  queries : Query.t array;
  rtt : (string, Sketch.t) Hashtbl.t; (* per-peer RTT estimates *)
  mutable strikes : int; (* consecutive watchdog expiries of this wait *)
  mutable retries : int; (* decision retransmissions so far *)
  mutable out : action list; (* reversed accumulator for the current step *)
  mutable qidx : int;
  mutable phase : phase;
  mutable awaiting_master : awaiting_master;
  mutable watchdog_epoch : int; (* guards stale watchdog timers *)
  mutable validation : Validation.t option;
  mutable commit_validates : bool;
  mutable master_fetched_round : int;
  mutable versions_seen : (string * int) list; (* incremental view *)
  mutable decision : bool option;
  mutable reason : Outcome.reason;
  mutable commit_rounds : int;
  mutable decision_targets : string list;
  mutable acked : string list;
  mutable read_only : string list; (* voted READ; skip the decision phase *)
}

let create cfg txn ~submitted_at =
  if txn.Transaction.queries = [] then
    invalid_arg "Tm_machine.create: transaction has no queries";
  {
    cfg;
    txn;
    name = "tm-" ^ txn.Transaction.id;
    name_hash = Timeout_policy.hash_name ("tm-" ^ txn.Transaction.id);
    view = View.create ~txn:txn.Transaction.id;
    submitted_at;
    queries = Array.of_list txn.Transaction.queries;
    rtt = Hashtbl.create 8;
    strikes = 0;
    retries = 0;
    out = [];
    qidx = 0;
    phase = Executing;
    awaiting_master = No_fetch;
    watchdog_epoch = 0;
    validation = None;
    commit_validates = false;
    master_fetched_round = 0;
    versions_seen = [];
    decision = None;
    reason = Outcome.Committed;
    commit_rounds = 0;
    decision_targets = [];
    acked = [];
    read_only = [];
  }

let name s = s.name
let view s = s.view
let decision s = s.decision
let phase s = s.phase
let submitted_at s = s.submitted_at
let reason s = s.reason
let commit_rounds s = s.commit_rounds
let decision_targets s = s.decision_targets

let acknowledged s =
  s.phase = Finished && List.length s.acked = List.length s.decision_targets

let emit s a = s.out <- a :: s.out
let send s ~dst msg = emit s (Send { dst; msg })
let mark s label = emit s (Mark label)
let obs s o = emit s (Obs o)

(* Adaptive watchdog base: [rtt_multiplier] x the slowest peer's p99 RTT,
   floored at [min_timeout].  Before any sample arrives, fall back to the
   configured [vote_timeout] (or the floor when timers were disabled). *)
let watchdog_base s (a : Timeout_policy.adaptive) =
  let worst = ref 0. in
  Hashtbl.iter
    (fun _ sk ->
      if Sketch.count sk > 0 then
        worst := Float.max !worst (Sketch.percentile sk 99.))
    s.rtt;
  if !worst > 0. then Float.max a.min_timeout (a.rtt_multiplier *. !worst)
  else if s.cfg.vote_timeout > 0. then s.cfg.vote_timeout
  else a.min_timeout

(* Bump the epoch (invalidating older timers) and arm with the policy's
   delay: the fixed constant, or the backed-off jittered RTT estimate. *)
let rearm_watchdog s =
  s.watchdog_epoch <- s.watchdog_epoch + 1;
  let delay =
    match s.cfg.timeout_policy with
    | Timeout_policy.Fixed -> s.cfg.vote_timeout
    | Timeout_policy.Adaptive a ->
      Timeout_policy.delay a ~base:(watchdog_base s a) ~name_hash:s.name_hash
        ~epoch:s.watchdog_epoch ~strikes:s.strikes
  in
  emit s (Arm_watchdog { epoch = s.watchdog_epoch; delay })

(* Every point where the TM starts waiting on remote replies arms a timer;
   any progress that starts a new wait re-arms it (resetting the adaptive
   strike count), and reaching a decision defuses it.  Under [Fixed] with
   [vote_timeout] = 0 the TM blocks indefinitely, the paper's implicit
   assumption; [Adaptive] always arms. *)
let arm_watchdog s =
  match s.cfg.timeout_policy with
  | Timeout_policy.Fixed -> if s.cfg.vote_timeout > 0. then rearm_watchdog s
  | Timeout_policy.Adaptive _ ->
    s.strikes <- 0;
    rearm_watchdog s

(* Distinct servers of queries 0..k inclusive, in first-use order. *)
let servers_upto s k =
  let out = ref [] in
  for i = 0 to k do
    let server = s.queries.(i).Query.server in
    if not (List.exists (String.equal server) !out) then out := server :: !out
  done;
  List.rev !out

let all_servers s = servers_upto s (Array.length s.queries - 1)

let send_execute s =
  arm_watchdog s;
  let q = s.queries.(s.qidx) in
  obs s (Query_open { index = s.qidx; server = q.Query.server });
  send s ~dst:q.Query.server
    (Message.Execute
       {
         txn = s.txn.Transaction.id;
         ts = s.submitted_at;
         query = q;
         subject = s.txn.Transaction.subject;
         credentials = s.txn.Transaction.credentials;
         evaluate_proof = Scheme.proofs_during_execution s.cfg.scheme;
         snapshot = s.cfg.snapshot_reads && q.Query.writes = [];
       })

let fetch_master s what =
  s.awaiting_master <- what;
  send s ~dst:"master"
    (Message.Master_version_request { txn = s.txn.Transaction.id })

let finish s =
  s.phase <- Finished;
  mark s "txn_end";
  let committed =
    match s.decision with Some true -> true | Some false | None -> false
  in
  obs s (Round_close { resolution = None });
  obs s Phase_close;
  obs s
    (Txn_close
       {
         outcome = (if committed then "commit" else "abort");
         reason = Outcome.reason_name s.reason;
       });
  emit s
    (Finish { committed; reason = s.reason; commit_rounds = s.commit_rounds })

let arm_decision_retry s =
  match s.cfg.timeout_policy with
  | Timeout_policy.Fixed ->
    if s.cfg.decision_retry > 0. then
      emit s (Arm_retry { delay = s.cfg.decision_retry })
  | Timeout_policy.Adaptive a ->
    let base =
      if s.cfg.decision_retry > 0. then s.cfg.decision_retry else a.min_timeout
    in
    emit s
      (Arm_retry
         {
           delay =
             Timeout_policy.delay a ~base ~name_hash:s.name_hash
               ~epoch:s.watchdog_epoch ~strikes:s.retries;
         })

let decide s ~commit ~reason ~targets =
  s.decision <- Some commit;
  s.reason <- reason;
  s.phase <- Deciding;
  s.retries <- 0;
  obs s (Round_close { resolution = None });
  obs s Phase_close;
  obs s
    (Phase_open
       {
         span_name = (if commit then "2pvc.commit" else "2pvc.abort");
         reason = Some (Outcome.reason_name reason);
       });
  (* Read-only voters released at vote time and take no decision. *)
  let targets = List.filter (fun p -> not (List.mem p s.read_only)) targets in
  if targets <> [] then begin
    mark s
      ("log_force:tm_decision:" ^ if commit then "commit" else "abort");
    emit s Force_log
  end;
  s.decision_targets <- targets;
  s.acked <- [];
  if targets = [] then finish s
  else begin
    List.iter
      (fun dst ->
        send s ~dst (Message.Decision { txn = s.txn.Transaction.id; commit }))
      targets;
    arm_decision_retry s
  end

(* Abort during execution: tell every server that has (or may have) a
   workspace, including the one that just reported. *)
let abort_now s reason =
  decide s ~commit:false ~reason ~targets:(servers_upto s s.qidx)

let on_watchdog s ~epoch =
  if s.watchdog_epoch = epoch && s.decision = None then begin
    match s.cfg.timeout_policy with
    | Timeout_policy.Adaptive a when s.strikes + 1 < a.vote_budget ->
      (* Strike within budget: back off and keep waiting — the peer may
         be slow, not dead.  No resend (the request is still in flight or
         lost; either way the next expiry escalates). *)
      s.strikes <- s.strikes + 1;
      mark s ("watchdog:strike:" ^ string_of_int s.strikes);
      rearm_watchdog s
    | policy ->
      s.validation <- None;
      s.awaiting_master <- No_fetch;
      let reason =
        match policy with
        | Timeout_policy.Fixed -> Outcome.Timed_out
        | Timeout_policy.Adaptive _ -> Outcome.Budget_exhausted
      in
      (* Past the last query (commit phase) every server is a target. *)
      let k = min s.qidx (Array.length s.queries - 1) in
      decide s ~commit:false ~reason ~targets:(servers_upto s k)
  end

let on_retry s =
  if s.phase = Deciding then begin
    let budget_left =
      match s.cfg.timeout_policy with
      | Timeout_policy.Fixed -> true
      | Timeout_policy.Adaptive a ->
        s.retries <- s.retries + 1;
        s.retries <= a.retry_budget
    in
    if budget_left then begin
      let commit = Option.get s.decision in
      List.iter
        (fun dst ->
          if not (List.mem dst s.acked) then
            send s ~dst
              (Message.Decision { txn = s.txn.Transaction.id; commit }))
        s.decision_targets;
      arm_decision_retry s
    end
    else begin
      (* Budget spent: stop retransmitting and release the client.  The
         decision is forced-logged, so presumed abort lets the
         coordinator forget un-acked targets — their Inquiry timers pull
         the decision from the (still-answering) finished machine, and
         termination holds without an unbounded Arm_retry loop. *)
      mark s "retry:budget-exhausted";
      finish s
    end
  end

let on_rtt s ~peer ~ms =
  match s.cfg.timeout_policy with
  | Timeout_policy.Fixed -> () (* not journaled under Fixed; ignore *)
  | Timeout_policy.Adaptive _ ->
    let sk =
      match Hashtbl.find_opt s.rtt peer with
      | Some sk -> sk
      | None ->
        let sk = Sketch.create () in
        Hashtbl.add s.rtt peer sk;
        sk
    in
    Sketch.observe sk ms

let advance s next =
  s.qidx <- s.qidx + 1;
  if s.qidx < Array.length s.queries then begin
    s.phase <- Executing;
    send_execute s
  end
  else next ()

let start_commit s =
  s.phase <- Committing;
  obs s (Round_close { resolution = None });
  obs s (Phase_open { span_name = "2pvc.prepare"; reason = None });
  let validate = Scheme.validates_at_commit s.cfg.scheme s.cfg.level in
  s.commit_validates <- validate;
  s.master_fetched_round <- 0;
  (* Without validation, 2PVC "acts like 2PC" (Section V-C): integrity
     votes only, no version reconciliation. *)
  let v =
    Validation.create ~reconcile:validate ~participants:(all_servers s)
      ~with_integrity:true ()
  in
  s.validation <- Some v;
  let allow_read_only = s.cfg.read_only_optimization && not validate in
  let queries_on dst =
    Array.fold_left
      (fun acc (q : Query.t) ->
        if String.equal q.Query.server dst then acc + 1 else acc)
      0 s.queries
  in
  List.iter
    (fun dst ->
      send s ~dst
        (Message.Commit_request
           {
             txn = s.txn.Transaction.id;
             round = Validation.round v;
             validate;
             allow_read_only;
             expected = queries_on dst;
           }))
    (all_servers s);
  arm_watchdog s

let validation s =
  match s.validation with
  | Some v -> v
  | None -> invalid_arg "Tm_machine: no validation in progress"

let send_policy_updates s ~reply_with updates =
  let v = validation s in
  List.iter
    (fun (dst, policies) ->
      send s ~dst
        (Message.Policy_update
           {
             txn = s.txn.Transaction.id;
             round = Validation.round v;
             policies;
             reply_with;
           }))
    updates

(* Continuous: 2PV over the servers involved so far (Section V-A's use of
   2PV during execution). *)
let start_query_validation s =
  arm_watchdog s;
  s.phase <- Query_validating;
  let v =
    Validation.create ~participants:(servers_upto s s.qidx)
      ~with_integrity:false ()
  in
  s.validation <- Some v;
  obs s
    (Round_open
       {
         parent = `Txn;
         span_name = "2pv.round";
         round = Validation.round v;
         query = Some s.qidx;
       });
  match s.cfg.level with
  | Consistency.Global -> fetch_master s Query_prefetch
  | Consistency.View ->
    List.iter
      (fun dst ->
        send s ~dst
          (Message.Validate_request
             { txn = s.txn.Transaction.id; round = Validation.round v }))
      (servers_upto s s.qidx)

let send_validate_requests s =
  let v = validation s in
  List.iter
    (fun dst ->
      send s ~dst
        (Message.Validate_request
           { txn = s.txn.Transaction.id; round = Validation.round v }))
    (Validation.awaiting v)

let resolve_query_validation s =
  let v = validation s in
  mark s ("sync:" ^ s.txn.Transaction.id);
  let res = Validation.resolve v in
  obs s (Round_close { resolution = Some (Validation.resolution_name res) });
  (match res with
  | Validation.Need_update _ ->
    obs s
      (Round_open
         {
           parent = `Txn;
           span_name = "2pv.round";
           round = Validation.round v;
           query = Some s.qidx;
         })
  | _ -> ());
  match res with
  | Validation.All_consistent_true ->
    s.validation <- None;
    advance s (fun () -> start_commit s)
  | Validation.Abort_proof ->
    s.validation <- None;
    abort_now s Outcome.Proof_failure
  | Validation.Abort_integrity -> assert false (* with_integrity = false *)
  | Validation.Need_update updates ->
    if Validation.round v > s.cfg.max_rounds then begin
      s.validation <- None;
      abort_now s Outcome.Rounds_exhausted
    end
    else begin
      send_policy_updates s ~reply_with:`Validate updates;
      arm_watchdog s
    end

let resolve_commit s =
  let v = validation s in
  mark s ("sync:" ^ s.txn.Transaction.id);
  s.commit_rounds <- Validation.round v;
  let res = Validation.resolve v in
  obs s (Round_close { resolution = Some (Validation.resolution_name res) });
  (match res with
  | Validation.Need_update _ ->
    obs s
      (Round_open
         {
           parent = `Phase;
           span_name = "2pvc.validate";
           round = Validation.round v;
           query = None;
         })
  | _ -> ());
  match res with
  | Validation.Abort_integrity ->
    decide s ~commit:false ~reason:Outcome.Integrity_violation
      ~targets:(all_servers s)
  | Validation.Abort_proof ->
    decide s ~commit:false ~reason:Outcome.Proof_failure
      ~targets:(all_servers s)
  | Validation.All_consistent_true ->
    decide s ~commit:true ~reason:Outcome.Committed ~targets:(all_servers s)
  | Validation.Need_update updates ->
    if Validation.round v > s.cfg.max_rounds then
      decide s ~commit:false ~reason:Outcome.Rounds_exhausted
        ~targets:(all_servers s)
    else begin
      send_policy_updates s ~reply_with:`Commit updates;
      arm_watchdog s
    end

(* A 2PVC round is complete: consult the master first when global
   consistency demands it, then resolve. *)
let commit_round_complete s =
  let v = validation s in
  let need_fetch =
    s.cfg.level = Consistency.Global && s.commit_validates
    &&
    match s.cfg.master_mode with
    | `Once -> s.master_fetched_round = 0
    | `Every_round -> s.master_fetched_round < Validation.round v
  in
  if need_fetch then fetch_master s Commit_resolve else resolve_commit s

(* Incremental Punctual under view consistency: the version of every proof
   must match what previous queries of the same domain reported
   (Section V-C; we abort on any mismatch since either direction is
   phi-inconsistent). *)
let incremental_view_check s (proof : Proof.t) =
  match List.assoc_opt proof.Proof.domain s.versions_seen with
  | None ->
    s.versions_seen <-
      (proof.Proof.domain, proof.Proof.policy_version) :: s.versions_seen;
    true
  | Some v -> v = proof.Proof.policy_version

let on_execute_reply s (outcome : Message.exec_outcome) =
  obs s
    (Query_close
       {
         outcome =
           (match outcome with
           | Message.Exec_die -> "die"
           | Message.Executed { proof = Some p; _ } ->
             if p.Proof.result then "executed" else "proof_false"
           | Message.Executed { proof = None; _ } -> "executed");
       });
  match outcome with
  | Message.Exec_die -> abort_now s Outcome.Wait_die
  | Message.Executed { proof; _ } -> (
    Option.iter (View.add s.view ~instant:s.qidx) proof;
    let proof_ok = match proof with Some p -> p.Proof.result | None -> true in
    match s.cfg.scheme with
    | Scheme.Deferred -> advance s (fun () -> start_commit s)
    | Scheme.Punctual ->
      if proof_ok then advance s (fun () -> start_commit s)
      else abort_now s Outcome.Proof_failure
    | Scheme.Incremental_punctual ->
      if not proof_ok then abort_now s Outcome.Proof_failure
      else begin
        let p = Option.get proof in
        match s.cfg.level with
        | Consistency.View ->
          if incremental_view_check s p then advance s (fun () -> start_commit s)
          else abort_now s Outcome.Version_inconsistency
        | Consistency.Global -> fetch_master s (Exec_check p)
      end
    | Scheme.Continuous -> start_query_validation s)

let on_master_reply s (policies : Policy.t list) =
  let what = s.awaiting_master in
  s.awaiting_master <- No_fetch;
  match what with
  | No_fetch ->
    (* A duplicated master reply (each copy is a distinct wire send, so
       driver dedup cannot catch it): the fetch it answered is already
       resolved. *)
    mark s "dup:master-reply"
  | Exec_check proof ->
    let master_version =
      List.find_map
        (fun (p : Policy.t) ->
          if String.equal p.Policy.domain proof.Proof.domain then
            Some p.Policy.version
          else None)
        policies
    in
    if master_version = Some proof.Proof.policy_version then
      advance s (fun () -> start_commit s)
    else abort_now s Outcome.Version_inconsistency
  | Query_prefetch ->
    Validation.add_master (validation s) policies;
    send_validate_requests s
  | Commit_resolve ->
    let v = validation s in
    Validation.add_master v policies;
    s.master_fetched_round <- Validation.round v;
    resolve_commit s

let on_ack s ~from =
  if not (List.mem from s.acked) then begin
    s.acked <- from :: s.acked;
    if List.length s.acked = List.length s.decision_targets then begin
      mark s "log:end";
      finish s
    end
  end

let dispatch s ~src msg =
  match (s.phase, msg) with
  | Executing, Message.Execute_reply { query_id; outcome; _ } ->
    (* A re-delivered reply for an already-answered query must not be
       mistaken for the current query's answer. *)
    if String.equal query_id s.queries.(s.qidx).Query.id then
      on_execute_reply s outcome
    else mark s ("stale:execute-reply:" ^ query_id)
  | Query_validating, Message.Validate_reply { round; proofs; policies; _ } ->
    let v = validation s in
    if round <> Validation.round v then () (* stale; drop *)
    else begin
      (* All evaluations of this per-query 2PV belong to the current
         query's instant t_i. *)
      List.iter (View.add s.view ~instant:s.qidx) proofs;
      match
        Validation.add_reply v ~from:src ~integrity:true ~proofs ~policies
      with
      | `Wait -> ()
      | `Round_complete -> resolve_query_validation s
    end
  | ( Committing,
      Message.Commit_reply { round; integrity; read_only; proofs; policies; _ }
    ) ->
    let v = validation s in
    if round <> Validation.round v then ()
    else begin
      if read_only && not (List.mem src s.read_only) then
        s.read_only <- src :: s.read_only;
      (* Commit-time revalidations all belong to the commit instant. *)
      List.iter (View.add s.view ~instant:(Array.length s.queries)) proofs;
      match Validation.add_reply v ~from:src ~integrity ~proofs ~policies with
      | `Wait -> ()
      | `Round_complete -> commit_round_complete s
    end
  | ( (Executing | Query_validating | Committing),
      Message.Master_version_reply { policies; _ } ) ->
    on_master_reply s policies
  | Deciding, Message.Decision_ack _ -> on_ack s ~from:src
  | (Deciding | Finished), Message.Inquiry _ -> (
    match s.decision with
    | Some commit ->
      send s ~dst:src (Message.Decision { txn = s.txn.Transaction.id; commit })
    | None -> ())
  | Finished, Message.Decision_ack _ -> () (* late ack after inquiry resend *)
  | ( (Deciding | Finished),
      ( Message.Validate_reply _ | Message.Commit_reply _
      | Message.Master_version_reply _ | Message.Execute_reply _ ) ) ->
    (* Stragglers from a round the vote timeout already aborted. *)
    ()
  | (Executing | Committing), Message.Validate_reply _ ->
    (* Re-delivered reply from a per-query 2PV round that already
       resolved (the round moved on, so the round check can't filter). *)
    mark s "stale:validate-reply"
  | (Executing | Query_validating | Committing), Message.Inquiry _ ->
    (* In-doubt probe before any decision exists: stay silent, the
       participant's inquiry timer re-probes. *)
    mark s "inquiry:undecided"
  | _, msg ->
    invalid_arg
      (Printf.sprintf "TM %s: unexpected %s in this phase" s.name
         (Message.label msg))

let step s f =
  s.out <- [];
  f s;
  let actions = List.rev s.out in
  s.out <- [];
  actions

let start s = step s send_execute

let handle s input =
  step s (fun s ->
      match input with
      | Deliver { src; msg } -> dispatch s ~src msg
      | Watchdog_fired { epoch } -> on_watchdog s ~epoch
      | Retry_fired -> on_retry s
      | Rtt_sample { peer; ms } -> on_rtt s ~peer ~ms)
