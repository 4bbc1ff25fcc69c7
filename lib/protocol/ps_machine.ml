module Query = Cloudtx_txn.Query
module Tpc = Cloudtx_txn.Tpc
module Proof = Cloudtx_policy.Proof
module Policy = Cloudtx_policy.Policy
module Credential = Cloudtx_policy.Credential
module Value = Cloudtx_store.Value
module Lock_manager = Cloudtx_store.Lock_manager

type eval_cont =
  | To_execute_reply of {
      reply_to : string;
      query_id : string;
      reads : (string * Value.t option) list;
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
  | Executed of (string * Value.t option) list
  | Blocked
  | Die

type action =
  | Send of {
      dst : string;
      msg : Message.t;
      after_proofs : int;
      credentials : Credential.t list;
    }
  | Begin_work of { txn : string; ts : float }
  | Exec of {
      txn : string;
      ts : float;
      query : Query.t;
      evaluate : bool;
      reply_to : string;
      snapshot : bool;
    }
  | Eval of {
      txn : string;
      subject : string;
      credentials : Credential.t list;
      queries : Query.t list;
      with_proofs : bool;
      with_policies : bool;
      cont : eval_cont;
    }
  | Check_read_only of { txn : string; reply_to : string; round : int }
  | Prepare of {
      txn : string;
      proof_truth : bool;
      policy_versions : (string * int) list;
    }
  | Apply of {
      txn : string;
      commit : bool;
      forced : bool;
      writes : (string * int) list;
    }
  | Forget of { txn : string }
  | Install of { policies : Policy.t list; announce : bool }
  | Wait_open of { txn : string; query_id : string }
  | Wait_close of { txn : string; outcome : string; killed_by : string option }
  | Arm_inquiry of { txn : string; epoch : int; delay : float }
      (** Start a timer; deliver {!input.Inquiry_fired} with this epoch when
          it fires.  Any later activity on the transaction re-arms with a
          higher epoch, so only a quiet period triggers the inquiry. *)
  | Mark of string

type input =
  | Deliver of { src : string; msg : Message.t }
  | Exec_result of {
      txn : string;
      query : Query.t;
      evaluate : bool;
      reply_to : string;
      result : exec_result;
    }
  | Evaluated of {
      txn : string;
      proofs : Proof.t list;
      policies : Policy.t list;
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
  | Release of { by : string option; release : Lock_manager.release }
  | Inquiry_fired of { txn : string; epoch : int }
  | Recovered of {
      decided : string list;
          (** Transactions whose decision record survived in the WAL. *)
      in_doubt : (string * bool * string list) list;
          (** Prepared-but-undecided transactions with their recorded
              integrity vote and the keys their WAL prepared record
              writes; the machine re-seeds a minimal state and runs the
              paper's Inquiry termination protocol. *)
    }

type pending = { p_query : Query.t; p_evaluate : bool; p_reply_to : string }

type after_prepare = {
  ap_reply_to : string;
  ap_round : int;
  ap_proofs : Proof.t list;
  ap_policies : Policy.t list;
}

type txn_state = {
  ts : float;
  subject : string;
  credentials : Credential.t list;
  mutable queries : Query.t list; (* executed here, oldest first *)
  mutable integrity : bool option; (* the vote, once prepared *)
  mutable pending : pending option;
  mutable after_prepare : after_prepare option;
  mutable inq_epoch : int; (* guards stale inquiry timers *)
  mutable rec_writes : string list;
      (* write keys recovered from the WAL prepared record; the executed
         queries themselves did not survive the crash *)
}

type t = {
  name : string;
  variant : Tpc.variant;
  inquiry_timeout : float;
  txns : (string, txn_state) Hashtbl.t;
  decided : (string, unit) Hashtbl.t;
      (* volatile memory of settled transactions, so re-delivered decisions
         are re-acked without re-applying; wiped by [Crashed], re-seeded
         from the WAL by [Recovered] *)
  key_ids : (string, int) Hashtbl.t;
      (* key-string interning for the hot per-key tables below: each key
         hashes once ever, then travels as an int.  Grow-only — an
         interned id is a stable identity, so it survives crash resets. *)
  commit_versions : (int, int) Hashtbl.t;
      (* per-key (by interned id) count of commits applied here; stamps
         each committed write with its position in this store's version
         order.  Wiped by [Crashed] like all volatile state, so versions
         restart per crash epoch — the journal's repeated create record
         marks the epoch. *)
  mutable out : action list; (* reversed accumulator for the current step *)
}

let create ~name ?(variant = Tpc.Basic) ?(inquiry_timeout = 0.) () =
  {
    name;
    variant;
    inquiry_timeout;
    txns = Hashtbl.create 16;
    decided = Hashtbl.create 16;
    key_ids = Hashtbl.create 64;
    commit_versions = Hashtbl.create 64;
    out = [];
  }

let name t = t.name

let queries_of t ~txn =
  match Hashtbl.find_opt t.txns txn with
  | Some st -> st.queries
  | None -> []

let in_doubt t =
  Hashtbl.fold
    (fun txn st acc -> if st.integrity = None then acc else txn :: acc)
    t.txns []
  |> List.sort String.compare

let reset t =
  Hashtbl.reset t.txns;
  Hashtbl.reset t.decided;
  (* [key_ids] deliberately survives: interned ids are identities, not
     state; only the per-epoch counters restart. *)
  Hashtbl.reset t.commit_versions

let key_id t key =
  match Hashtbl.find_opt t.key_ids key with
  | Some id -> id
  | None ->
    let id = Hashtbl.length t.key_ids in
    Hashtbl.add t.key_ids key id;
    id

let emit t a = t.out <- a :: t.out
let mark t label = emit t (Mark label)

(* Any activity on a live transaction pushes its inquiry deadline out; the
   timer only fires after [inquiry_timeout] of silence. *)
let touch t st ~txn =
  if t.inquiry_timeout > 0. then begin
    st.inq_epoch <- st.inq_epoch + 1;
    emit t (Arm_inquiry { txn; epoch = st.inq_epoch; delay = t.inquiry_timeout })
  end

let send t ~st ~after_proofs ~dst msg =
  emit t
    (Send
       {
         dst;
         msg;
         after_proofs;
         credentials = (match st with Some s -> s.credentials | None -> []);
       })

let state t ~txn ~ts ~subject ~credentials =
  match Hashtbl.find_opt t.txns txn with
  | Some st -> st
  | None ->
    let st =
      {
        ts;
        subject;
        credentials;
        queries = [];
        integrity = None;
        pending = None;
        after_prepare = None;
        inq_epoch = 0;
        rec_writes = [];
      }
    in
    Hashtbl.add t.txns txn st;
    emit t (Begin_work { txn; ts });
    st

(* Distinct keys [st]'s workspace wrote here: the executed queries' write
   sets plus any WAL-recovered keys (the queries are lost on crash). *)
let write_keys st =
  List.sort_uniq String.compare
    (st.rec_writes @ List.concat_map Query.write_set st.queries)

(* Stamp each key this commit installs with its position in the store's
   per-key version order (1, 2, ... per crash epoch). *)
let commit_writes t st =
  List.map
    (fun key ->
      let id = key_id t key in
      let v =
        1 + Option.value ~default:0 (Hashtbl.find_opt t.commit_versions id)
      in
      Hashtbl.replace t.commit_versions id v;
      (key, v))
    (write_keys st)

let eval t ~txn st ~queries ~with_proofs ~with_policies cont =
  emit t
    (Eval
       {
         txn;
         subject = st.subject;
         credentials = st.credentials;
         queries;
         with_proofs;
         with_policies;
         cont;
       })

let versions_of policies =
  List.map (fun (p : Policy.t) -> (p.Policy.domain, p.Policy.version)) policies

let on_exec_result t ~txn ~(query : Query.t) ~evaluate ~reply_to st result =
  match result with
  | Blocked ->
    emit t (Wait_open { txn; query_id = query.Query.id });
    st.pending <- Some { p_query = query; p_evaluate = evaluate; p_reply_to = reply_to };
    mark t ("blocked:" ^ txn ^ ":" ^ query.Query.id)
  | Die ->
    st.pending <- None;
    send t ~st:(Some st) ~after_proofs:0 ~dst:reply_to
      (Message.Execute_reply
         { txn; query_id = query.Query.id; outcome = Message.Exec_die })
  | Executed reads ->
    st.pending <- None;
    st.queries <- st.queries @ [ query ];
    if evaluate then
      eval t ~txn st ~queries:[ query ] ~with_proofs:true ~with_policies:false
        (To_execute_reply { reply_to; query_id = query.Query.id; reads })
    else
      send t ~st:(Some st) ~after_proofs:0 ~dst:reply_to
        (Message.Execute_reply
           {
             txn;
             query_id = query.Query.id;
             outcome = Message.Executed { reads; proof = None };
           })

let on_evaluated t ~txn ~proofs ~policies cont =
  let st txn =
    match Hashtbl.find_opt t.txns txn with
    | Some st -> st
    | None -> invalid_arg (Printf.sprintf "%s: evaluation for unknown %s" t.name txn)
  in
  match cont with
  | To_execute_reply { reply_to; query_id; reads } ->
    let proof = match proofs with p :: _ -> Some p | [] -> None in
    send t ~st:(Some (st txn)) ~after_proofs:1 ~dst:reply_to
      (Message.Execute_reply
         { txn; query_id; outcome = Message.Executed { reads; proof } })
  | To_validate_reply { reply_to; round } ->
    send t ~st:(Some (st txn)) ~after_proofs:(List.length proofs) ~dst:reply_to
      (Message.Validate_reply { txn; round; proofs; policies })
  | To_commit_reply { reply_to; round } -> (
    let st = st txn in
    match st.integrity with
    | Some vote ->
      send t ~st:(Some st) ~after_proofs:(List.length proofs) ~dst:reply_to
        (Message.Commit_reply
           { txn; round; integrity = vote; read_only = false; proofs; policies })
    | None ->
      let truth = List.for_all (fun (p : Proof.t) -> p.Proof.result) proofs in
      mark t ("log_force:prepared:" ^ txn);
      st.after_prepare <-
        Some
          { ap_reply_to = reply_to; ap_round = round; ap_proofs = proofs;
            ap_policies = policies };
      emit t
        (Prepare { txn; proof_truth = truth; policy_versions = versions_of policies }))
  | To_update_reply { reply_to; round; reply_with } -> (
    let st = st txn in
    match reply_with with
    | `Validate ->
      send t ~st:(Some st) ~after_proofs:(List.length proofs) ~dst:reply_to
        (Message.Validate_reply { txn; round; proofs; policies })
    | `Commit ->
      let vote =
        match st.integrity with
        | Some vote -> vote
        | None -> invalid_arg "Policy_update(`Commit) before prepare"
      in
      send t ~st:(Some st) ~after_proofs:(List.length proofs) ~dst:reply_to
        (Message.Commit_reply
           { txn; round; integrity = vote; read_only = false; proofs; policies }))
  | To_read_only_reply { reply_to; round; vote } ->
    (* Read-only fast path: vote READ, release immediately, skip the
       decision phase and all forced logging. *)
    let st0 = st txn in
    send t ~st:(Some st0) ~after_proofs:0 ~dst:reply_to
      (Message.Commit_reply
         { txn; round; integrity = vote; read_only = true; proofs = []; policies });
    mark t ("read_only_release:" ^ txn);
    emit t (Forget { txn });
    Hashtbl.remove t.txns txn

let on_prepared t ~txn ~vote =
  match Hashtbl.find_opt t.txns txn with
  | None -> invalid_arg (Printf.sprintf "%s: prepared for unknown %s" t.name txn)
  | Some st -> (
    st.integrity <- Some vote;
    match st.after_prepare with
    | None -> ()
    | Some { ap_reply_to; ap_round; ap_proofs; ap_policies } ->
      st.after_prepare <- None;
      send t ~st:(Some st) ~after_proofs:(List.length ap_proofs) ~dst:ap_reply_to
        (Message.Commit_reply
           {
             txn;
             round = ap_round;
             integrity = vote;
             read_only = false;
             proofs = ap_proofs;
             policies = ap_policies;
           }))

(* Lock releases may unblock parked queries of other transactions — and
   wait-die re-checks at promotion time may kill parked waiters, whose
   TMs must be told to abort. *)
let on_release t ~by (release : Lock_manager.release) =
  let seen txn txns = List.exists (String.equal txn) !txns in
  let killed = ref [] in
  List.iter
    (fun (txn, _key) ->
      if not (seen txn killed) then begin
        killed := txn :: !killed;
        match Hashtbl.find_opt t.txns txn with
        | Some ({ pending = Some p; _ } as st) ->
          st.pending <- None;
          emit t (Wait_close { txn; outcome = "die"; killed_by = by });
          send t ~st:(Some st) ~after_proofs:0 ~dst:p.p_reply_to
            (Message.Execute_reply
               { txn; query_id = p.p_query.Query.id; outcome = Message.Exec_die })
        | Some { pending = None; _ } | None -> ()
      end)
    release.Lock_manager.killed;
  let retried = ref [] in
  List.iter
    (fun (txn, _key, _mode) ->
      if not (seen txn retried || seen txn killed) then begin
        retried := txn :: !retried;
        match Hashtbl.find_opt t.txns txn with
        | Some ({ pending = Some p; _ } as st) ->
          emit t (Wait_close { txn; outcome = "granted"; killed_by = None });
          emit t
            (Exec
               {
                 txn;
                 ts = st.ts;
                 query = p.p_query;
                 evaluate = p.p_evaluate;
                 reply_to = p.p_reply_to;
                 snapshot = false;
               })
        | Some { pending = None; _ } | None -> ()
      end)
    release.Lock_manager.granted

let dispatch t ~src msg =
  match msg with
  | Message.Execute { txn; ts; query; subject; credentials; evaluate_proof; snapshot }
    ->
    if Hashtbl.mem t.decided txn then
      (* Re-delivered query for a transaction this node already settled
         (e.g. unilaterally aborted): don't resurrect a workspace. *)
      mark t ("stale:execute:" ^ txn)
    else begin
      mark t ("query_start:" ^ txn ^ ":" ^ query.Query.id);
      let st = state t ~txn ~ts ~subject ~credentials in
      touch t st ~txn;
      (* The MVCC fast path never blocks; lock-based execution reports its
         outcome back as an {!input.Exec_result}. *)
      let snapshot = snapshot && query.Query.writes = [] in
      emit t
        (Exec { txn; ts = st.ts; query; evaluate = evaluate_proof; reply_to = src; snapshot })
    end
  | Message.Validate_request { txn; round } -> (
    match Hashtbl.find_opt t.txns txn with
    | None ->
      (* Unknown (crashed away, or settled): stay silent, the TM's vote
         timeout owns this round. *)
      mark t ("stale:validate-request:" ^ txn)
    | Some st ->
      touch t st ~txn;
      eval t ~txn st ~queries:st.queries ~with_proofs:true ~with_policies:true
        (To_validate_reply { reply_to = src; round }))
  | Message.Commit_request { txn; round; validate; allow_read_only; expected }
    -> (
    match Hashtbl.find_opt t.txns txn with
    | None ->
      (* No workspace here: this node cannot prepare, so vote NO rather
         than stay silent — the coordinator decides without waiting for
         its timeout. *)
      mark t ("no_workspace:" ^ txn);
      send t ~st:None ~after_proofs:0 ~dst:src
        (Message.Commit_reply
           {
             txn;
             round;
             integrity = false;
             read_only = false;
             proofs = [];
             policies = [];
           })
    | Some st ->
      touch t st ~txn;
      if st.integrity = None && List.length st.queries <> expected then begin
        (* Partial workspace: a crash wiped some of this transaction's
           queries and later re-deliveries rebuilt only a subset.
           Preparing would silently commit a partial write set. *)
        mark t
          ("partial_workspace:" ^ txn ^ ":"
          ^ string_of_int (List.length st.queries)
          ^ "/" ^ string_of_int expected);
        send t ~st:(Some st) ~after_proofs:0 ~dst:src
          (Message.Commit_reply
             {
               txn;
               round;
               integrity = false;
               read_only = false;
               proofs = [];
               policies = [];
             })
      end
      else if allow_read_only && not validate then
        emit t (Check_read_only { txn; reply_to = src; round })
      else
        (* Without validation: no re-evaluation, but still report the
           versions in force, which the prepared record must carry. *)
        eval t ~txn st ~queries:st.queries ~with_proofs:validate
          ~with_policies:true
          (To_commit_reply { reply_to = src; round }))
  | Message.Policy_update { txn; round; policies; reply_with } -> (
    emit t (Install { policies; announce = false });
    match Hashtbl.find_opt t.txns txn with
    | None -> mark t ("stale:policy-update:" ^ txn)
    | Some st ->
      touch t st ~txn;
      eval t ~txn st ~queries:st.queries ~with_proofs:true ~with_policies:true
        (To_update_reply { reply_to = src; round; reply_with }))
  | Message.Decision { txn; commit } -> (
    match Hashtbl.find_opt t.txns txn with
    | Some st ->
      let forced = Tpc.decision_forced t.variant ~commit in
      if forced then mark t ("log_force:decision:" ^ txn);
      let writes = if commit then commit_writes t st else [] in
      emit t (Apply { txn; commit; forced; writes });
      Hashtbl.remove t.txns txn;
      Hashtbl.replace t.decided txn ();
      send t ~st:None ~after_proofs:0 ~dst:src (Message.Decision_ack { txn })
    | None ->
      (* Already applied (retransmission or duplicate), or no trace at all
         (an abort for a transaction the crash already erased).  Either
         way the ack — not a second apply — is what at-least-once delivery
         needs. *)
      mark t
        ((if Hashtbl.mem t.decided txn then "dup:decision:"
          else "decision:no-trace:")
        ^ txn);
      send t ~st:None ~after_proofs:0 ~dst:src (Message.Decision_ack { txn }))
  | Message.Propagate_policy { policy } ->
    emit t (Install { policies = [ policy ]; announce = true })
  | Message.Execute_reply _ | Message.Validate_reply _ | Message.Commit_reply _
  | Message.Decision_ack _ | Message.Master_version_request _
  | Message.Master_version_reply _ | Message.Inquiry _ ->
    invalid_arg (Printf.sprintf "%s: unexpected %s" t.name (Message.label msg))

let step t f =
  t.out <- [];
  f t;
  let actions = List.rev t.out in
  t.out <- [];
  actions

(* Fire only if the transaction is still live and nothing touched it since
   the timer was armed.  A prepared (in-doubt) participant probes the
   coordinator; one that never voted may abort unilaterally — it has made
   no promise, and a later [Commit_request] will find no workspace and
   vote NO. *)
let on_inquiry_fired t ~txn ~epoch =
  match Hashtbl.find_opt t.txns txn with
  | None -> ()
  | Some st ->
    if st.inq_epoch = epoch then begin
      match st.integrity with
      | Some _ ->
        mark t ("inquiry:" ^ txn);
        send t ~st:(Some st) ~after_proofs:0 ~dst:("tm-" ^ txn)
          (Message.Inquiry { txn });
        touch t st ~txn
      | None ->
        (match st.pending with
        | Some _ ->
          st.pending <- None;
          emit t (Wait_close { txn; outcome = "abort"; killed_by = None })
        | None -> ());
        mark t ("unilateral_abort:" ^ txn);
        emit t (Apply { txn; commit = false; forced = false; writes = [] });
        Hashtbl.remove t.txns txn;
        Hashtbl.replace t.decided txn ()
    end

let on_recovered t ~decided ~in_doubt =
  List.iter (fun txn -> Hashtbl.replace t.decided txn ()) decided;
  List.iter
    (fun (txn, vote, writes) ->
      if not (Hashtbl.mem t.txns txn) then begin
        (* Minimal re-seeded state: the driver rebuilt the workspace from
           the WAL's prepared record; subject/credentials are gone but no
           further proof evaluation happens past prepare. *)
        let st =
          {
            ts = 0.;
            subject = "";
            credentials = [];
            queries = [];
            integrity = Some vote;
            pending = None;
            after_prepare = None;
            inq_epoch = 0;
            rec_writes = List.sort_uniq String.compare writes;
          }
        in
        Hashtbl.add t.txns txn st;
        mark t ("in_doubt:" ^ txn);
        send t ~st:(Some st) ~after_proofs:0 ~dst:("tm-" ^ txn)
          (Message.Inquiry { txn });
        touch t st ~txn
      end)
    in_doubt

let handle t input =
  step t (fun t ->
      match input with
      | Deliver { src; msg } -> dispatch t ~src msg
      | Exec_result { txn; query; evaluate; reply_to; result } -> (
        match Hashtbl.find_opt t.txns txn with
        | None ->
          (* The transaction settled (unilateral abort, decision) while
             this execution was in flight. *)
          mark t ("stale:exec-result:" ^ txn)
        | Some st ->
          touch t st ~txn;
          on_exec_result t ~txn ~query ~evaluate ~reply_to st result)
      | Evaluated { txn; proofs; policies; cont } -> (
        match Hashtbl.find_opt t.txns txn with
        | None -> mark t ("stale:evaluated:" ^ txn)
        | Some st ->
          touch t st ~txn;
          on_evaluated t ~txn ~proofs ~policies cont)
      | Prepared { txn; vote } -> (
        match Hashtbl.find_opt t.txns txn with
        | None -> mark t ("stale:prepared:" ^ txn)
        | Some st ->
          touch t st ~txn;
          on_prepared t ~txn ~vote)
      | Read_only_result { txn; reply_to; round; read_only; integrity_ok } -> (
        match Hashtbl.find_opt t.txns txn with
        | None -> mark t ("stale:read-only-result:" ^ txn)
        | Some st ->
          touch t st ~txn;
          if read_only then
            eval t ~txn st ~queries:st.queries ~with_proofs:false
              ~with_policies:true
              (To_read_only_reply { reply_to; round; vote = integrity_ok })
          else
            eval t ~txn st ~queries:st.queries ~with_proofs:false
              ~with_policies:true
              (To_commit_reply { reply_to; round }))
      | Release { by; release } -> on_release t ~by release
      | Inquiry_fired { txn; epoch } -> on_inquiry_fired t ~txn ~epoch
      | Recovered { decided; in_doubt } -> on_recovered t ~decided ~in_doubt)
