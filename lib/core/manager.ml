(* Thin driver binding {!Cloudtx_protocol.Tm_machine} to the simulated
   transport, clock and observability sinks.  All protocol decisions live
   in the machine; this file only interprets its actions. *)

module Transport = Cloudtx_sim.Transport
module Tracer = Cloudtx_obs.Tracer
module Registry = Cloudtx_obs.Registry
module Journal = Cloudtx_obs.Journal
module Transaction = Cloudtx_txn.Transaction
module Tm = Cloudtx_protocol.Tm_machine
module Codec = Cloudtx_protocol.Codec
module Codec_bin = Cloudtx_protocol.Codec_bin

let log_src = Logs.Src.create "cloudtx.manager" ~doc:"Transaction manager"

module Log = (val Logs.src_log log_src : Logs.LOG)

type master_mode = Tm.master_mode

type config = Tm.config = {
  scheme : Scheme.t;
  level : Consistency.level;
  master_mode : master_mode;
  max_rounds : int;
  vote_timeout : float;
  decision_retry : float;
  read_only_optimization : bool;
  snapshot_reads : bool;
  timeout_policy : Cloudtx_protocol.Timeout_policy.t;
}

let config = Tm.config

type driver = {
  cluster : Cluster.t;
  machine : Tm.t;
  cfg : Tm.config;
  name : string;
  txn_id : string;
  on_done : Outcome.t -> unit;
  dedup : bool;
  seen : (int, unit) Hashtbl.t; (* delivered wire seqs, for idempotence *)
  adaptive : bool; (* non-Fixed timeout policy: measure and feed RTTs *)
  rtt_sent : (string, float) Hashtbl.t;
      (* per-peer time of the latest outstanding send, consumed by the
         first delivery from that peer into an Rtt_sample input *)
  mutable machine_dead : bool;
      (* set by [crash]: volatile machine state is gone; pre-crash timers
         that fire later must not touch it *)
  mutable durable : (bool * Outcome.reason * string list) option;
      (* the force-logged decision record: (commit, reason, undelivered
         participants).  Survives a crash — [restart] re-drives the
         decision phase from it; [None] means presumed abort. *)
  mutable finished : bool; (* outcome delivered to [on_done]? *)
  (* Observability registers: span ids are immediate ints (Tracer.no_span
     when tracing is off); the float timestamps are only written when the
     registry is live, keeping the disabled path allocation-free. *)
  mutable txn_span : int;
  mutable query_span : int;
  mutable round_span : int; (* open 2pv.round / 2pvc.validate span *)
  mutable phase_span : int; (* open 2pvc.prepare / 2pvc.commit|abort span *)
  mutable commit_started_at : float;
  mutable decided_at : float;
}

let transport d = Cluster.transport d.cluster
let now d = Transport.now (transport d)
let tracer d = Transport.tracer (transport d)
let registry d = Transport.registry (transport d)
let journal d = Transport.journal (transport d)

(* Flight recorder: the input record followed immediately by its action
   records, all before any action is performed.  Nested dispatches are
   synchronous and happen inside [perform], so each input's actions are
   journaled contiguously and replay ({!Audit}) is a per-node FIFO.
   Binary journals skip the JSON tree entirely (Codec_bin emits straight
   into the journal's reused frame writer). *)
let journal_input j ~node input =
  match Journal.format j with
  | Journal.Jsonl ->
    Journal.record j ~node ~dir:"input"
      ~payload:(Codec.to_string (Codec.tm_input_to_json input))
  | Journal.Binary ->
    Journal.record_frame j ~node ~dir:"input" ~emit:(fun b ->
        Codec_bin.emit_tm_input_payload b input)

let journal_actions j ~node actions =
  match Journal.format j with
  | Journal.Jsonl ->
    List.iter
      (fun a ->
        Journal.record j ~node ~dir:"action"
          ~payload:(Codec.to_string (Codec.tm_action_to_json a)))
      actions
  | Journal.Binary ->
    List.iter
      (fun a ->
        Journal.record_frame j ~node ~dir:"action" ~emit:(fun b ->
            Codec_bin.emit_tm_action_payload b a))
      actions

let scheme_labels (cfg : config) =
  [
    ("scheme", Scheme.name cfg.scheme);
    ("consistency", Consistency.name cfg.level);
  ]

let perform_obs d (o : Tm.obs) =
  let tr = tracer d in
  match o with
  | Tm.Query_open { index; server } ->
    if Tracer.enabled tr then begin
      d.query_span <- Tracer.start tr ~parent:d.txn_span ~track:d.name "query";
      Tracer.set_attr tr d.query_span "index" (string_of_int index);
      Tracer.set_attr tr d.query_span "server" server
    end
  | Tm.Query_close { outcome } ->
    if Tracer.enabled tr && d.query_span <> Tracer.no_span then begin
      Tracer.finish tr ~attrs:[ ("outcome", outcome) ] d.query_span;
      d.query_span <- Tracer.no_span
    end
  | Tm.Round_open { parent; span_name; round; query } ->
    if Tracer.enabled tr then begin
      let parent =
        match parent with `Txn -> d.txn_span | `Phase -> d.phase_span
      in
      d.round_span <- Tracer.start tr ~parent ~track:d.name span_name;
      Tracer.set_attr tr d.round_span "round" (string_of_int round);
      Option.iter
        (fun q -> Tracer.set_attr tr d.round_span "query" (string_of_int q))
        query
    end
  | Tm.Round_close { resolution } ->
    if Tracer.enabled tr && d.round_span <> Tracer.no_span then begin
      let attrs = Option.map (fun r -> [ ("resolution", r) ]) resolution in
      Tracer.finish tr ?attrs d.round_span;
      d.round_span <- Tracer.no_span
    end
  | Tm.Phase_open { span_name; reason } ->
    if Tracer.enabled tr then begin
      d.phase_span <- Tracer.start tr ~parent:d.txn_span ~track:d.name span_name;
      Option.iter (fun r -> Tracer.set_attr tr d.phase_span "reason" r) reason
    end;
    if Registry.enabled (registry d) then begin
      match span_name with
      | "2pvc.prepare" -> d.commit_started_at <- now d
      | "2pvc.commit" | "2pvc.abort" -> d.decided_at <- now d
      | _ -> ()
    end
  | Tm.Phase_close ->
    if Tracer.enabled tr && d.phase_span <> Tracer.no_span then begin
      Tracer.finish tr d.phase_span;
      d.phase_span <- Tracer.no_span
    end
  | Tm.Txn_close { outcome; reason } ->
    if Tracer.enabled tr && d.txn_span <> Tracer.no_span then begin
      Tracer.finish tr
        ~attrs:[ ("outcome", outcome); ("reason", reason) ]
        d.txn_span;
      d.txn_span <- Tracer.no_span
    end

let finish d (cfg : config) ~committed ~reason ~commit_rounds =
  if d.finished then ()
  else begin
  d.finished <- true;
  let txn_id = d.txn_id in
  let proofs = Cluster.take_proofs d.cluster ~txn:txn_id in
  let reg = registry d in
  let submitted_at = Tm.submitted_at d.machine in
  if Registry.enabled reg then begin
    let labels = scheme_labels cfg in
    let finished_at = now d in
    Registry.incr reg "txn_total"
      (("outcome", if committed then "commit" else "abort") :: labels);
    Registry.observe reg "txn_latency_ms" labels (finished_at -. submitted_at);
    Registry.observe reg "commit_rounds" labels (float_of_int commit_rounds);
    Registry.observe reg "proofs_per_txn" labels (float_of_int proofs);
    if Float.is_finite d.commit_started_at then begin
      Registry.observe reg "phase_execute_ms" labels
        (d.commit_started_at -. submitted_at);
      if Float.is_finite d.decided_at then
        Registry.observe reg "phase_commit_ms" labels
          (d.decided_at -. d.commit_started_at)
    end;
    if Float.is_finite d.decided_at then
      Registry.observe reg "phase_decide_ms" labels (finished_at -. d.decided_at)
  end;
  let outcome =
    {
      Outcome.txn = txn_id;
      scheme = cfg.scheme;
      level = cfg.level;
      committed;
      reason;
      submitted_at;
      finished_at = now d;
      commit_rounds;
      proofs_evaluated = proofs;
      view = Tm.view d.machine;
    }
  in
  d.on_done outcome
  end

let rec perform d (cfg : config) (a : Tm.action) =
  match a with
  | Tm.Send { dst; msg } ->
    if d.adaptive && not (Hashtbl.mem d.rtt_sent dst) then
      Hashtbl.replace d.rtt_sent dst (now d);
    Transport.send (transport d) ~src:d.name ~dst msg
  | Tm.Arm_watchdog { epoch; delay } ->
    Transport.at (transport d) ~delay (fun () ->
        if not d.machine_dead then dispatch d cfg (Tm.Watchdog_fired { epoch }))
  | Tm.Arm_retry { delay } ->
    Transport.at (transport d) ~delay (fun () ->
        if not d.machine_dead then dispatch d cfg Tm.Retry_fired)
  | Tm.Force_log ->
    (* The decision record is now durable: remember it driver-side so a
       crashed coordinator's [restart] can re-drive the decision phase. *)
    (match Tm.decision d.machine with
    | Some commit ->
      d.durable <-
        Some (commit, Tm.reason d.machine, Tm.decision_targets d.machine)
    | None -> ());
    if Registry.enabled (registry d) then
      Registry.incr (registry d) "log_force_total" [ ("site", "tm") ]
  | Tm.Mark label -> Transport.mark (transport d) ~node:d.name label
  | Tm.Obs o -> perform_obs d o
  | Tm.Finish { committed; reason; commit_rounds } ->
    Log.debug (fun m ->
        m "%s: finished %s (%s)" d.name
          (if committed then "COMMIT" else "ABORT")
          (Outcome.reason_name reason));
    finish d cfg ~committed ~reason ~commit_rounds

and dispatch d cfg input =
  let j = journal d in
  if Journal.enabled j then begin
    journal_input j ~node:d.name input;
    let actions = Tm.handle d.machine input in
    journal_actions j ~node:d.name actions;
    List.iter (perform d cfg) actions
  end
  else List.iter (perform d cfg) (Tm.handle d.machine input)

type handle = driver

let txn_id d = d.txn_id

(* Distinct servers of the transaction's queries, in first-use order —
   the set a resilience gate indicts or protects. *)
let txn_servers txn =
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun acc (q : Cloudtx_txn.Query.t) ->
      if Hashtbl.mem seen q.Cloudtx_txn.Query.server then acc
      else begin
        Hashtbl.add seen q.Cloudtx_txn.Query.server ();
        q.Cloudtx_txn.Query.server :: acc
      end)
    [] txn.Transaction.queries
  |> List.rev

(* Fast-fail at submit: no machine, no protocol traffic, no create
   record — just the resilience event (already journaled by [admit]),
   the outcome metrics, and a dead handle whose crash/restart are
   no-ops. *)
let reject_fast cluster (cfg : config) txn ~submitted_at ~reason ~on_done =
  let transport = Cluster.transport cluster in
  let reg = Transport.registry transport in
  if Registry.enabled reg then
    Registry.incr reg "txn_total"
      (("outcome", "abort") :: scheme_labels cfg);
  let outcome =
    {
      Outcome.txn = txn.Transaction.id;
      scheme = cfg.scheme;
      level = cfg.level;
      committed = false;
      reason;
      submitted_at;
      finished_at = submitted_at;
      commit_rounds = 0;
      proofs_evaluated = 0;
      view = Cloudtx_protocol.View.create ~txn:txn.Transaction.id;
    }
  in
  let d =
    {
      cluster;
      machine = Tm.create cfg txn ~submitted_at;
      cfg;
      name = "tm-" ^ txn.Transaction.id;
      txn_id = txn.Transaction.id;
      on_done;
      dedup = false;
      seen = Hashtbl.create 1;
      adaptive = false;
      rtt_sent = Hashtbl.create 1;
      machine_dead = true;
      durable = None;
      finished = true;
      txn_span = Tracer.no_span;
      query_span = Tracer.no_span;
      round_span = Tracer.no_span;
      phase_span = Tracer.no_span;
      commit_started_at = Float.nan;
      decided_at = Float.nan;
    }
  in
  on_done outcome;
  d

let submit_handle ?ts ?(dedup = true) ?resilience cluster (cfg : config) txn
    ~on_done =
  if txn.Transaction.queries = [] then
    invalid_arg "Manager.submit: transaction has no queries";
  let name = "tm-" ^ txn.Transaction.id in
  let transport = Cluster.transport cluster in
  let submitted_at = Option.value ~default:(Transport.now transport) ts in
  match
    match resilience with
    | None -> Ok ()
    | Some r ->
      Resilience.admit r ~txn:txn.Transaction.id ~servers:(txn_servers txn)
        ~now:submitted_at
  with
  | Error `Admission ->
    reject_fast cluster cfg txn ~submitted_at
      ~reason:Outcome.Admission_rejected ~on_done
  | Error (`Breaker _) ->
    reject_fast cluster cfg txn ~submitted_at ~reason:Outcome.Breaker_open
      ~on_done
  | Ok () ->
  let on_done =
    match resilience with
    | None -> on_done
    | Some r ->
      let servers = txn_servers txn in
      fun (o : Outcome.t) ->
        Resilience.note_outcome r ~txn:txn.Transaction.id ~servers
          ~now:o.Outcome.finished_at ~reason:o.Outcome.reason;
        on_done o
  in
  let machine = Tm.create cfg txn ~submitted_at in
  Cluster.track_proofs cluster ~txn:txn.Transaction.id;
  let d =
    {
      cluster;
      machine;
      cfg;
      name;
      txn_id = txn.Transaction.id;
      on_done;
      dedup;
      seen = Hashtbl.create 32;
      adaptive =
        (match cfg.timeout_policy with
        | Cloudtx_protocol.Timeout_policy.Fixed -> false
        | Cloudtx_protocol.Timeout_policy.Adaptive _ -> true);
      rtt_sent = Hashtbl.create 8;
      machine_dead = false;
      durable = None;
      finished = false;
      txn_span = Tracer.no_span;
      query_span = Tracer.no_span;
      round_span = Tracer.no_span;
      phase_span = Tracer.no_span;
      commit_started_at = Float.nan;
      decided_at = Float.nan;
    }
  in
  Transport.register_seq transport name (fun ~src ~seq msg ->
      if d.machine_dead then ()
      else if d.dedup && Hashtbl.mem d.seen seq then begin
        if Tracer.enabled (Transport.tracer transport) then
          Transport.mark transport ~node:name ("dedup:" ^ Message.label msg)
      end
      else begin
        if d.dedup then Hashtbl.replace d.seen seq ();
        (* Measured request->first-reply RTT feeds the adaptive timeout
           policy's per-peer sketch; journaled as a machine input so
           replay sees identical estimates (and identical delays). *)
        if d.adaptive then begin
          match Hashtbl.find_opt d.rtt_sent src with
          | Some t0 ->
            Hashtbl.remove d.rtt_sent src;
            dispatch d cfg
              (Tm.Rtt_sample { peer = src; ms = Transport.now transport -. t0 })
          | None -> ()
        end;
        dispatch d cfg (Tm.Deliver { src; msg })
      end);
  Transport.mark transport ~node:name "txn_start";
  let tr = Transport.tracer transport in
  if Tracer.enabled tr then begin
    d.txn_span <- Tracer.start tr ~track:name "txn";
    Tracer.set_attr tr d.txn_span "txn" txn.Transaction.id;
    Tracer.set_attr tr d.txn_span "scheme" (Scheme.name cfg.scheme);
    Tracer.set_attr tr d.txn_span "consistency" (Consistency.name cfg.level)
  end;
  let j = Transport.journal transport in
  let actions = Tm.start machine in
  if Journal.enabled j then begin
    (match Journal.format j with
    | Journal.Jsonl ->
      Journal.record j ~node:name ~dir:"create"
        ~payload:
          (Codec.to_string
             (Cloudtx_policy.Json.Obj
                [
                  ("kind", Cloudtx_policy.Json.String "tm");
                  ("config", Codec.config_to_json cfg);
                  ("txn", Codec.transaction_to_json txn);
                  ("submitted_at", Cloudtx_policy.Json.Float submitted_at);
                ]))
    | Journal.Binary ->
      Journal.record_frame j ~node:name ~dir:"create" ~emit:(fun b ->
          Codec_bin.emit_create_tm b ~config:cfg ~txn ~submitted_at));
    journal_actions j ~node:name actions
  end;
  List.iter (perform d cfg) actions;
  d

let submit ?ts ?resilience cluster cfg txn ~on_done =
  ignore (submit_handle ?ts ?resilience cluster cfg txn ~on_done : handle)

let crash d =
  d.machine_dead <- true;
  Transport.crash (transport d) d.name;
  Transport.mark (transport d) ~node:d.name "crash"

(* Retransmission attempts before the coordinator stops pushing and relies
   on participant [Inquiry] pulls (their timers re-trigger independently),
   keeping a simulation with a permanently dead participant finite. *)
let max_decision_retries = 25

let restart d =
  let transport = transport d in
  Transport.recover transport d.name;
  Transport.unregister transport d.name;
  Transport.mark transport ~node:d.name "recover";
  match d.durable with
  | Some (commit, reason, targets) ->
    (* Decision survived in the forced log: re-drive the decision phase
       at-least-once, answering Inquiry pulls, until every participant
       still owed the decision has acknowledged it. *)
    let pending = Hashtbl.create 8 in
    List.iter (fun p -> Hashtbl.replace pending p ()) targets;
    let decision = Message.Decision { txn = d.txn_id; commit } in
    let deliver_outcome () =
      finish d d.cfg ~committed:commit ~reason
        ~commit_rounds:(Tm.commit_rounds d.machine)
    in
    Transport.register transport d.name (fun ~src msg ->
        match msg with
        | Message.Decision_ack { txn } when String.equal txn d.txn_id ->
          Hashtbl.remove pending src;
          if Hashtbl.length pending = 0 then deliver_outcome ()
        | Message.Inquiry { txn } when String.equal txn d.txn_id ->
          Transport.send transport ~src:d.name ~dst:src decision
        | _ -> ());
    let resend () =
      Hashtbl.iter
        (fun p () -> Transport.send transport ~src:d.name ~dst:p decision)
        pending
    in
    let retry = if d.cfg.decision_retry > 0. then d.cfg.decision_retry else 1. in
    let rec rearm attempts =
      Transport.at transport ~delay:retry (fun () ->
          if Hashtbl.length pending > 0 then begin
            resend ();
            if attempts < max_decision_retries then rearm (attempts + 1)
          end)
    in
    if Hashtbl.length pending = 0 then deliver_outcome ()
    else begin
      resend ();
      rearm 1
    end
  | None ->
    (* No durable decision record: Section V's presumed abort.  Answer
       any in-doubt participant's Inquiry with ABORT; the outcome is
       known now. *)
    Transport.register transport d.name (fun ~src msg ->
        match msg with
        | Message.Inquiry { txn } when String.equal txn d.txn_id ->
          Transport.send transport ~src:d.name ~dst:src
            (Message.Decision { txn = d.txn_id; commit = false })
        | _ -> ());
    finish d d.cfg ~committed:false ~reason:Outcome.Coordinator_crash
      ~commit_rounds:0

let run_one cluster cfg txn =
  let result = ref None in
  submit cluster cfg txn ~on_done:(fun o -> result := Some o);
  ignore (Cluster.run cluster);
  match !result with
  | Some o -> o
  | None ->
    failwith
      (Printf.sprintf "transaction %s did not complete (simulation quiescent)"
         txn.Cloudtx_txn.Transaction.id)
