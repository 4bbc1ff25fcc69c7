module Json = Cloudtx_policy.Json
module Codec_bin = Cloudtx_protocol.Codec_bin
module Tm = Cloudtx_protocol.Tm_machine
module Ps = Cloudtx_protocol.Ps_machine
module Monitor = Cloudtx_obs.Monitor
module Proof = Cloudtx_policy.Proof
module Policy = Cloudtx_policy.Policy

(* Phase boundaries recovered from the journaled TM lifecycle: creation,
   the Obs Phase_open marks, and Finish — the same clock points
   [Manager] samples for the registry's phase histograms, so offline
   latency derivation reproduces the live metrics exactly. *)
type phase_times = {
  begun_at : float;
  mutable prepare_at : float option;
  mutable decided_at : float option;
}

type t = {
  monitor : Monitor.t;
  timeseries : Cloudtx_obs.Timeseries.t option;
  tms : (string, string) Hashtbl.t;  (* TM node -> its transaction *)
  phase_times : (string, phase_times) Hashtbl.t;
  mutable decode_errors : int;
}

let create ?timeseries monitor =
  {
    monitor;
    timeseries;
    tms = Hashtbl.create 16;
    phase_times = Hashtbl.create 16;
    decode_errors = 0;
  }

let decode_errors t = t.decode_errors

let emit t ~seq ~time_ms ev =
  Monitor.observe t.monitor ~seq ~time_ms ev;
  match t.timeseries with
  | Some ts -> Cloudtx_obs.Timeseries.observe ts ~seq ~time_ms ev
  | None -> ()

let emit_masters t ~seq ~time_ms policies =
  List.iter
    (fun (p : Policy.t) ->
      emit t ~seq ~time_ms
        (Monitor.Master_version { domain = p.Policy.domain; version = p.Policy.version }))
    policies

let emit_proofs t ~seq ~time_ms ~txn proofs =
  List.iter
    (fun (p : Proof.t) ->
      emit t ~seq ~time_ms
        (Monitor.Proof_result
           {
             txn;
             node = p.Proof.server;
             domain = p.Proof.domain;
             version = p.Proof.policy_version;
             result = p.Proof.result;
           }))
    proofs

(* ------------------------------------------------------------------ *)
(* Per-record event extraction                                         *)
(* ------------------------------------------------------------------ *)

let on_create_tm t ~seq ~time_ms ~node (cfg : Tm.config) txn =
  let txn = txn.Cloudtx_txn.Transaction.id in
  Hashtbl.replace t.tms node txn;
  Hashtbl.replace t.phase_times txn
    { begun_at = time_ms; prepare_at = None; decided_at = None };
  emit t ~seq ~time_ms
    (Monitor.Txn_begin
       {
         txn;
         node;
         scheme = Scheme.name cfg.Tm.scheme;
         level = Consistency.name cfg.Tm.level;
       })

let on_tm_input t ~seq ~time_ms ~txn input =
  (* Any input means the TM machine stepped. *)
  emit t ~seq ~time_ms (Monitor.Txn_step { txn });
  match input with
  | Tm.Deliver { msg; _ } -> (
    match msg with
    | Message.Master_version_reply { policies; _ } ->
      emit_masters t ~seq ~time_ms policies
    | Message.Validate_reply { txn; proofs; _ }
    | Message.Commit_reply { txn; proofs; _ } ->
      emit_proofs t ~seq ~time_ms ~txn proofs
    | _ -> ())
  | Tm.Watchdog_fired _ | Tm.Retry_fired | Tm.Rtt_sample _ -> ()

let emit_latency t ~seq ~time_ms txn =
  match Hashtbl.find_opt t.phase_times txn with
  | None -> ()
  | Some pt ->
    Hashtbl.remove t.phase_times txn;
    let diff a b = Option.map (fun x -> x -. b) a in
    emit t ~seq ~time_ms
      (Monitor.Txn_latency
         {
           txn;
           total_ms = time_ms -. pt.begun_at;
           execute_ms = diff pt.prepare_at pt.begun_at;
           commit_ms =
             (match (pt.prepare_at, pt.decided_at) with
             | Some p, Some d -> Some (d -. p)
             | _ -> None);
           decide_ms = Option.map (fun d -> time_ms -. d) pt.decided_at;
         })

let on_tm_action t ~seq ~time_ms ~node ~txn = function
  | Tm.Obs (Tm.Phase_open { span_name; _ }) ->
    (match Hashtbl.find_opt t.phase_times txn with
    | Some pt -> (
      (* The same clock points Manager samples: prepare opening starts
         the commit phase; the commit/abort phase opening is the
         decision instant. *)
      match span_name with
      | "2pvc.prepare" -> pt.prepare_at <- Some time_ms
      | "2pvc.commit" | "2pvc.abort" -> pt.decided_at <- Some time_ms
      | _ -> ())
    | None -> ());
    emit t ~seq ~time_ms (Monitor.Activity { node })
  | Tm.Finish { committed; reason; _ } ->
    emit_latency t ~seq ~time_ms txn;
    emit t ~seq ~time_ms
      (Monitor.Txn_end
         {
           txn;
           committed;
           reason = Outcome.reason_name reason;
           killed = reason = Outcome.Wait_die;
         })
  | Tm.Send { msg = Message.Policy_update { policies; _ }; _ } ->
    (* Fresh bodies the TM relays came from the master. *)
    emit_masters t ~seq ~time_ms policies;
    emit t ~seq ~time_ms (Monitor.Activity { node })
  | _ -> emit t ~seq ~time_ms (Monitor.Activity { node })

let emit_replicas t ~seq ~time_ms ~node policies =
  List.iter
    (fun (p : Policy.t) ->
      emit t ~seq ~time_ms
        (Monitor.Replica_version
           { node; domain = p.Policy.domain; version = p.Policy.version }))
    policies

let on_ps_input t ~seq ~time_ms ~node = function
  | Ps.Prepared { txn; vote } ->
    emit t ~seq ~time_ms (Monitor.Vote { txn; node; vote })
  | Ps.Evaluated { txn; proofs; policies; _ } ->
    emit_proofs t ~seq ~time_ms ~txn proofs;
    emit_replicas t ~seq ~time_ms ~node policies
  | Ps.Deliver { msg; _ } ->
    (match msg with
    | Message.Propagate_policy { policy } -> emit_masters t ~seq ~time_ms [ policy ]
    | Message.Policy_update { policies; _ } -> emit_masters t ~seq ~time_ms policies
    | _ -> ());
    emit t ~seq ~time_ms (Monitor.Activity { node })
  | _ -> emit t ~seq ~time_ms (Monitor.Activity { node })

let on_ps_action t ~seq ~time_ms ~node = function
  | Ps.Install { policies; _ } -> emit_replicas t ~seq ~time_ms ~node policies
  | Ps.Prepare { policy_versions; _ } ->
    List.iter
      (fun (domain, version) ->
        emit t ~seq ~time_ms (Monitor.Replica_version { node; domain; version }))
      policy_versions
  | _ -> emit t ~seq ~time_ms (Monitor.Activity { node })

(* dir="event" records: driver-side resilience events (breaker
   transitions, admission rejections) journaled as JSON text on the
   synthetic "resilience" node — decoded into the Watchtower's
   breaker_flap / admission_storm vocabulary.  Unknown event kinds pass
   through as plain activity (forward compatibility, not an error). *)
let on_event t ~seq ~time_ms ~node payload =
  let str k = Result.bind (Json.member k payload) Json.to_str in
  let malformed () =
    t.decode_errors <- t.decode_errors + 1;
    emit t ~seq ~time_ms (Monitor.Activity { node })
  in
  match str "event" with
  | Ok "breaker" -> (
    match (str "server", str "from", str "to") with
    | Ok server, Ok from_, Ok to_ ->
      emit t ~seq ~time_ms (Monitor.Breaker_transition { server; from_; to_ })
    | _ -> malformed ())
  | Ok "admission" -> (
    match (str "txn", str "reason") with
    | Ok txn, Ok reason ->
      let server = Result.to_option (str "server") in
      emit t ~seq ~time_ms (Monitor.Admission_reject { txn; reason; server })
    | _ -> malformed ())
  | Ok _ -> emit t ~seq ~time_ms (Monitor.Activity { node })
  | Error _ -> malformed ()

(* A TM record from a node whose create this stream never saw (evicted
   from a capped buffer) only advances the monitor's clock. *)
let step t (r : Journal_io.record) =
  let { Journal_io.seq; time_ms; node; body } = r in
  let activity () = emit t ~seq ~time_ms (Monitor.Activity { node }) in
  let with_txn f =
    match Hashtbl.find_opt t.tms node with
    | Some txn -> f txn
    | None -> activity ()
  in
  match body with
  | Journal_io.Undecodable _ ->
    t.decode_errors <- t.decode_errors + 1;
    activity ()
  | Journal_io.Event payload -> on_event t ~seq ~time_ms ~node payload
  | Journal_io.Payload (Codec_bin.Create_tm { config; txn; _ }) ->
    on_create_tm t ~seq ~time_ms ~node config txn
  | Journal_io.Payload (Codec_bin.Create_ps _) -> activity ()
  | Journal_io.Payload (Codec_bin.Tm_input input) ->
    with_txn (fun txn -> on_tm_input t ~seq ~time_ms ~txn input)
  | Journal_io.Payload (Codec_bin.Tm_action action) ->
    with_txn (fun txn -> on_tm_action t ~seq ~time_ms ~node ~txn action)
  | Journal_io.Payload (Codec_bin.Ps_input input) ->
    on_ps_input t ~seq ~time_ms ~node input
  | Journal_io.Payload (Codec_bin.Ps_action action) ->
    on_ps_action t ~seq ~time_ms ~node action

let attach ?timeseries journal monitor =
  let t = create ?timeseries monitor in
  Journal_io.attach journal (step t);
  t

(* ------------------------------------------------------------------ *)
(* Offline replay                                                      *)
(* ------------------------------------------------------------------ *)

let of_file ?timeseries path monitor =
  let t = create ?timeseries monitor in
  Journal_io.fold_file path ~init:(fun _ -> 0) (fun n r ->
      step t r;
      n + 1)
