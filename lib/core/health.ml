module Json = Cloudtx_policy.Json
module Codec_bin = Cloudtx_protocol.Codec_bin
module Tm = Cloudtx_protocol.Tm_machine
module Ps = Cloudtx_protocol.Ps_machine
module Monitor = Cloudtx_obs.Monitor
module Proof = Cloudtx_policy.Proof
module Policy = Cloudtx_policy.Policy
module Timeseries = Cloudtx_obs.Timeseries

(* An open transaction: the monitor's state for it and the phase
   boundaries recovered from its journaled TM lifecycle — creation, the
   Obs Phase_open marks, and Finish — the same clock points [Manager]
   samples for the registry's phase histograms, so offline latency
   derivation reproduces the live metrics exactly. *)
type timing = {
  mon : Monitor.txn;
  begun_at : float;
  mutable prepare_at : float option;
  mutable decided_at : float option;
}

type t = {
  monitor : Monitor.t;
  timeseries : Timeseries.t option;
  tms : (string, string) Hashtbl.t;  (* TM node -> its transaction, until
                                        it finishes *)
  timings : (string, timing) Hashtbl.t;  (* until the transaction finishes *)
  (* The last TM record's node, its transaction and that transaction's
     timing: found once for a run of records from one node, forgotten
     whenever [tms] or [timings] changes. *)
  mutable found : bool;
  mutable found_node : string;
  mutable found_txn : string;
  mutable found_timing : timing option;
  mutable decode_errors : int;
}

let create ?timeseries monitor =
  {
    monitor;
    timeseries;
    tms = Hashtbl.create 16;
    timings = Hashtbl.create 16;
    found = false;
    found_node = "";
    found_txn = "";
    found_timing = None;
    decode_errors = 0;
  }

let decode_errors t = t.decode_errors

(* Whether [node] runs a transaction this stream saw created; it and its
   timing are then [found_txn] and [found_timing]. *)
let find_tm t node =
  (t.found && String.equal node t.found_node)
  ||
  match Hashtbl.find t.tms node with
  | txn ->
    t.found <- true;
    t.found_node <- node;
    t.found_txn <- txn;
    t.found_timing <- Hashtbl.find_opt t.timings txn;
    true
  | exception Not_found -> false

let tick_series t ~time_ms =
  match t.timeseries with
  | Some ts -> Timeseries.tick ts ~time_ms
  | None -> ()

(* A record that carries no event still advances the monitor's clock and
   reaches its time-series window. *)
let tick t ~seq ~time_ms =
  Monitor.tick t.monitor ~seq ~time_ms;
  tick_series t ~time_ms

(* An event the monitor reads, which the time series only ticks on. *)
let emit_event t ~seq ~time_ms ev =
  Monitor.observe t.monitor ~seq ~time_ms ev;
  tick_series t ~time_ms

let staleness t ~time_ms lag =
  match t.timeseries with
  | Some ts -> Timeseries.staleness ts ~time_ms lag
  | None -> ()

let rec emit_masters t ~seq ~time_ms = function
  | [] -> ()
  | (p : Policy.t) :: rest ->
    staleness t ~time_ms
      (Monitor.master_version t.monitor ~seq ~time_ms ~domain:p.Policy.domain
         ~version:p.Policy.version);
    emit_masters t ~seq ~time_ms rest

let rec emit_proofs t ~seq ~time_ms ~txn = function
  | [] -> ()
  | (p : Proof.t) :: rest ->
    staleness t ~time_ms
      (Monitor.proof_result t.monitor ~seq ~time_ms ~txn ~node:p.Proof.server
         ~domain:p.Proof.domain ~version:p.Proof.policy_version
         ~result:p.Proof.result);
    emit_proofs t ~seq ~time_ms ~txn rest

let emit_replica t ~seq ~time_ms ~node domain version =
  staleness t ~time_ms
    (Monitor.replica_version t.monitor ~seq ~time_ms ~node ~domain ~version)

let rec emit_replicas t ~seq ~time_ms ~node = function
  | [] -> ()
  | (p : Policy.t) :: rest ->
    emit_replica t ~seq ~time_ms ~node p.Policy.domain p.Policy.version;
    emit_replicas t ~seq ~time_ms ~node rest

(* ------------------------------------------------------------------ *)
(* Per-record observations                                             *)
(* ------------------------------------------------------------------ *)

let on_create_tm t ~seq ~time_ms ~node txn =
  let txn = txn.Cloudtx_txn.Transaction.id in
  Hashtbl.replace t.tms node txn;
  let mon = Monitor.txn_begin t.monitor ~seq ~time_ms ~txn ~node in
  Hashtbl.replace t.timings txn
    { mon; begun_at = time_ms; prepare_at = None; decided_at = None };
  t.found <- false;
  match t.timeseries with
  | Some ts -> Timeseries.txn_begin ts ~time_ms
  | None -> ()

let on_tm_input t ~seq ~time_ms input =
  (* Any input means the TM machine stepped. *)
  (match t.found_timing with
  | Some pt -> Monitor.txn_step t.monitor ~seq ~time_ms pt.mon
  | None -> Monitor.tick t.monitor ~seq ~time_ms);
  tick_series t ~time_ms;
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

let emit_latency t ~seq ~time_ms txn (pt : timing) =
  Hashtbl.remove t.timings txn;
  t.found <- false;
  Monitor.tick t.monitor ~seq ~time_ms;
  match t.timeseries with
  | None -> ()
  | Some ts ->
    let diff a b = Option.map (fun x -> x -. b) a in
    Timeseries.latency ts ~time_ms ~total_ms:(time_ms -. pt.begun_at)
      ~execute_ms:(diff pt.prepare_at pt.begun_at)
      ~commit_ms:
        (match (pt.prepare_at, pt.decided_at) with
        | Some p, Some d -> Some (d -. p)
        | _ -> None)
      ~decide_ms:(Option.map (fun d -> time_ms -. d) pt.decided_at)

let on_tm_action t ~seq ~time_ms ~node = function
  | Tm.Obs (Tm.Phase_open { span_name; _ }) ->
    (match t.found_timing with
    | Some pt -> (
      (* The same clock points Manager samples: prepare opening starts
         the commit phase; the commit/abort phase opening is the
         decision instant. *)
      match span_name with
      | "2pvc.prepare" -> pt.prepare_at <- Some time_ms
      | "2pvc.commit" | "2pvc.abort" -> pt.decided_at <- Some time_ms
      | _ -> ())
    | None -> ());
    tick t ~seq ~time_ms
  | Tm.Finish { committed; reason; _ } -> (
    let txn = t.found_txn in
    Hashtbl.remove t.tms node;
    t.found <- false;
    Option.iter (emit_latency t ~seq ~time_ms txn) t.found_timing;
    let killed = reason = Outcome.Wait_die in
    Monitor.observe t.monitor ~seq ~time_ms
      (Monitor.Txn_end
         { txn; committed; reason = Outcome.reason_name reason; killed });
    match t.timeseries with
    | Some ts -> Timeseries.txn_end ts ~time_ms ~committed ~killed
    | None -> ())
  | Tm.Send { msg = Message.Policy_update { policies; _ }; _ } ->
    (* Fresh bodies the TM relays came from the master. *)
    emit_masters t ~seq ~time_ms policies;
    tick t ~seq ~time_ms
  | _ -> tick t ~seq ~time_ms

let on_ps_input t ~seq ~time_ms ~node = function
  | Ps.Prepared { txn; vote } ->
    emit_event t ~seq ~time_ms (Monitor.Vote { txn; node; vote })
  | Ps.Evaluated { txn; proofs; policies; _ } ->
    emit_proofs t ~seq ~time_ms ~txn proofs;
    emit_replicas t ~seq ~time_ms ~node policies
  | Ps.Deliver { msg; _ } ->
    (match msg with
    | Message.Propagate_policy { policy } -> emit_masters t ~seq ~time_ms [ policy ]
    | Message.Policy_update { policies; _ } -> emit_masters t ~seq ~time_ms policies
    | _ -> ());
    tick t ~seq ~time_ms
  | _ -> tick t ~seq ~time_ms

let on_ps_action t ~seq ~time_ms ~node = function
  | Ps.Install { policies; _ } -> emit_replicas t ~seq ~time_ms ~node policies
  | Ps.Prepare { policy_versions; _ } ->
    List.iter
      (fun (domain, version) -> emit_replica t ~seq ~time_ms ~node domain version)
      policy_versions
  | _ -> tick t ~seq ~time_ms

(* dir="event" records: driver-side resilience events (breaker
   transitions, admission rejections) journaled as JSON text on the
   synthetic "resilience" node — decoded into the Watchtower's
   breaker_flap / admission_storm vocabulary.  Unknown event kinds only
   tick (forward compatibility, not an error). *)
let on_event t ~seq ~time_ms payload =
  let str k = Result.bind (Json.member k payload) Json.to_str in
  let malformed () =
    t.decode_errors <- t.decode_errors + 1;
    tick t ~seq ~time_ms
  in
  match str "event" with
  | Ok "breaker" -> (
    match (str "server", str "from", str "to") with
    | Ok server, Ok from_, Ok to_ ->
      emit_event t ~seq ~time_ms (Monitor.Breaker_transition { server; from_; to_ })
    | _ -> malformed ())
  | Ok "admission" -> (
    match (str "txn", str "reason") with
    | Ok txn, Ok reason ->
      let server = Result.to_option (str "server") in
      emit_event t ~seq ~time_ms (Monitor.Admission_reject { txn; reason; server })
    | _ -> malformed ())
  | Ok _ -> tick t ~seq ~time_ms
  | Error _ -> malformed ()

(* A TM record from a node whose create this stream never saw (evicted
   from a capped buffer), or whose transaction already finished, only
   ticks. *)
let step t (r : Journal_io.record) =
  let { Journal_io.seq; time_ms; node; body } = r in
  match body with
  | Journal_io.Undecodable _ ->
    t.decode_errors <- t.decode_errors + 1;
    tick t ~seq ~time_ms
  | Journal_io.Event payload -> on_event t ~seq ~time_ms payload
  | Journal_io.Payload (Codec_bin.Create_tm { txn; _ }) ->
    on_create_tm t ~seq ~time_ms ~node txn
  | Journal_io.Payload (Codec_bin.Create_ps _) -> tick t ~seq ~time_ms
  | Journal_io.Payload (Codec_bin.Tm_input input) ->
    if find_tm t node then on_tm_input t ~seq ~time_ms input
    else tick t ~seq ~time_ms
  | Journal_io.Payload (Codec_bin.Tm_action action) ->
    if find_tm t node then on_tm_action t ~seq ~time_ms ~node action
    else tick t ~seq ~time_ms
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
