module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Participant = Cloudtx_core.Participant
module Master = Cloudtx_core.Master
module Outcome = Cloudtx_protocol.Outcome
module Audit = Cloudtx_core.Audit
module Certify = Cloudtx_core.Certify
module Trusted = Cloudtx_core.Trusted
module Journal_io = Cloudtx_core.Journal_io
module Scenario = Cloudtx_workload.Scenario
module Transport = Cloudtx_sim.Transport
module Network = Cloudtx_sim.Network
module Latency = Cloudtx_sim.Latency
module Journal = Cloudtx_obs.Journal
module Monitor = Cloudtx_obs.Monitor
module Timeseries = Cloudtx_obs.Timeseries
module Health = Cloudtx_core.Health
module Server = Cloudtx_store.Server
module Wal = Cloudtx_store.Wal
module Tpc = Cloudtx_txn.Tpc
module Resilience = Cloudtx_core.Resilience
module Timeout_policy = Cloudtx_protocol.Timeout_policy
module Codec_bin = Cloudtx_protocol.Codec_bin
module Tm = Cloudtx_protocol.Tm_machine

type cell = { scheme : Scheme.t; level : Consistency.level }

let cell_name c =
  Printf.sprintf "%s:%s" (Scheme.name c.scheme) (Consistency.name c.level)

let cell_of_string s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "cell %S: want SCHEME:LEVEL" s)
  | Some i -> (
    let scheme = String.sub s 0 i in
    let level = String.sub s (i + 1) (String.length s - i - 1) in
    match (Scheme.of_string scheme, Consistency.of_string level) with
    | Some scheme, Some level -> Ok { scheme; level }
    | None, _ -> Error (Printf.sprintf "unknown scheme %S" scheme)
    | _, None -> Error (Printf.sprintf "unknown consistency level %S" level))

let all_cells =
  List.concat_map
    (fun scheme ->
      List.map (fun level -> { scheme; level }) [ Consistency.View; Consistency.Global ])
    Scheme.all

type failure = { what : string; journal : string list }

(* Run shape: three spread transactions over three servers, staggered
   starts, every query writing — the worst case for fault overlap.  The
   termination protocol and decision retransmission are always armed;
   crash-free runs at these knobs stay timer-quiet because every vote
   round completes long before the timeouts fire. *)
let n_servers = 3
let n_txns = 3
let inquiry_timeout = 30.
let vote_timeout = 60.
let decision_retry = 8.
let quiesce_steps = 400_000

exception Violation of string

let run_plan ?(dedup = true) ?(certify = false) ?variant ?journal_format
    ?journal_path ?metrics_path ?metrics_width_ms
    ?(policy = Timeout_policy.Fixed) ?resilience (cell : cell) (plan : Plan.t)
    =
  let sc =
    Scenario.retail ~seed:plan.Plan.seed ?variant ~dedup ~inquiry_timeout
      ~n_servers ~n_subjects:n_txns ()
  in
  let cluster = sc.Scenario.cluster in
  let tr = Cluster.transport cluster in
  let journal =
    Transport.enable_journal ?format:journal_format ?path:journal_path tr
  in
  (* The journal's record stream is decoded once, as it is recorded, and
     feeds the assertion layers that read it: the retry-budget count, the
     audit and the certifier. *)
  let audit = Audit.create ~version:Journal.format_version in
  let cert = Certify.create () in
  let peak_retries = Hashtbl.create 8 in
  let count_retries =
    (* Per TM *incarnation*: a coordinator restart recreates the machine
       (a fresh create record) and legitimately re-earns the budget, so
       the count resets there. *)
    let current = Hashtbl.create 8 in
    fun (r : Journal_io.record) ->
      match r.Journal_io.body with
      | Journal_io.Payload (Codec_bin.Create_tm _) ->
        Hashtbl.replace current r.Journal_io.node 0
      | Journal_io.Payload (Codec_bin.Tm_input Tm.Retry_fired) ->
        let node = r.Journal_io.node in
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt current node) in
        Hashtbl.replace current node n;
        if n > Option.value ~default:0 (Hashtbl.find_opt peak_retries node) then
          Hashtbl.replace peak_retries node n
      | _ -> ()
  in
  Journal_io.attach journal (fun r ->
      count_retries r;
      Audit.step audit r;
      if certify then Certify.step cert r);
  (* The resilience gate (when on) shares the run's journal, so breaker
     and admission events land in the same record stream Watchtower and
     the regression tests replay. *)
  let gate =
    Option.map
      (fun rcfg ->
        (rcfg, Resilience.create ~journal ~registry:(Transport.registry tr) rcfg))
      resilience
  in
  (* Windowed metrics ride the same observer slot as the journal write-
     through: one Health bridge feeds a monitor (default SLO rules) and
     the fabric's timeseries, and the snapshot is written whatever the
     verdict — a failing cell's flight deck is exactly what you want. *)
  (match metrics_path with
  | None -> ()
  | Some _ ->
    let ts = Transport.enable_timeseries ?width_ms:metrics_width_ms tr in
    let monitor = Monitor.create ~notify:(Timeseries.note_alert ts) () in
    ignore (Health.attach ~timeseries:ts journal monitor));
  let net = Transport.network tr in
  let cfg =
    Manager.config ~vote_timeout ~decision_retry ~timeout_policy:policy
      cell.scheme cell.level
  in
  let outcomes = Array.make n_txns None in
  let handles = Array.make n_txns None in
  let txn_ids = Array.init n_txns (fun i -> Printf.sprintf "t%d" (i + 1)) in
  let submit i =
    let subject = List.nth sc.Scenario.subjects (i mod List.length sc.Scenario.subjects) in
    let txn =
      Scenario.spread_transaction sc ~id:txn_ids.(i) ~subject
        ~queries:n_servers ~start:i ()
    in
    handles.(i) <-
      Some
        (Manager.submit_handle ~dedup
           ?resilience:(Option.map snd gate)
           cluster cfg txn ~on_done:(fun o -> outcomes.(i) <- Some o))
  in
  let server_of i = List.nth sc.Scenario.servers (i mod n_servers) in
  let tm_name i = "tm-" ^ txn_ids.(i mod n_txns) in
  let crash_tm i =
    match handles.(i mod n_txns) with
    | Some h when not (Transport.crashed tr (tm_name i)) -> Manager.crash h
    | _ -> ()
  in
  let restart_tm i =
    match handles.(i mod n_txns) with
    | Some h when Transport.crashed tr (tm_name i) -> Manager.restart h
    | _ -> ()
  in
  let inject (op : Plan.op) =
    match op with
    | Plan.Crash_server { server; at; restart_after } ->
      let s = server_of server in
      Transport.at tr ~delay:at (fun () ->
          if not (Transport.crashed tr s) then
            Participant.crash (Cluster.participant cluster s));
      Transport.at tr ~delay:(at +. restart_after) (fun () ->
          if Transport.crashed tr s then
            Participant.recover (Cluster.participant cluster s))
    | Plan.Crash_coordinator { txn; at; restart_after } ->
      Transport.at tr ~delay:at (fun () -> crash_tm txn);
      Transport.at tr ~delay:(at +. restart_after) (fun () -> restart_tm txn)
    | Plan.Isolate_coordinator { txn; at; heal_after } ->
      let tm = tm_name txn in
      Transport.at tr ~delay:at (fun () ->
          List.iter (fun s -> Network.partition net tm s) sc.Scenario.servers);
      Transport.at tr ~delay:(at +. heal_after) (fun () ->
          List.iter (fun s -> Network.heal net tm s) sc.Scenario.servers)
    | Plan.Partition { a; b; at; heal_after } ->
      let sa = server_of a and sb = server_of b in
      if not (String.equal sa sb) then begin
        Transport.at tr ~delay:at (fun () -> Network.partition net sa sb);
        Transport.at tr ~delay:(at +. heal_after) (fun () ->
            Network.heal net sa sb)
      end
    | Plan.Drop_burst { p; at; duration } ->
      Transport.at tr ~delay:at (fun () -> Network.set_drop net p);
      Transport.at tr ~delay:(at +. duration) (fun () -> Network.set_drop net 0.)
    | Plan.Duplicate_burst { p; at; duration } ->
      Transport.at tr ~delay:at (fun () -> Network.set_duplicate net p);
      Transport.at tr ~delay:(at +. duration) (fun () ->
          Network.set_duplicate net 0.)
    | Plan.Reorder_burst { jitter; at; duration } ->
      Transport.at tr ~delay:at (fun () ->
          Network.set_reorder_jitter net
            (Some (Latency.Uniform { lo = 0.; hi = jitter })));
      Transport.at tr ~delay:(at +. duration) (fun () ->
          Network.set_reorder_jitter net None)
    | Plan.Slow_server { server; extra; at; duration } ->
      let s = server_of server in
      Transport.at tr ~delay:at (fun () -> Network.set_slowdown net s extra);
      Transport.at tr ~delay:(at +. duration) (fun () ->
          Network.clear_slowdown net s)
    | Plan.Latency_burst { extra; at; duration } ->
      Transport.at tr ~delay:at (fun () -> Network.set_burst_extra net extra);
      Transport.at tr ~delay:(at +. duration) (fun () ->
          Network.set_burst_extra net 0.)
    | Plan.Lossy_link { src; dst; p; at; duration } ->
      let s = server_of src and d = server_of dst in
      if not (String.equal s d) then begin
        Transport.at tr ~delay:at (fun () ->
            Network.set_link_drop net ~src:s ~dst:d p);
        Transport.at tr ~delay:(at +. duration) (fun () ->
            Network.clear_link_drop net ~src:s ~dst:d)
      end
  in
  let heal_everything () =
    Network.heal_all net;
    Network.set_drop net 0.;
    Network.set_duplicate net 0.;
    Network.set_reorder_jitter net None;
    Network.set_burst_extra net 0.;
    List.iter
      (fun s ->
        Network.clear_slowdown net s;
        List.iter
          (fun d ->
            Network.clear_link_drop net ~src:s ~dst:d;
            Network.clear_link_drop net ~src:d ~dst:s)
          sc.Scenario.servers)
      sc.Scenario.servers;
    List.iter
      (fun s ->
        if Transport.crashed tr s then
          Participant.recover (Cluster.participant cluster s))
      sc.Scenario.servers;
    for i = 0 to n_txns - 1 do
      restart_tm i
    done
  in
  let horizon =
    List.fold_left
      (fun acc op -> Float.max acc (Plan.op_end op))
      plan.Plan.horizon plan.Plan.ops
    +. 1.
  in
  (* A failing run carries its journal as canonical JSONL lines, whatever
     the recording format. *)
  let journal_lines () =
    match Journal_io.of_contents (Journal.to_string journal) with
    | Ok loaded -> loaded.Journal_io.lines
    | Error m -> [ "journal decode failed: " ^ m ]
  in
  let fail what = Error { what; journal = journal_lines () } in
  let write_snapshot () =
    match (metrics_path, Transport.timeseries tr) with
    | Some path, Some ts ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Timeseries.to_jsonl ts))
    | _ -> ()
  in
  let result =
    try
    submit 0;
    for i = 1 to n_txns - 1 do
      Transport.at tr ~delay:(6. *. float_of_int i) (fun () -> submit i)
    done;
    List.iter inject plan.Plan.ops;
    Transport.at tr ~delay:horizon heal_everything;
    (match Transport.run tr ~until:(horizon +. 1.) ~max_steps:quiesce_steps with
    | `Step_limit -> raise (Violation "liveness: step budget exhausted mid-faults")
    | _ -> ());
    (match Transport.run tr ~max_steps:quiesce_steps with
    | `Step_limit ->
      raise (Violation "liveness: simulation did not quiesce after heals")
    | _ -> ());
    (* Graceful degradation (resilience gate on): after the heal and one
       full breaker cooldown, a probe transaction must sail through —
       every open breaker re-closes on its probe and no admission slot
       is left occupied.  The cooldown is measured from quiescence, not
       the horizon, because a breaker can trip on a late straggler. *)
    (match gate with
    | None -> ()
    | Some (rcfg, rt) ->
      let probe_outcome = ref None in
      let subject = List.nth sc.Scenario.subjects 0 in
      let probe =
        Scenario.spread_transaction sc ~id:"probe" ~subject
          ~queries:n_servers ~start:0 ()
      in
      Transport.at tr ~delay:(rcfg.Resilience.cooldown +. 1.) (fun () ->
          ignore
            (Manager.submit_handle ~dedup ~resilience:rt cluster cfg probe
               ~on_done:(fun o -> probe_outcome := Some o)));
      (match Transport.run tr ~max_steps:quiesce_steps with
      | `Step_limit -> raise (Violation "resilience: probe did not quiesce")
      | _ -> ());
      (match !probe_outcome with
      | None -> raise (Violation "resilience: probe never reached an outcome")
      | Some o -> (
        match o.Outcome.reason with
        | Outcome.Timed_out | Outcome.Budget_exhausted | Outcome.Breaker_open
        | Outcome.Admission_rejected ->
          raise
            (Violation
               (Printf.sprintf "resilience: post-heal probe failed with %s"
                  (Outcome.reason_name o.Outcome.reason)))
        | _ -> ()));
      List.iter
        (fun (server, st) ->
          if st <> Resilience.Closed then
            raise
              (Violation
                 (Printf.sprintf
                    "resilience: breaker for %s stuck %s after heal + probe"
                    server (Resilience.state_name st))))
        (Resilience.states rt);
      if Resilience.in_flight rt <> 0 then
        raise
          (Violation
             (Printf.sprintf "resilience: %d transactions left in flight"
                (Resilience.in_flight rt))));
    (* Liveness: every transaction reached a terminal outcome. *)
    Array.iteri
      (fun i o ->
        if o = None then
          raise
            (Violation
               (Printf.sprintf "liveness: %s never reached an outcome"
                  txn_ids.(i))))
      outcomes;
    (* Safety over terminal state. *)
    let participants =
      List.map (fun s -> (s, Cluster.participant cluster s)) sc.Scenario.servers
    in
    let decisions_for server txn =
      let wal = Server.wal (Participant.server server) in
      List.filter_map
        (fun (e : Wal.entry) ->
          match e.Wal.record with
          | Wal.Decision { txn = t; commit } when String.equal t txn ->
            Some commit
          | _ -> None)
        (Wal.entries wal)
    in
    let prepared_before_commit server txn =
      let wal = Server.wal (Participant.server server) in
      let prepared = ref false in
      let ok = ref true in
      List.iter
        (fun (e : Wal.entry) ->
          match e.Wal.record with
          | Wal.Prepared { txn = t; _ } when String.equal t txn ->
            prepared := true
          | Wal.Decision { txn = t; commit = true } when String.equal t txn ->
            if not !prepared then ok := false
          | _ -> ())
        (Wal.entries wal);
      !ok
    in
    let master = Cluster.master cluster in
    let latest domain = Master.latest master ~domain in
    Array.iteri
      (fun i o ->
        let o = Option.get o in
        let txn = txn_ids.(i) in
        List.iter
          (fun (name, p) ->
            let ds = decisions_for p txn in
            (* AC1: no participant may record a decision disagreeing with
               the coordinator's outcome. *)
            if List.exists (fun commit -> commit <> o.Outcome.committed) ds then
              raise
                (Violation
                   (Printf.sprintf
                      "AC1: %s logged %s for %s but the coordinator decided %s"
                      name
                      (if o.Outcome.committed then "abort" else "commit")
                      txn
                      (if o.Outcome.committed then "commit" else "abort")));
            (* Commit must be preceded by this node's forced prepare. *)
            if not (prepared_before_commit p txn) then
              raise
                (Violation
                   (Printf.sprintf
                      "AC2: %s committed %s without a prior prepare record"
                      name txn));
            (* Termination: nobody is left in doubt after all heals. *)
            (match
               Wal.recover_txn (Server.wal (Participant.server p)) ~txn
             with
            | `Prepared _ ->
              raise
                (Violation
                   (Printf.sprintf "termination: %s still in doubt about %s"
                      name txn))
            | _ -> ()))
          participants;
        (* A committed transaction must be trusted per the cell's scheme
           and consistency level (Definitions 5–9). *)
        if o.Outcome.committed then
          match
            Trusted.check cell.scheme ~level:cell.level ~latest o.Outcome.view
          with
          | Ok () -> ()
          | Error why ->
            raise (Violation (Printf.sprintf "untrusted commit %s: %s" txn why)))
      outcomes;
    (* Graceful degradation (adaptive policy): retransmission is
       budgeted.  Reject any TM that fired more journaled [retry-fired]
       timer inputs than the budget (+1 covers a retry already armed
       when the budget check trips). *)
    (match policy with
    | Timeout_policy.Fixed -> ()
    | Timeout_policy.Adaptive a ->
      Hashtbl.iter
        (fun node n ->
          if n > a.Timeout_policy.retry_budget + 1 then
            raise
              (Violation
                 (Printf.sprintf
                    "resilience: %s fired %d decision retries in one \
                     incarnation (budget %d)"
                    node n a.Timeout_policy.retry_budget)))
        peak_retries);
    (* The journal itself must replay clean. *)
    (match Audit.finish audit with
    | Ok _ -> ()
    | Error why -> raise (Violation (Printf.sprintf "audit: %s" why)));
    (* Fourth assertion layer: the committed history must certify
       serializable — the safety half of the paper's "safe transactions"
       guarantee, decided from the same journal the audit replayed. *)
    (if certify then
       match (Certify.finish cert).Certify.verdict with
       | Certify.Serializable _ -> ()
       | Certify.Anomalous a ->
         raise (Violation ("certify: " ^ Certify.describe_anomaly a)));
      Ok ()
    with
    | Violation what -> fail what
    | exn -> fail (Printf.sprintf "exception: %s" (Printexc.to_string exn))
  in
  write_snapshot ();
  (* Flush the file sink: without this a [journal_path] capture loses
     its buffered tail and truncates the last record mid-line. *)
  Journal.close journal;
  result

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)
(* ------------------------------------------------------------------ *)

type case = { cell : cell; plan : Plan.t; failure : failure }

type verdict = {
  plans_run : int;
  failures : case list;  (** First failure per (cell, plan) pair. *)
}

let run ?dedup ?certify ?variant ?journal_format ?journal_path ?metrics_path
    ?metrics_width_ms ?policy ?resilience ?horizon ?(cells = all_cells)
    ?(base_seed = 1000L) ~plans () =
  let failures = ref [] in
  let count = ref 0 in
  let ps =
    List.init plans (fun i ->
        Plan.random ?horizon ~seed:(Int64.add base_seed (Int64.of_int i)) ())
  in
  List.iter
    (fun cell ->
      List.iter
        (fun plan ->
          incr count;
          match
            run_plan ?dedup ?certify ?variant ?journal_format ?journal_path
              ?metrics_path ?metrics_width_ms ?policy ?resilience cell plan
          with
          | Ok () -> ()
          | Error failure ->
            failures := { cell; plan; failure } :: !failures)
        ps)
    cells;
  { plans_run = !count; failures = List.rev !failures }
