(* Latency blame engine: critical-path extraction from the flight
   recorder.

   Hand-crafted journals with a known critical path pin down exact
   segment attribution (policy-fetch-, lock-wait-, retransmission- and
   proof-eval-dominated cases).  Then the load-bearing properties over
   real runs: for every scheme x level cell the live collection and the
   offline replay of the same journal render byte-identical blame JSON,
   every timeline's segments cover the end-to-end latency within the
   documented slack, and the per-phase segment totals reconcile exactly
   with the registry's phase histograms.  A chaos journal rounds it off:
   explain output over a faulted cell is bit-reproducible. *)

module Blame = Cloudtx_core.Blame
module Health = Cloudtx_core.Health
module Journal_io = Cloudtx_core.Journal_io
module Monitor = Cloudtx_obs.Monitor
module Cp = Cloudtx_obs.Critical_path
module Journal = Cloudtx_obs.Journal
module Registry = Cloudtx_obs.Registry
module Sketch = Cloudtx_obs.Sketch
module Timeseries = Cloudtx_obs.Timeseries
module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Outcome = Cloudtx_protocol.Outcome
module Scenario = Cloudtx_workload.Scenario
module Transport = Cloudtx_sim.Transport
module Plan = Cloudtx_chaos.Plan
module Campaign = Cloudtx_chaos.Campaign

(* ------------------------------------------------------------------ *)
(* Hand-crafted journal building blocks                                *)
(* ------------------------------------------------------------------ *)

let header = {|{"journal":"cloudtx","version":3}|}

let record ~seq ~t ~node ~dir payload =
  Printf.sprintf {|{"seq":%d,"time_ms":%g,"node":%S,"dir":%S,"payload":%s}|} seq
    t node dir payload

(* Minimal TM create: one query against [server], submitted at
   [submitted_at] (the timeline origin). *)
let tm_create ~txn ~server ~submitted_at =
  Printf.sprintf
    {|{"kind":"tm","config":{"scheme":"deferred","level":"view","master_mode":"once","max_rounds":16,"vote_timeout":0,"decision_retry":0,"read_only_optimization":false,"snapshot_reads":false},"txn":{"id":%S,"subject":"s","queries":[{"id":"q1","server":%S,"reads":[],"writes":[],"action":null}],"credentials":[]},"submitted_at":%g}|}
    txn server submitted_at

let ps_create = {|{"kind":"ps","variant":"basic","inquiry_timeout":0}|}
let deliver ~src msg = Printf.sprintf {|{"t":"deliver","src":%S,"msg":%s}|} src msg

let master_reply ~txn =
  Printf.sprintf {|{"t":"master-version-reply","txn":%S,"policies":[]}|} txn

let exec_reply ~txn ~query_id =
  Printf.sprintf
    {|{"t":"execute-reply","txn":%S,"query_id":%S,"outcome":{"t":"executed","reads":[],"proof":null}}|}
    txn query_id

let validate_reply ~txn ~round =
  Printf.sprintf
    {|{"t":"validate-reply","txn":%S,"round":%d,"proofs":[],"policies":[]}|} txn
    round

let commit_reply ~txn ~round =
  Printf.sprintf
    {|{"t":"commit-reply","txn":%S,"round":%d,"integrity":true,"read_only":false,"proofs":[],"policies":[]}|}
    txn round

let decision_ack ~txn = Printf.sprintf {|{"t":"decision-ack","txn":%S}|} txn
let retry_fired = {|{"t":"retry-fired"}|}

let phase_open span =
  Printf.sprintf {|{"t":"obs","obs":{"t":"phase-open","span_name":%S,"reason":null}}|}
    span

let finish = {|{"t":"finish","committed":true,"reason":"committed","commit_rounds":1}|}

let wait_open ~txn ~query_id =
  Printf.sprintf {|{"t":"wait-open","txn":%S,"query_id":%S}|} txn query_id

let wait_close ~txn ~outcome =
  Printf.sprintf {|{"t":"wait-close","txn":%S,"outcome":%S,"killed_by":null}|} txn
    outcome

let eval ~txn =
  Printf.sprintf
    {|{"t":"eval","txn":%S,"subject":"s","credentials":[],"queries":[],"with_proofs":true,"with_policies":false,"cont":{"t":"to-validate-reply","reply_to":"tm","round":1}}|}
    txn

let evaluated ~txn =
  Printf.sprintf
    {|{"t":"evaluated","txn":%S,"proofs":[],"policies":[],"cont":{"t":"to-validate-reply","reply_to":"tm","round":1}}|}
    txn

let replay lines =
  match Blame.of_lines ~keep_timelines:true lines with
  | Ok t -> t
  | Error why -> Alcotest.failf "replay rejected: %s" why

let the_timeline t ~txn =
  match Blame.find t ~txn with
  | Some tl -> tl
  | None -> Alcotest.failf "timeline %s missing" txn

(* Assert the exact segment sequence: (kind, start, end, phase). *)
let check_segments what expected (tl : Cp.timeline) =
  let show (s : Cp.segment) =
    Printf.sprintf "%s [%g, %g] %s" (Cp.kind_name s.Cp.kind) s.Cp.start_ms
      s.Cp.end_ms s.Cp.phase
  in
  let want =
    List.map
      (fun (kind, s0, s1, phase) ->
        Printf.sprintf "%s [%g, %g] %s" (Cp.kind_name kind) s0 s1 phase)
      expected
  in
  Alcotest.(check (list string))
    (what ^ ": segments")
    want
    (List.map show tl.Cp.segments);
  Alcotest.(check bool) (what ^ ": covered") true (Cp.covered tl)

let check_dominant what kind ms tl =
  match Cp.dominant tl with
  | None -> Alcotest.fail (what ^ ": no dominant segment")
  | Some (k, total) ->
    Alcotest.(check string) (what ^ ": dominant kind") (Cp.kind_name kind)
      (Cp.kind_name k);
    Alcotest.(check (float 1e-9)) (what ^ ": dominant ms") ms total

(* ------------------------------------------------------------------ *)
(* Exact attribution: policy-fetch-dominated                           *)
(* ------------------------------------------------------------------ *)

let test_policy_fetch_dominated () =
  let tm = "tm" and txn = "t1" in
  let lines =
    [
      header;
      record ~seq:1 ~t:0. ~node:tm ~dir:"create"
        (tm_create ~txn ~server:"srv-1" ~submitted_at:0.);
      record ~seq:2 ~t:10. ~node:tm ~dir:"input"
        (deliver ~src:"master" (master_reply ~txn));
      record ~seq:3 ~t:12. ~node:tm ~dir:"input"
        (deliver ~src:"srv-1" (exec_reply ~txn ~query_id:"q1"));
      record ~seq:4 ~t:12. ~node:tm ~dir:"action" (phase_open "2pvc.prepare");
      record ~seq:5 ~t:14. ~node:tm ~dir:"input"
        (deliver ~src:"srv-1" (commit_reply ~txn ~round:1));
      record ~seq:6 ~t:14. ~node:tm ~dir:"action" (phase_open "2pvc.commit");
      record ~seq:7 ~t:15. ~node:tm ~dir:"input"
        (deliver ~src:"srv-1" (decision_ack ~txn));
      record ~seq:8 ~t:15. ~node:tm ~dir:"action" finish;
    ]
  in
  let t = replay lines in
  Alcotest.(check int) "one finished txn" 1 (Blame.finished t);
  Alcotest.(check int) "no decode errors" 0 (Blame.decode_errors t);
  let tl = the_timeline t ~txn in
  check_segments "policy-fetch"
    [
      (Cp.Policy_fetch, 0., 10., "execute");
      (Cp.Exec, 10., 12., "execute");
      (Cp.Vote_round, 12., 14., "commit");
      (Cp.Decide, 14., 15., "decide");
    ]
    tl;
  Alcotest.(check (float 1e-9)) "total is end-to-end" 15. (Cp.total_ms tl);
  check_dominant "policy-fetch" Cp.Policy_fetch 10. tl;
  Alcotest.(check (list (pair string (float 1e-9))))
    "per-phase totals"
    [ ("execute", 12.); ("commit", 2.); ("decide", 1.) ]
    (Cp.by_phase tl)

(* ------------------------------------------------------------------ *)
(* Exact attribution: lock-wait carved out of the execute round-trip   *)
(* ------------------------------------------------------------------ *)

let test_lock_wait_dominated () =
  let tm = "tm" and srv = "srv-1" and txn = "t1" in
  let lines =
    [
      header;
      record ~seq:1 ~t:0. ~node:tm ~dir:"create"
        (tm_create ~txn ~server:srv ~submitted_at:0.);
      record ~seq:2 ~t:0. ~node:srv ~dir:"create" ps_create;
      record ~seq:3 ~t:1. ~node:srv ~dir:"action" (wait_open ~txn ~query_id:"q1");
      record ~seq:4 ~t:9. ~node:srv ~dir:"action" (wait_close ~txn ~outcome:"granted");
      record ~seq:5 ~t:10. ~node:tm ~dir:"input"
        (deliver ~src:srv (exec_reply ~txn ~query_id:"q1"));
      record ~seq:6 ~t:10. ~node:tm ~dir:"action" (phase_open "2pvc.prepare");
      record ~seq:7 ~t:11. ~node:tm ~dir:"input"
        (deliver ~src:srv (commit_reply ~txn ~round:1));
      record ~seq:8 ~t:11. ~node:tm ~dir:"action" (phase_open "2pvc.commit");
      record ~seq:9 ~t:12. ~node:tm ~dir:"input"
        (deliver ~src:srv (decision_ack ~txn));
      record ~seq:10 ~t:12. ~node:tm ~dir:"action" finish;
    ]
  in
  let tl = the_timeline (replay lines) ~txn in
  check_segments "lock-wait"
    [
      (Cp.Exec, 0., 1., "execute");
      (Cp.Lock_wait, 1., 9., "execute");
      (Cp.Exec, 9., 10., "execute");
      (Cp.Vote_round, 10., 11., "commit");
      (Cp.Decide, 11., 12., "decide");
    ]
    tl;
  check_dominant "lock-wait" Cp.Lock_wait 8. tl;
  (match tl.Cp.segments with
  | _ :: (w : Cp.segment) :: _ ->
    Alcotest.(check string) "wait outcome carried as detail" "granted"
      w.Cp.detail
  | _ -> Alcotest.fail "expected the lock-wait segment second")

(* ------------------------------------------------------------------ *)
(* Exact attribution: retransmission stall (plus submit queueing)      *)
(* ------------------------------------------------------------------ *)

let test_retransmission_dominated () =
  let tm = "tm" and txn = "t1" in
  let lines =
    [
      header;
      (* Created 1 ms after submission: the difference is queueing. *)
      record ~seq:1 ~t:1. ~node:tm ~dir:"create"
        (tm_create ~txn ~server:"srv-1" ~submitted_at:0.);
      record ~seq:2 ~t:2. ~node:tm ~dir:"input"
        (deliver ~src:"srv-1" (exec_reply ~txn ~query_id:"q1"));
      record ~seq:3 ~t:2. ~node:tm ~dir:"action" (phase_open "2pvc.prepare");
      record ~seq:4 ~t:10. ~node:tm ~dir:"input" retry_fired;
      record ~seq:5 ~t:11. ~node:tm ~dir:"input"
        (deliver ~src:"srv-1" (commit_reply ~txn ~round:2));
      record ~seq:6 ~t:11. ~node:tm ~dir:"action" (phase_open "2pvc.commit");
      record ~seq:7 ~t:12. ~node:tm ~dir:"input"
        (deliver ~src:"srv-1" (decision_ack ~txn));
      record ~seq:8 ~t:12. ~node:tm ~dir:"action" finish;
    ]
  in
  let tl = the_timeline (replay lines) ~txn in
  check_segments "retransmission"
    [
      (Cp.Queueing, 0., 1., "execute");
      (Cp.Exec, 1., 2., "execute");
      (Cp.Retry_stall, 2., 10., "commit");
      (Cp.Vote_round, 10., 11., "commit");
      (Cp.Decide, 11., 12., "decide");
    ]
    tl;
  check_dominant "retransmission" Cp.Retry_stall 8. tl

(* ------------------------------------------------------------------ *)
(* Exact attribution: proof evaluation carved out of a 2PV round       *)
(* ------------------------------------------------------------------ *)

let test_proof_eval_carved () =
  let tm = "tm" and srv = "srv-1" and txn = "t1" in
  let lines =
    [
      header;
      record ~seq:1 ~t:0. ~node:tm ~dir:"create"
        (tm_create ~txn ~server:srv ~submitted_at:0.);
      record ~seq:2 ~t:0. ~node:srv ~dir:"create" ps_create;
      record ~seq:3 ~t:1. ~node:tm ~dir:"input"
        (deliver ~src:srv (exec_reply ~txn ~query_id:"q1"));
      record ~seq:4 ~t:3. ~node:srv ~dir:"action" (eval ~txn);
      record ~seq:5 ~t:7. ~node:srv ~dir:"input" (evaluated ~txn);
      record ~seq:6 ~t:8. ~node:tm ~dir:"input"
        (deliver ~src:srv (validate_reply ~txn ~round:1));
      record ~seq:7 ~t:8. ~node:tm ~dir:"action" (phase_open "2pvc.prepare");
      record ~seq:8 ~t:9. ~node:tm ~dir:"input"
        (deliver ~src:srv (commit_reply ~txn ~round:1));
      record ~seq:9 ~t:9. ~node:tm ~dir:"action" (phase_open "2pvc.commit");
      record ~seq:10 ~t:10. ~node:tm ~dir:"input"
        (deliver ~src:srv (decision_ack ~txn));
      record ~seq:11 ~t:10. ~node:tm ~dir:"action" finish;
    ]
  in
  let tl = the_timeline (replay lines) ~txn in
  check_segments "proof-eval"
    [
      (Cp.Exec, 0., 1., "execute");
      (Cp.Validate_round, 1., 3., "execute");
      (Cp.Proof_eval, 3., 7., "execute");
      (Cp.Validate_round, 7., 8., "execute");
      (Cp.Vote_round, 8., 9., "commit");
      (Cp.Decide, 9., 10., "decide");
    ]
    tl;
  check_dominant "proof-eval" Cp.Proof_eval 4. tl

(* ------------------------------------------------------------------ *)
(* Live = offline, coverage, registry reconciliation — all 8 cells     *)
(* ------------------------------------------------------------------ *)

let all_cells =
  List.concat_map
    (fun scheme ->
      List.map (fun level -> (scheme, level)) [ Consistency.View; Consistency.Global ])
    Scheme.all

(* One committed transaction per cell, with the blame collector riding
   the journal's observer list live, next to the metrics fabric. *)
let run_cell scheme level =
  let scenario = Scenario.retail ~n_servers:4 ~n_subjects:1 () in
  let cluster = scenario.Scenario.cluster in
  let transport = Cluster.transport cluster in
  let journal = Transport.enable_journal transport in
  let reg = Transport.enable_metrics transport in
  let live = Blame.attach ~keep_timelines:true journal in
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:4 ()
  in
  let outcome = Manager.run_one cluster (Manager.config scheme level) txn in
  (journal, reg, live, outcome)

let with_temp_journal contents f =
  let path = Filename.temp_file "cloudtx_blame" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let test_live_equals_offline_all_cells () =
  List.iter
    (fun (scheme, level) ->
      let what =
        Printf.sprintf "%s/%s" (Scheme.name scheme) (Consistency.name level)
      in
      let journal, _reg, live, outcome = run_cell scheme level in
      Alcotest.(check bool) (what ^ ": committed") true outcome.Outcome.committed;
      let offline =
        with_temp_journal (Journal.to_string journal) (fun path ->
            match Blame.of_file ~keep_timelines:true path with
            | Ok t -> t
            | Error why -> Alcotest.failf "%s: offline replay failed: %s" what why)
      in
      Alcotest.(check string)
        (what ^ ": live = offline blame JSON")
        (Blame.to_json live) (Blame.to_json offline);
      Alcotest.(check int) (what ^ ": finished") 1 (Blame.finished live);
      List.iter
        (fun tl ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s segments cover end-to-end latency" what
               tl.Cp.txn)
            true (Cp.covered tl))
        (Blame.timelines live))
    all_cells

let hist_sum what reg name labels =
  match Registry.histogram reg name labels with
  | Some h -> Sketch.sum h
  | None -> Alcotest.failf "%s: histogram %s missing" what name

let test_registry_reconciliation_all_cells () =
  List.iter
    (fun (scheme, level) ->
      let what =
        Printf.sprintf "%s/%s" (Scheme.name scheme) (Consistency.name level)
      in
      let _journal, reg, live, outcome = run_cell scheme level in
      Alcotest.(check bool) (what ^ ": committed") true outcome.Outcome.committed;
      let tl = the_timeline live ~txn:"t1" in
      let labels =
        [ ("scheme", Scheme.name scheme); ("consistency", Consistency.name level) ]
      in
      let phase name =
        match List.assoc_opt name (Cp.by_phase tl) with Some v -> v | None -> 0.
      in
      Alcotest.(check (float 1e-9))
        (what ^ ": segment total = txn_latency_ms")
        (hist_sum what reg "txn_latency_ms" labels)
        (Cp.total_ms tl);
      Alcotest.(check (float 1e-9))
        (what ^ ": execute segments = phase_execute_ms")
        (hist_sum what reg "phase_execute_ms" labels)
        (phase "execute");
      Alcotest.(check (float 1e-9))
        (what ^ ": commit segments = phase_commit_ms")
        (hist_sum what reg "phase_commit_ms" labels)
        (phase "commit");
      Alcotest.(check (float 1e-9))
        (what ^ ": decide segments = phase_decide_ms")
        (hist_sum what reg "phase_decide_ms" labels)
        (phase "decide"))
    all_cells

(* ------------------------------------------------------------------ *)
(* Observer fan-out: two collectors on one journal agree               *)
(* ------------------------------------------------------------------ *)

let test_observer_fan_out () =
  let scenario = Scenario.retail ~n_servers:4 ~n_subjects:1 () in
  let cluster = scenario.Scenario.cluster in
  let journal = Transport.enable_journal (Cluster.transport cluster) in
  let seen = ref 0 in
  Journal.add_observer journal (fun ~seq:_ ~time_ms:_ ~node:_ ~dir:_ ~payload:_
        ~pos:_ ~len:_ ->
      incr seen);
  let a = Blame.attach journal in
  let b = Blame.attach journal in
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:4 ()
  in
  let outcome =
    Manager.run_one cluster
      (Manager.config Scheme.Deferred Consistency.View)
      txn
  in
  Alcotest.(check bool) "committed" true outcome.Outcome.committed;
  Alcotest.(check bool) "first observer saw records" true (!seen > 0);
  Alcotest.(check string) "both collectors agree byte-for-byte"
    (Blame.to_json a) (Blame.to_json b)

(* ------------------------------------------------------------------ *)
(* Shared decode: one decoded record for every live consumer           *)
(* ------------------------------------------------------------------ *)

let test_shared_decode format () =
  let scenario = Scenario.retail ~n_servers:4 ~n_subjects:1 () in
  let cluster = scenario.Scenario.cluster in
  let journal = Transport.enable_journal ~format (Cluster.transport cluster) in
  let first = ref [] and raw = ref [] and second = ref [] in
  Journal_io.attach journal (fun r -> first := r :: !first);
  Journal.add_observer journal (fun ~seq ~time_ms:_ ~node:_ ~dir:_ ~payload:_
        ~pos:_ ~len:_ ->
      raw := seq :: !raw);
  Journal_io.attach journal (fun r -> second := r :: !second);
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1"
      ~queries:4 ()
  in
  let outcome =
    Manager.run_one cluster
      (Manager.config Scheme.Deferred Consistency.View)
      txn
  in
  Alcotest.(check bool) "committed" true outcome.Outcome.committed;
  let every = List.init (Journal.length journal) (fun i -> i + 1) in
  let seqs records = List.rev_map (fun r -> r.Journal_io.seq) records in
  Alcotest.(check (list int)) "first consumer: every record, in order" every
    (seqs !first);
  Alcotest.(check (list int)) "raw observer: every record, in order" every
    (List.rev !raw);
  Alcotest.(check (list int)) "second consumer: every record, in order" every
    (seqs !second);
  Alcotest.(check bool) "both consumers get the same record value" true
    (List.for_all2 ( == ) !first !second);
  Alcotest.(check bool) "every record decodes" true
    (List.for_all
       (fun r ->
         match r.Journal_io.body with
         | Journal_io.Undecodable _ -> false
         | Journal_io.Payload _ | Journal_io.Event _ -> true)
       !first)

let test_attach_noop_keeps_nothing () =
  let size () = Obj.reachable_words (Obj.repr Journal.noop) in
  let before = size () in
  Journal_io.attach Journal.noop (fun _ ->
      Alcotest.fail "noop delivered a record");
  ignore (Blame.attach Journal.noop);
  ignore (Health.attach Journal.noop (Monitor.create ()));
  Journal.record Journal.noop ~node:"n" ~dir:"input" ~payload:"{}";
  Alcotest.(check int) "no taps" 0 (List.length (Journal.taps Journal.noop));
  Alcotest.(check int) "reachable words unchanged" before (size ())

(* ------------------------------------------------------------------ *)
(* Chaos journal: explain over a faulted cell is bit-reproducible      *)
(* ------------------------------------------------------------------ *)

let chaos_cell = { Campaign.scheme = Scheme.Continuous; level = Consistency.Global }

(* A seed whose plan includes a crash or partition op, so the journal
   exercises recovery/stall segments. *)
let crashy_plan () =
  let is_faulty = function
    | Plan.Crash_server _ | Plan.Crash_coordinator _ | Plan.Isolate_coordinator _
    | Plan.Partition _ ->
      true
    | Plan.Drop_burst _ | Plan.Duplicate_burst _ | Plan.Reorder_burst _
    | Plan.Slow_server _ | Plan.Latency_burst _ | Plan.Lossy_link _ ->
      false
  in
  let rec scan seed =
    if seed > 4400 then Alcotest.fail "no crash/partition plan in seed range"
    else
      let plan = Plan.random ~seed:(Int64.of_int seed) () in
      if List.exists is_faulty plan.Plan.ops then plan else scan (seed + 1)
  in
  scan 4300

let test_chaos_explain_reproducible () =
  let plan = crashy_plan () in
  let blame_of_run () =
    let path = Filename.temp_file "cloudtx_blame_chaos" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        (match Campaign.run_plan ~journal_path:path chaos_cell plan with
        | Ok () -> ()
        | Error f -> Alcotest.failf "chaos plan failed: %s" f.Campaign.what);
        match Blame.of_file ~keep_timelines:true path with
        | Ok t -> t
        | Error why -> Alcotest.failf "chaos journal unreadable: %s" why)
  in
  let a = blame_of_run () in
  Alcotest.(check bool) "some transactions finished" true (Blame.finished a > 0);
  Alcotest.(check int) "no coverage violations" 0
    (List.length (Blame.uncovered a));
  (match Blame.slowest a with
  | None -> Alcotest.fail "no slowest timeline"
  | Some tl ->
    Alcotest.(check bool) "slowest has segments" true (tl.Cp.segments <> []));
  let b = blame_of_run () in
  Alcotest.(check string) "same plan, bit-identical blame" (Blame.to_json a)
    (Blame.to_json b)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Minor words a record that [Health.step] (a monitor writing a registry,
   and a 100 ms time series) and [Blame.step] allocate together over
   bench/e2e's 300-txn closed-bare stream (27 599 records), read
   beforehand: 7.8, of which Health 1.9.  It was 19.9 while Health built
   an event for every record and hashed fresh (node, domain) tuples in
   the monitor and the series for every proof, and Blame built a
   [server ^ "\x00" ^ txn] key per interval event and a table per
   finished transaction. *)
let consumer_words_per_record () =
  let records =
    match
      Journal_io.fold (Closed_bare.journal 300) ~init:(fun _ -> []) (fun acc r ->
          r :: acc)
    with
    | Ok rs -> List.rev rs
    | Error m -> Alcotest.failf "closed-bare journal unreadable: %s" m
  in
  let ts = Timeseries.create ~width_ms:100. () in
  let monitor =
    Monitor.create ~registry:(Registry.create ()) ~notify:(Timeseries.note_alert ts) ()
  in
  let health = Health.create ~timeseries:ts monitor in
  let blame = Blame.create () in
  let before = Gc.minor_words () in
  List.iter
    (fun r ->
      Health.step health r;
      Blame.step blame r)
    records;
  (Gc.minor_words () -. before) /. float_of_int (List.length records)

let test_consumer_allocation () =
  let words = consumer_words_per_record () in
  if words > 10. then
    Alcotest.failf
      "health and blame allocate %.1f minor words a record, at most 10 expected"
      words

(* Words a live Health bridge (no time series) and a Blame collector
   hold after a sequential deferred/view run of [n] transactions of one
   shape over a constant-latency network: no wait-die victims, and every
   timeline the same, so the aggregate's sketches and slowest list hold
   the same words whatever [n].  Both forget a coordinator at its
   Finish, so what they hold does not grow with the run: 564 and 1 300
   words here.  While their TM node tables kept every transaction, 200
   transactions left 2 471 and 3 182 words and 800 left 8 255 and
   8 966. *)
let consumer_words_after n =
  let scenario =
    Scenario.retail ~latency:(Cloudtx_sim.Latency.Constant 0.5) ~n_servers:4
      ~n_subjects:1 ()
  in
  let cluster = scenario.Scenario.cluster in
  let journal =
    Transport.enable_journal ~max_buffer_bytes:4096 (Cluster.transport cluster)
  in
  let health = Health.attach journal (Monitor.create ()) in
  let blame = Blame.attach journal in
  let cfg = Manager.config Scheme.Deferred Consistency.View in
  for i = 1 to n do
    let txn =
      Scenario.spread_transaction scenario ~id:(Printf.sprintf "t%04d" i)
        ~subject:"clerk-1" ~queries:4 ()
    in
    let o = Manager.run_one cluster cfg txn in
    if not o.Outcome.committed then Alcotest.failf "t%04d did not commit" i
  done;
  (Obj.reachable_words (Obj.repr health), Obj.reachable_words (Obj.repr blame))

let test_consumers_forget_finished () =
  let health_200, blame_200 = consumer_words_after 200 in
  let health_800, blame_800 = consumer_words_after 800 in
  Alcotest.(check int) "health words, 200 = 800 txns" health_200 health_800;
  Alcotest.(check int) "blame words, 200 = 800 txns" blame_200 blame_800

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "blame"
    [
      ( "attribution",
        [
          Alcotest.test_case "policy-fetch-dominated journal" `Quick
            test_policy_fetch_dominated;
          Alcotest.test_case "lock-wait carved from execute round-trip" `Quick
            test_lock_wait_dominated;
          Alcotest.test_case "retransmission stall and submit queueing" `Quick
            test_retransmission_dominated;
          Alcotest.test_case "proof evaluation carved from 2PV round" `Quick
            test_proof_eval_carved;
        ] );
      ( "cells",
        [
          Alcotest.test_case "live = offline blame JSON, all 8 cells" `Slow
            test_live_equals_offline_all_cells;
          Alcotest.test_case "segment totals reconcile with phase histograms"
            `Slow test_registry_reconciliation_all_cells;
          Alcotest.test_case "observer fan-out: collectors agree" `Quick
            test_observer_fan_out;
          Alcotest.test_case "shared decode: one record for all (JSONL)" `Quick
            (test_shared_decode Journal.Jsonl);
          Alcotest.test_case "shared decode: one record for all (binary)" `Quick
            (test_shared_decode Journal.Binary);
          Alcotest.test_case "attaching to noop keeps nothing" `Quick
            test_attach_noop_keeps_nothing;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "chaos explain is bit-reproducible" `Slow
            test_chaos_explain_reproducible;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "health and blame words a record" `Quick
            test_consumer_allocation;
          Alcotest.test_case "health and blame keep no finished txn" `Quick
            test_consumers_forget_finished;
        ] );
    ]
