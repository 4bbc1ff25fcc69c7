(* Failure-injection tests: participant crashes around the 2PVC voting
   and decision phases, WAL-driven recovery, in-doubt resolution via
   decision retransmission and the Inquiry termination protocol.

   All timing uses Constant 1ms latency, making event times exact:
   query i completes at 2i ms; with 3 queries the commit request arrives
   at 7ms, commit replies at 8ms, decisions at 9ms, acks at 10ms. *)

module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Outcome = Cloudtx_protocol.Outcome
module Participant = Cloudtx_core.Participant
module Transport = Cloudtx_sim.Transport
module Latency = Cloudtx_sim.Latency
module Scenario = Cloudtx_workload.Scenario
module Server = Cloudtx_store.Server
module Value = Cloudtx_store.Value
module Wal = Cloudtx_store.Wal

let scenario () =
  Scenario.retail ~latency:(Latency.Constant 1.) ~n_servers:3 ~n_subjects:1 ()

let txn_of scenario =
  Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:3 ()

let at scenario ~time f =
  Transport.at (Cluster.transport scenario.Scenario.cluster) ~delay:time f

(* ------------------------------------------------------------------ *)

let test_randomized_crash_schedules () =
  (* Fuzz the failure window: one random participant crashes at a random
     instant in [0, 12] ms (anywhere from before the first query to after
     the decision) and recovers 10 ms later. With the watchdog, decision
     retransmission and the Inquiry protocol in place, every run must
     (a) terminate, and (b) end with every surviving WAL consistent with
     the TM's decision. *)
  let module Splitmix = Cloudtx_sim.Splitmix in
  let rng = Splitmix.create 2024L in
  for trial = 1 to 120 do
    let s = scenario () in
    let cluster = s.Scenario.cluster in
    let victim =
      List.nth s.Scenario.servers (Splitmix.int rng (List.length s.Scenario.servers))
    in
    let crash_at = Splitmix.uniform rng ~lo:0.1 ~hi:12. in
    at s ~time:crash_at (fun () ->
        Participant.crash (Cluster.participant cluster victim));
    at s ~time:(crash_at +. 10.) (fun () ->
        Participant.recover (Cluster.participant cluster victim));
    let config =
      Manager.config ~vote_timeout:40. ~decision_retry:7. Scheme.Deferred
        Consistency.View
    in
    let result = ref None in
    Manager.submit cluster config (txn_of s) ~on_done:(fun o -> result := Some o);
    ignore (Cluster.run cluster);
    match !result with
    | None ->
      Alcotest.failf "trial %d (victim %s at %.2fms): transaction hung" trial
        victim crash_at
    | Some o ->
      (* Agreement: no server's WAL may contradict the decision. *)
      List.iter
        (fun name ->
          let server = Participant.server (Cluster.participant cluster name) in
          match (Wal.recover_txn (Server.wal server) ~txn:"t1", o.Outcome.committed) with
          | (`Committed _ | `Finished), true | (`Aborted | `No_trace | `Active | `Finished), false ->
            ()
          | (`Aborted | `No_trace | `Active), true ->
            (* A server that never saw the commit is fine only if it also
               never prepared... `Finished after commit covered above;
               No_trace/Active mean the crash predated its involvement —
               but then the TM could not have committed (its vote was
               needed). *)
            Alcotest.failf "trial %d: %s missed a commit" trial name
          | (`Committed _), false ->
            Alcotest.failf "trial %d: %s committed an aborted transaction" trial name
          | `Prepared _, _ ->
            Alcotest.failf "trial %d: %s left in doubt" trial name)
        s.Scenario.servers
  done

let test_crash_after_prepare_decision_retransmitted () =
  (* server-2 crashes right after voting YES (8.5ms) and recovers at
     20ms.  The TM's decision retransmission finishes the commit; the
     recovered server replays its forced prepare record and applies. *)
  let s = scenario () in
  let cluster = s.Scenario.cluster in
  at s ~time:8.5 (fun () -> Participant.crash (Cluster.participant cluster "server-2"));
  at s ~time:20. (fun () -> Participant.recover (Cluster.participant cluster "server-2"));
  let config =
    Manager.config ~decision_retry:5. Scheme.Deferred Consistency.View
  in
  let result = ref None in
  Manager.submit cluster config (txn_of s) ~on_done:(fun o -> result := Some o);
  ignore (Cluster.run cluster);
  (match !result with
  | Some o ->
    Alcotest.(check bool) "committed" true o.Outcome.committed
  | None -> Alcotest.fail "transaction never finished");
  (* The crashed server applied the write after recovery. *)
  let server = Participant.server (Cluster.participant cluster "server-2") in
  Alcotest.(check bool) "write applied on recovered server" true
    (Server.get server "s2-k2" <> Some (Value.Int 100))

let test_crash_after_prepare_inquiry_resolves () =
  (* Same crash, but no retransmission: the run quiesces with the TM
     stuck in the decision phase.  When the participant recovers, its WAL
     shows the in-doubt transaction; the Inquiry to the TM obtains the
     decision and completes the protocol. *)
  let s = scenario () in
  let cluster = s.Scenario.cluster in
  at s ~time:8.5 (fun () -> Participant.crash (Cluster.participant cluster "server-2"));
  let config = Manager.config Scheme.Deferred Consistency.View in
  let result = ref None in
  Manager.submit cluster config (txn_of s) ~on_done:(fun o -> result := Some o);
  ignore (Cluster.run cluster);
  Alcotest.(check bool) "stuck while participant down" true (!result = None);
  (* Recovery: replay WAL, find the in-doubt txn, ask the TM. *)
  Participant.recover (Cluster.participant cluster "server-2");
  ignore (Cluster.run cluster);
  (match !result with
  | Some o -> Alcotest.(check bool) "committed after inquiry" true o.Outcome.committed
  | None -> Alcotest.fail "inquiry did not resolve the transaction");
  let server = Participant.server (Cluster.participant cluster "server-2") in
  Alcotest.(check bool) "write applied" true
    (Server.get server "s2-k2" <> Some (Value.Int 100))

let test_crash_before_vote_timeout_aborts () =
  (* server-2 crashes before the commit request reaches it (6.5ms): the
     voting round cannot complete, the TM's vote timeout fires and the
     transaction aborts everywhere that is still alive. *)
  let s = scenario () in
  let cluster = s.Scenario.cluster in
  at s ~time:6.5 (fun () -> Participant.crash (Cluster.participant cluster "server-2"));
  (* Recover later so abort decisions can be acknowledged. *)
  at s ~time:60. (fun () -> Participant.recover (Cluster.participant cluster "server-2"));
  let config =
    Manager.config ~vote_timeout:25. ~decision_retry:10. Scheme.Deferred
      Consistency.View
  in
  let result = ref None in
  Manager.submit cluster config (txn_of s) ~on_done:(fun o -> result := Some o);
  ignore (Cluster.run cluster);
  (match !result with
  | Some o ->
    Alcotest.(check bool) "aborted" false o.Outcome.committed;
    Alcotest.(check string) "timed out" "timed-out"
      (Outcome.reason_name o.Outcome.reason)
  | None -> Alcotest.fail "vote timeout did not fire");
  (* No server applied anything. *)
  List.iter
    (fun name ->
      let server = Participant.server (Cluster.participant cluster name) in
      let k2 = List.nth (s.Scenario.keys_of name) 1 in
      Alcotest.(check bool)
        (Printf.sprintf "%s unchanged" name)
        true
        (Server.get server k2 = Some (Value.Int 100)))
    s.Scenario.servers

let test_agreement_under_crash () =
  (* Whatever the failure pattern, no participant applies commit while
     another applies abort for the same transaction (atomicity). Here the
     crash happens between the two decision deliveries. *)
  let s = scenario () in
  let cluster = s.Scenario.cluster in
  (* Decisions arrive at 9ms; crash server-3 at 8.9ms so it misses its
     decision while the others commit. *)
  at s ~time:8.9 (fun () -> Participant.crash (Cluster.participant cluster "server-3"));
  at s ~time:30. (fun () -> Participant.recover (Cluster.participant cluster "server-3"));
  let config =
    Manager.config ~decision_retry:5. Scheme.Deferred Consistency.View
  in
  let result = ref None in
  Manager.submit cluster config (txn_of s) ~on_done:(fun o -> result := Some o);
  ignore (Cluster.run cluster);
  let committed =
    match !result with
    | Some o -> o.Outcome.committed
    | None -> Alcotest.fail "never finished"
  in
  Alcotest.(check bool) "committed" true committed;
  (* Every participant's WAL ends with the same decision. *)
  List.iter
    (fun name ->
      let server = Participant.server (Cluster.participant cluster name) in
      match Wal.recover_txn (Server.wal server) ~txn:"t1" with
      | `Committed _ | `Finished ->
        (* Finished after a commit decision: check data applied. *)
        let k2 = List.nth (s.Scenario.keys_of name) 1 in
        Alcotest.(check bool)
          (Printf.sprintf "%s applied" name)
          true
          (Server.get server k2 <> Some (Value.Int 100))
      | `Aborted -> Alcotest.failf "%s aborted a committed transaction" name
      | `Prepared _ | `Active | `No_trace ->
        Alcotest.failf "%s left in doubt" name)
    s.Scenario.servers

let test_crash_during_execution_times_out () =
  (* server-2 dies before it ever receives its query (its Execute arrives
     at 3ms): the watchdog aborts the transaction and server-1 releases
     the locks of the partial execution. *)
  let s = scenario () in
  let cluster = s.Scenario.cluster in
  at s ~time:2.5 (fun () -> Participant.crash (Cluster.participant cluster "server-2"));
  (* Recover later so the abort decision can be acknowledged. *)
  at s ~time:60. (fun () -> Participant.recover (Cluster.participant cluster "server-2"));
  let config =
    Manager.config ~vote_timeout:25. ~decision_retry:10. Scheme.Deferred
      Consistency.View
  in
  let result = ref None in
  Manager.submit cluster config (txn_of s) ~on_done:(fun o -> result := Some o);
  ignore (Cluster.run cluster);
  (match !result with
  | Some o ->
    Alcotest.(check bool) "aborted" false o.Outcome.committed;
    Alcotest.(check string) "timed out" "timed-out"
      (Outcome.reason_name o.Outcome.reason)
  | None -> Alcotest.fail "execution-phase hang was not detected");
  let server1 = Participant.server (Cluster.participant cluster "server-1") in
  Alcotest.(check (list string)) "server-1 locks released" []
    (Cloudtx_store.Lock_manager.held_by (Server.locks server1) ~txn:"t1")

let test_crash_during_continuous_2pv_times_out () =
  (* Continuous runs a 2PV after every query. server-1 answers its own
     query and the first 2PV, then dies; q2's 2PV over {server-1,
     server-2} can never complete, and the watchdog fires. *)
  let s = scenario () in
  let cluster = s.Scenario.cluster in
  at s ~time:4.5 (fun () -> Participant.crash (Cluster.participant cluster "server-1"));
  at s ~time:80. (fun () -> Participant.recover (Cluster.participant cluster "server-1"));
  let config =
    Manager.config ~vote_timeout:25. ~decision_retry:10. Scheme.Continuous
      Consistency.View
  in
  let result = ref None in
  Manager.submit cluster config (txn_of s) ~on_done:(fun o -> result := Some o);
  ignore (Cluster.run cluster);
  match !result with
  | Some o ->
    Alcotest.(check bool) "aborted" false o.Outcome.committed;
    Alcotest.(check string) "timed out" "timed-out"
      (Outcome.reason_name o.Outcome.reason)
  | None -> Alcotest.fail "per-query 2PV hang was not detected"

let test_master_crash_times_out_global () =
  (* The master dies before the commit-phase version fetch: with a vote
     timeout configured, the global-consistency transaction aborts instead
     of hanging; view consistency is unaffected by the same failure. *)
  let run level =
    let s = scenario () in
    let cluster = s.Scenario.cluster in
    at s ~time:5. (fun () -> Transport.crash (Cluster.transport cluster) "master");
    let config =
      Manager.config ~vote_timeout:30. Scheme.Deferred level
    in
    let result = ref None in
    Manager.submit cluster config (txn_of s) ~on_done:(fun o -> result := Some o);
    ignore (Cluster.run cluster);
    !result
  in
  (match run Consistency.Global with
  | Some o ->
    Alcotest.(check bool) "global aborted" false o.Outcome.committed;
    Alcotest.(check string) "timed out" "timed-out"
      (Outcome.reason_name o.Outcome.reason)
  | None -> Alcotest.fail "global transaction hung on the dead master");
  match run Consistency.View with
  | Some o -> Alcotest.(check bool) "view commits" true o.Outcome.committed
  | None -> Alcotest.fail "view transaction should not touch the master"

let test_forced_log_counts_2pvc () =
  (* 2PVC inherits 2PC's log complexity: each participant forces
     prepared + decision (2n), and the TM's decision force is traced. *)
  let s = scenario () in
  let cluster = s.Scenario.cluster in
  let registry = Transport.enable_metrics (Cluster.transport cluster) in
  let config = Manager.config Scheme.Deferred Consistency.View in
  let result = ref None in
  Manager.submit cluster config (txn_of s) ~on_done:(fun o -> result := Some o);
  ignore (Cluster.run cluster);
  Alcotest.(check bool) "committed" true
    (match !result with Some o -> o.Outcome.committed | None -> false);
  let participant_forces =
    List.fold_left
      (fun acc name ->
        let server = Participant.server (Cluster.participant cluster name) in
        acc + Wal.force_count (Server.wal server))
      0 s.Scenario.servers
  in
  Alcotest.(check int) "participants force 2n" 6 participant_forces;
  let tm_forces =
    Cloudtx_obs.Registry.counter registry "log_force_total" [ ("site", "tm") ]
  in
  Alcotest.(check int) "TM forces its decision" 1 tm_forces

let () =
  Alcotest.run "recovery"
    [
      ( "crashes",
        [
          Alcotest.test_case "randomized crash schedules" `Slow
            test_randomized_crash_schedules;
          Alcotest.test_case "decision retransmission" `Quick
            test_crash_after_prepare_decision_retransmitted;
          Alcotest.test_case "inquiry resolves in-doubt" `Quick
            test_crash_after_prepare_inquiry_resolves;
          Alcotest.test_case "vote timeout aborts" `Quick
            test_crash_before_vote_timeout_aborts;
          Alcotest.test_case "agreement under crash" `Quick
            test_agreement_under_crash;
          Alcotest.test_case "master crash times out global" `Quick
            test_master_crash_times_out_global;
          Alcotest.test_case "execution-phase crash times out" `Quick
            test_crash_during_execution_times_out;
          Alcotest.test_case "continuous 2PV crash times out" `Quick
            test_crash_during_continuous_2pv_times_out;
        ] );
      ( "logging",
        [
          Alcotest.test_case "2PVC log complexity 2n+1" `Quick
            test_forced_log_counts_2pvc;
        ] );
    ]
