(* Liveness under load: heavy contention, policy churn and mixed schemes
   running concurrently on one cluster. Every transaction must terminate
   (wait-die admits no deadlock, blocked queries are retried on lock
   promotions), and the cluster must end quiescent with no leaked locks or
   workspaces. Plus parser fuzzing for the wire codec. *)

module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Outcome = Cloudtx_protocol.Outcome
module Participant = Cloudtx_core.Participant
module Transport = Cloudtx_sim.Transport
module Splitmix = Cloudtx_sim.Splitmix
module Scenario = Cloudtx_workload.Scenario
module Generator = Cloudtx_workload.Generator
module Churn = Cloudtx_workload.Churn
module Experiment = Cloudtx_workload.Experiment
module Server = Cloudtx_store.Server
module Lock_manager = Cloudtx_store.Lock_manager
module Json = Cloudtx_policy.Json

let assert_no_leaks scenario outcomes =
  List.iter
    (fun name ->
      let server =
        Participant.server (Cluster.participant scenario.Scenario.cluster name)
      in
      List.iter
        (fun (o : Outcome.t) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s holds no locks for %s" name o.Outcome.txn)
            []
            (Lock_manager.held_by (Server.locks server) ~txn:o.Outcome.txn))
        outcomes)
    scenario.Scenario.servers

let test_hot_key_storm () =
  (* 100 all-write transactions hammering a tiny key space, arriving
     nearly simultaneously. *)
  let scenario =
    Scenario.retail ~seed:5L ~n_servers:2 ~items_per_server:2 ~n_subjects:4 ()
  in
  let rng = Splitmix.create 11L in
  let params =
    { Generator.default with queries_per_txn = 2; write_ratio = 1.; zipf_s = 3. }
  in
  let arrivals = List.init 100 (fun i -> float_of_int i *. 0.2) in
  let stats =
    Experiment.run_open scenario
      (Manager.config Scheme.Deferred Consistency.View)
      ~arrivals
      (fun ~i -> Generator.generate scenario rng params ~id:(Printf.sprintf "t%d" i))
  in
  Alcotest.(check int) "every transaction terminated" 100
    (stats.Experiment.committed + stats.Experiment.aborted);
  (* Under a 3.0-skew all-write storm on four keys, wait-die kills most of
     the load — the point is that everything terminates and the survivors
     commit cleanly. *)
  Alcotest.(check bool) "some committed" true (stats.Experiment.committed > 0);
  List.iter
    (fun (o : Outcome.t) ->
      if not o.Outcome.committed then
        Alcotest.(check string) "aborts are wait-die" "wait-die"
          (Outcome.reason_name o.Outcome.reason))
    stats.Experiment.outcomes;
  assert_no_leaks scenario stats.Experiment.outcomes

let test_restarts_recover_wait_die_victims () =
  (* The same storm with wait-die aging: victims resubmit with their
     original timestamp, grow relatively older, and eventually win. *)
  let run ~max_restarts =
    let scenario =
      Scenario.retail ~seed:5L ~n_servers:2 ~items_per_server:2 ~n_subjects:4 ()
    in
    let rng = Splitmix.create 11L in
    let params =
      { Generator.default with queries_per_txn = 2; write_ratio = 1.; zipf_s = 3. }
    in
    let arrivals = List.init 60 (fun i -> float_of_int i *. 0.4) in
    Experiment.run_open ~max_restarts scenario
      (Manager.config Scheme.Deferred Consistency.View)
      ~arrivals
      (fun ~i -> Generator.generate scenario rng params ~id:(Printf.sprintf "t%d" i))
  in
  let base = run ~max_restarts:0 in
  let aged = run ~max_restarts:25 in
  Alcotest.(check int) "all base txns finish" 60
    (base.Experiment.committed + base.Experiment.aborted);
  Alcotest.(check int) "all aged txns finish" 60
    (aged.Experiment.committed + aged.Experiment.aborted);
  Alcotest.(check bool) "restarts happened" true (aged.Experiment.restarts > 0);
  Alcotest.(check bool)
    (Printf.sprintf "aging raises commits (%d -> %d)" base.Experiment.committed
       aged.Experiment.committed)
    true
    (aged.Experiment.committed > base.Experiment.committed)

let test_mixed_schemes_concurrently () =
  (* Different TMs run different schemes against the same servers while
     the policy churns — the paper's "strategic choice made independently
     by each application". *)
  let scenario = Scenario.retail ~seed:8L ~n_servers:4 ~n_subjects:4 () in
  Churn.policy_refresh scenario ~period:6. ~propagation:(0.5, 5.) ~count:200;
  let cluster = scenario.Scenario.cluster in
  let rng = Splitmix.create 21L in
  let params = { Generator.default with queries_per_txn = 3; write_ratio = 0.4 } in
  let results = ref [] in
  let schemes = Array.of_list Scheme.all in
  List.iteri
    (fun i at ->
      Transport.at (Cluster.transport cluster) ~delay:at (fun () ->
          let scheme = schemes.(i mod Array.length schemes) in
          let txn = Generator.generate scenario rng params ~id:(Printf.sprintf "t%d" i) in
          Manager.submit cluster
            (Manager.config scheme Consistency.View)
            txn
            ~on_done:(fun o -> results := o :: !results)))
    (List.init 60 (fun i -> float_of_int i *. 1.1));
  ignore (Cluster.run cluster);
  Alcotest.(check int) "all finished" 60 (List.length !results);
  assert_no_leaks scenario !results;
  (* Committed data items hold plausible values; committed transactions of
     every scheme appear. *)
  let committed_schemes =
    List.sort_uniq compare
      (List.filter_map
         (fun (o : Outcome.t) ->
           if o.Outcome.committed then Some (Scheme.name o.Outcome.scheme) else None)
         !results)
  in
  Alcotest.(check bool) "several schemes committed" true
    (List.length committed_schemes >= 3)

let test_sequential_volume () =
  (* A long sequential run with churn: deterministic, no drift, stable
     memory of the counters (smoke-level throughput check). *)
  let scenario = Scenario.retail ~seed:13L ~n_servers:5 ~n_subjects:4 () in
  Churn.policy_refresh scenario ~period:25. ~propagation:(0.5, 10.) ~count:500;
  let rng = Splitmix.create 31L in
  let params = { Generator.default with queries_per_txn = 4 } in
  let stats =
    Experiment.run_sequential scenario
      (Manager.config Scheme.Punctual Consistency.Global)
      ~n:200
      (fun ~i -> Generator.generate scenario rng params ~id:(Printf.sprintf "t%d" i))
  in
  Alcotest.(check int) "200 transactions" 200
    (stats.Experiment.committed + stats.Experiment.aborted);
  Alcotest.(check bool) "high commit ratio" true
    (Experiment.commit_ratio stats > 0.9)

let test_outcomes_agree_with_wals () =
  (* After a contended mixed run, the TM-side outcomes and the server-side
     write-ahead logs must tell the same story:
     - a committed transaction has a commit decision in the WAL of every
       server it wrote at, and no abort decisions anywhere;
     - an aborted transaction has no commit decision anywhere;
     - replaying each WAL's prepared-writes in decision order reproduces
       the server's final committed state exactly. *)
  let module Wal = Cloudtx_store.Wal in
  let module Value = Cloudtx_store.Value in
  let scenario = Scenario.retail ~seed:77L ~n_servers:3 ~items_per_server:3 ~n_subjects:4 () in
  let rng = Splitmix.create 41L in
  let params =
    { Generator.default with queries_per_txn = 3; write_ratio = 0.7; zipf_s = 1.5 }
  in
  let arrivals = List.init 50 (fun i -> float_of_int i *. 0.7) in
  let stats =
    Experiment.run_open scenario
      (Manager.config Scheme.Punctual Consistency.View)
      ~arrivals
      (fun ~i -> Generator.generate scenario rng params ~id:(Printf.sprintf "t%d" i))
  in
  Alcotest.(check int) "all finished" 50
    (stats.Experiment.committed + stats.Experiment.aborted);
  let committed_ids =
    List.filter_map
      (fun (o : Outcome.t) -> if o.Outcome.committed then Some o.Outcome.txn else None)
      stats.Experiment.outcomes
  in
  List.iter
    (fun name ->
      let server = Participant.server (Cluster.participant scenario.Scenario.cluster name) in
      let wal = Server.wal server in
      (* Replay: prepared writes applied at commit decisions, in order. *)
      let state = Hashtbl.create 16 in
      List.iter
        (fun k ->
          match Server.read_asof server k ~ts:0. with
          | Some v -> Hashtbl.replace state k v
          | None -> ())
        (Server.keys server);
      let prepared = Hashtbl.create 16 in
      List.iter
        (fun (e : Wal.entry) ->
          match e.Wal.record with
          | Wal.Prepared { txn; writes; _ } -> Hashtbl.replace prepared txn writes
          | Wal.Decision { txn; commit = true } ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: commit decision for %s matches TM" name txn)
              true
              (List.mem txn committed_ids);
            List.iter
              (fun (k, v) -> Hashtbl.replace state k v)
              (Option.value ~default:[] (Hashtbl.find_opt prepared txn))
          | Wal.Decision { txn; commit = false } ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: abort decision for %s matches TM" name txn)
              false
              (List.mem txn committed_ids)
          | Wal.Begin_txn _ | Wal.End_txn _ -> ())
        (Wal.entries wal);
      (* Replayed state equals the server's committed state. *)
      List.iter
        (fun k ->
          let replayed = Hashtbl.find_opt state k in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s replay matches" name k)
            true
            (replayed = Server.get server k))
        (Server.keys server))
    scenario.Scenario.servers

let prop_json_fuzz =
  (* Arbitrary bytes never crash the parser: it returns Ok or Error. *)
  QCheck.Test.make ~name:"json parser total on garbage" ~count:1000
    QCheck.(string_gen Gen.(char_range '\000' '\255'))
    (fun s ->
      match Json.parse s with Ok _ -> true | Error _ -> true)

let prop_json_nest_fuzz =
  (* Deeply nested syntax-shaped garbage. *)
  QCheck.Test.make ~name:"json parser total on brackety garbage" ~count:500
    QCheck.(string_gen Gen.(oneofl [ '{'; '}'; '['; ']'; '"'; ','; ':'; 'a'; '1' ]))
    (fun s ->
      match Json.parse s with Ok _ -> true | Error _ -> true)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "stress"
    [
      ( "liveness",
        [
          Alcotest.test_case "hot-key storm" `Slow test_hot_key_storm;
          Alcotest.test_case "wait-die aging via restarts" `Slow
            test_restarts_recover_wait_die_victims;
          Alcotest.test_case "mixed schemes concurrently" `Slow
            test_mixed_schemes_concurrently;
          Alcotest.test_case "sequential volume" `Slow test_sequential_volume;
          Alcotest.test_case "outcomes agree with WALs" `Slow
            test_outcomes_agree_with_wals;
        ] );
      ("fuzz", [ qc prop_json_fuzz; qc prop_json_nest_fuzz ]);
    ]
