(* Tests for the workload library: Zipf sampling, scenario construction,
   transaction generation, churn processes and the experiment harness. *)

module Zipf = Cloudtx_workload.Zipf
module Scenario = Cloudtx_workload.Scenario
module Generator = Cloudtx_workload.Generator
module Churn = Cloudtx_workload.Churn
module Experiment = Cloudtx_workload.Experiment
module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Outcome = Cloudtx_protocol.Outcome
module Master = Cloudtx_core.Master
module Splitmix = Cloudtx_sim.Splitmix
module Transaction = Cloudtx_txn.Transaction
module Query = Cloudtx_txn.Query
module Sample_set = Cloudtx_metrics.Sample_set
module Running_stats = Cloudtx_metrics.Running_stats

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)
(* ------------------------------------------------------------------ *)

let test_zipf_uniform () =
  let z = Zipf.create ~n:10 ~s:0. in
  let rng = Splitmix.create 5L in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let i = Zipf.sample z rng in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "rank %d near uniform" i)
        true
        (c > 700 && c < 1300))
    counts

let test_zipf_skewed () =
  let z = Zipf.create ~n:10 ~s:1.2 in
  let rng = Splitmix.create 5L in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let i = Zipf.sample z rng in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "rank 0 dominates" true (counts.(0) > counts.(9) * 5);
  Alcotest.(check bool) "monotone-ish head" true (counts.(0) > counts.(1))

let test_zipf_guards () =
  Alcotest.check_raises "n" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~n:0 ~s:1.));
  Alcotest.check_raises "s" (Invalid_argument "Zipf.create: s must be nonnegative")
    (fun () -> ignore (Zipf.create ~n:3 ~s:(-1.)))

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf sample in range" ~count:200
    QCheck.(pair (int_range 1 50) (float_range 0. 3.))
    (fun (n, s) ->
      let z = Zipf.create ~n ~s in
      let rng = Splitmix.create 9L in
      let i = Zipf.sample z rng in
      i >= 0 && i < n)

(* ------------------------------------------------------------------ *)
(* Scenario / Generator                                                *)
(* ------------------------------------------------------------------ *)

let test_scenario_shape () =
  let s = Scenario.retail ~n_servers:3 ~items_per_server:5 ~n_subjects:2 () in
  Alcotest.(check int) "servers" 3 (List.length s.Scenario.servers);
  Alcotest.(check int) "subjects" 2 (List.length s.Scenario.subjects);
  Alcotest.(check int) "keys per server" 5
    (List.length (s.Scenario.keys_of "server-1"));
  Alcotest.(check int) "credentials per subject" 1
    (List.length (s.Scenario.credentials_of "clerk-1"));
  Alcotest.check_raises "unknown subject"
    (Invalid_argument "Scenario: unknown subject ghost") (fun () ->
      ignore (s.Scenario.credentials_of "ghost"))

let test_spread_transaction_shape () =
  let s = Scenario.retail ~n_servers:4 () in
  let t = Scenario.spread_transaction s ~id:"t" ~subject:"clerk-1" ~queries:4 () in
  Alcotest.(check int) "four queries" 4 (Transaction.query_count t);
  Alcotest.(check (list string)) "distinct servers"
    [ "server-1"; "server-2"; "server-3"; "server-4" ]
    (Transaction.participants t);
  (* More queries than servers wrap around. *)
  let t6 = Scenario.spread_transaction s ~id:"t6" ~subject:"clerk-1" ~queries:6 () in
  Alcotest.(check int) "still 4 participants" 4
    (List.length (Transaction.participants t6))

let test_generator_validity () =
  let s = Scenario.retail ~n_servers:3 ~n_subjects:2 () in
  let rng = Splitmix.create 21L in
  let params = { Generator.default with queries_per_txn = 5; write_ratio = 0.5 } in
  for i = 1 to 20 do
    let t = Generator.generate s rng params ~id:(Printf.sprintf "g%d" i) in
    Alcotest.(check int) "query count" 5 (Transaction.query_count t);
    Alcotest.(check bool) "known subject" true
      (List.mem t.Transaction.subject s.Scenario.subjects);
    List.iter
      (fun (q : Query.t) ->
        Alcotest.(check bool) "keys hosted by the query's server" true
          (List.for_all
             (fun item -> List.mem item (s.Scenario.keys_of q.Query.server))
             (Query.items q)))
      t.Transaction.queries
  done

let test_arrival_times () =
  let rng = Splitmix.create 3L in
  let times = Generator.arrival_times rng ~rate:0.1 ~horizon:1000. in
  Alcotest.(check bool) "nonempty" true (List.length times > 50);
  Alcotest.(check bool) "ascending in horizon" true
    (let rec ok = function
       | a :: (b :: _ as rest) -> a < b && ok rest
       | [ x ] -> x < 1000.
       | [] -> true
     in
     ok times)

(* ------------------------------------------------------------------ *)
(* Churn                                                               *)
(* ------------------------------------------------------------------ *)

let test_policy_refresh_publishes () =
  let s = Scenario.retail () in
  Churn.policy_refresh s ~period:10. ~propagation:(0., 0.) ~count:3;
  ignore (Cluster.run s.Scenario.cluster);
  Alcotest.(check (option int)) "master at v4" (Some 4)
    (Master.latest (Cluster.master s.Scenario.cluster) ~domain:"retail")

let test_tighten_at () =
  let s = Scenario.retail () in
  Churn.tighten_at s ~time:5. ~propagation:(0., 0.);
  ignore (Cluster.run s.Scenario.cluster);
  Alcotest.(check (option int)) "master bumped" (Some 2)
    (Master.latest (Cluster.master s.Scenario.cluster) ~domain:"retail")

let test_revoke_at () =
  let s = Scenario.retail () in
  Churn.revoke_at s ~subject:"clerk-1" ~time:5.;
  ignore (Cluster.run s.Scenario.cluster);
  let cred = List.hd (s.Scenario.credentials_of "clerk-1") in
  Alcotest.(check bool) "revoked after" true
    (match
       Cloudtx_policy.Ca.status s.Scenario.ca cred.Cloudtx_policy.Credential.id
         ~at:10.
     with
    | Cloudtx_policy.Ca.Revoked _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Experiment harness                                                  *)
(* ------------------------------------------------------------------ *)

let test_run_sequential_stats () =
  let s = Scenario.retail ~n_servers:3 ~n_subjects:2 () in
  let rng = Splitmix.create 17L in
  let params = { Generator.default with queries_per_txn = 3 } in
  let stats =
    Experiment.run_sequential s
      (Manager.config Scheme.Deferred Consistency.View)
      ~n:10
      (fun ~i -> Generator.generate s rng params ~id:(Printf.sprintf "t%d" i))
  in
  Alcotest.(check int) "ten outcomes" 10 (List.length stats.Experiment.outcomes);
  Alcotest.(check int) "all committed (no churn)" 10 stats.Experiment.committed;
  Alcotest.(check (float 1e-9)) "commit ratio" 1. (Experiment.commit_ratio stats);
  Alcotest.(check int) "latency samples" 10
    (Sample_set.count stats.Experiment.latency_ms);
  Alcotest.(check bool) "positive latency" true
    (Sample_set.min stats.Experiment.latency_ms > 0.);
  (* Deferred, no churn: u proofs per transaction. *)
  Alcotest.(check (float 1e-9)) "u proofs each" 3.
    (Running_stats.mean stats.Experiment.proofs);
  Alcotest.(check bool) "messages tracked" true
    (Running_stats.mean stats.Experiment.protocol_messages > 0.)

let test_run_open_concurrent () =
  let s = Scenario.retail ~n_servers:3 ~n_subjects:3 () in
  let rng = Splitmix.create 31L in
  let params =
    { Generator.default with queries_per_txn = 2; write_ratio = 1.; zipf_s = 1.5 }
  in
  let arrivals = List.init 12 (fun i -> float_of_int i *. 0.4) in
  let stats =
    Experiment.run_open s
      (Manager.config Scheme.Deferred Consistency.View)
      ~arrivals
      (fun ~i -> Generator.generate s rng params ~id:(Printf.sprintf "t%d" i))
  in
  Alcotest.(check int) "all finished" 12
    (stats.Experiment.committed + stats.Experiment.aborted);
  (* Hot keys under concurrency: wait-die may abort some, but the system
     always makes progress. *)
  Alcotest.(check bool) "progress" true (stats.Experiment.committed >= 1);
  List.iter
    (fun (o : Outcome.t) ->
      if not o.Outcome.committed then
        Alcotest.(check string) "aborts are wait-die" "wait-die"
          (Outcome.reason_name o.Outcome.reason))
    stats.Experiment.outcomes

let test_run_closed () =
  let s = Scenario.retail ~seed:9L ~n_servers:3 ~n_subjects:3 () in
  let rng = Splitmix.create 13L in
  let params = { Generator.default with queries_per_txn = 2; write_ratio = 0.2 } in
  let stats, tps =
    Experiment.run_closed s
      (Manager.config Scheme.Deferred Consistency.View)
      ~clients:4 ~total:25
      (fun ~i -> Generator.generate s rng params ~id:(Printf.sprintf "t%d" i))
  in
  Alcotest.(check int) "all complete" 25
    (stats.Experiment.committed + stats.Experiment.aborted);
  Alcotest.(check bool) "throughput positive" true (tps > 0.);
  (* Four clients in flight: the run must be faster than a serial one. *)
  let _, tps1 =
    let s = Scenario.retail ~seed:9L ~n_servers:3 ~n_subjects:3 () in
    let rng = Splitmix.create 13L in
    Experiment.run_closed s
      (Manager.config Scheme.Deferred Consistency.View)
      ~clients:1 ~total:25
      (fun ~i -> Generator.generate s rng params ~id:(Printf.sprintf "t%d" i))
  in
  Alcotest.(check bool)
    (Printf.sprintf "parallel beats serial (%.0f vs %.0f)" tps tps1)
    true (tps > tps1)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "uniform" `Quick test_zipf_uniform;
          Alcotest.test_case "skewed" `Quick test_zipf_skewed;
          Alcotest.test_case "guards" `Quick test_zipf_guards;
          qc prop_zipf_in_range;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "shape" `Quick test_scenario_shape;
          Alcotest.test_case "spread transaction" `Quick
            test_spread_transaction_shape;
          Alcotest.test_case "generator validity" `Quick test_generator_validity;
          Alcotest.test_case "arrival times" `Quick test_arrival_times;
        ] );
      ( "churn",
        [
          Alcotest.test_case "policy refresh" `Quick test_policy_refresh_publishes;
          Alcotest.test_case "tighten" `Quick test_tighten_at;
          Alcotest.test_case "revoke" `Quick test_revoke_at;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "sequential stats" `Quick test_run_sequential_stats;
          Alcotest.test_case "open concurrent" `Quick test_run_open_concurrent;
          Alcotest.test_case "closed loop" `Quick test_run_closed;
        ] );
    ]
