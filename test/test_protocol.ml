(* Integration tests: the full simulated cluster running 2PV/2PVC under
   every scheme and consistency level — clean commits, Table I complexity,
   staleness, credential revocation, integrity violations, contention, and
   the soundness obligation that every committed transaction satisfies its
   scheme's trusted-transaction definition. *)

module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Complexity = Cloudtx_core.Complexity
module Outcome = Cloudtx_protocol.Outcome
module Message = Cloudtx_protocol.Message
module Trusted = Cloudtx_core.Trusted
module Master = Cloudtx_core.Master
module Participant = Cloudtx_core.Participant
module Transport = Cloudtx_sim.Transport
module Latency = Cloudtx_sim.Latency
module Splitmix = Cloudtx_sim.Splitmix
module Scenario = Cloudtx_workload.Scenario
module Churn = Cloudtx_workload.Churn
module Generator = Cloudtx_workload.Generator
module Experiment = Cloudtx_workload.Experiment
module Table1 = Cloudtx_workload.Table1
module Server = Cloudtx_store.Server
module Value = Cloudtx_store.Value
module Ca = Cloudtx_policy.Ca

let all_combos =
  List.concat_map
    (fun s -> [ (s, Consistency.View); (s, Consistency.Global) ])
    Scheme.all

let latest_of scenario domain =
  Master.latest (Cluster.master scenario.Scenario.cluster) ~domain

(* ------------------------------------------------------------------ *)
(* Clean runs                                                          *)
(* ------------------------------------------------------------------ *)

let test_all_combos_commit () =
  List.iter
    (fun (scheme, level) ->
      let scenario = Scenario.retail ~n_servers:4 ~n_subjects:1 () in
      let txn =
        Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1"
          ~queries:4 ()
      in
      let outcome =
        Manager.run_one scenario.Scenario.cluster
          (Manager.config scheme level)
          txn
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s commits" (Scheme.name scheme)
           (Consistency.name level))
        true outcome.Outcome.committed;
      (* Soundness: the committed run satisfies its own definition. *)
      match
        Trusted.check scheme ~level ~latest:(latest_of scenario)
          outcome.Outcome.view
      with
      | Ok () -> ()
      | Error why ->
        Alcotest.failf "%s/%s committed but untrusted: %s" (Scheme.name scheme)
          (Consistency.name level) why)
    all_combos

let test_committed_writes_visible () =
  let scenario = Scenario.retail ~n_servers:3 ~n_subjects:1 () in
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:3 ()
  in
  let outcome =
    Manager.run_one scenario.Scenario.cluster
      (Manager.config Scheme.Deferred Consistency.View)
      txn
  in
  Alcotest.(check bool) "committed" true outcome.Outcome.committed;
  List.iter
    (fun name ->
      let server = Participant.server (Cluster.participant scenario.Scenario.cluster name) in
      let k2 = List.nth (scenario.Scenario.keys_of name) 1 in
      match Server.get server k2 with
      | Some (Value.Int v) ->
        Alcotest.(check bool) "write applied" true (v < 100)
      | _ -> Alcotest.fail "missing value")
    scenario.Scenario.servers

(* ------------------------------------------------------------------ *)
(* Table I: measured vs analytic                                       *)
(* ------------------------------------------------------------------ *)

type staleness = Fresh | View_worst | Global_worst

let run_complexity_case ?(n_servers = 4) ?(queries = 4) scheme level staleness =
  let scenario = Scenario.retail ~n_servers ~n_subjects:1 () in
  let cluster = scenario.Scenario.cluster in
  (match staleness with
  | Fresh -> ()
  | View_worst ->
    ignore
      (Cluster.publish cluster ~domain:"retail"
         ~delay:(`Fixed (fun s -> if String.equal s "server-1" then 0. else infinity))
         (Scenario.clerk_rules_refreshed ()))
  | Global_worst ->
    ignore
      (Cluster.publish cluster ~domain:"retail"
         ~delay:(`Fixed (fun _ -> infinity))
         (Scenario.clerk_rules_refreshed ())));
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries ()
  in
  let registry = Transport.enable_metrics (Cluster.transport cluster) in
  let before = Table1.protocol_messages registry in
  let outcome = Manager.run_one cluster (Manager.config scheme level) txn in
  let after = Table1.protocol_messages registry in
  (* The proof tally behind [proofs_evaluated] is gone once it finished. *)
  Alcotest.(check int) "tally dropped" 0 (Cluster.take_proofs cluster ~txn:"t1");
  (outcome, after - before)

let test_table1_fresh_exact () =
  (* With no churn every cell matches the closed form at r = 1 exactly. *)
  List.iter
    (fun (scheme, level) ->
      let outcome, msgs = run_complexity_case scheme level Fresh in
      Alcotest.(check bool) "committed" true outcome.Outcome.committed;
      let expect_m = Complexity.messages scheme level ~n:4 ~u:4 ~r:1 in
      let expect_p = Complexity.proofs scheme level ~n:4 ~u:4 ~r:1 in
      Alcotest.(check int)
        (Printf.sprintf "%s/%s messages" (Scheme.name scheme) (Consistency.name level))
        expect_m msgs;
      Alcotest.(check int)
        (Printf.sprintf "%s/%s proofs" (Scheme.name scheme) (Consistency.name level))
        expect_p outcome.Outcome.proofs_evaluated)
    all_combos

let test_table1_global_worst_exact () =
  (* Master ahead of every participant: Deferred/Punctual need the extra
     round, and measured counts equal Table I at r = 2 exactly. *)
  List.iter
    (fun scheme ->
      let outcome, msgs = run_complexity_case scheme Consistency.Global Global_worst in
      Alcotest.(check bool) "committed" true outcome.Outcome.committed;
      Alcotest.(check int) "two rounds" 2 outcome.Outcome.commit_rounds;
      Alcotest.(check int)
        (Printf.sprintf "%s messages" (Scheme.name scheme))
        (Complexity.messages scheme Consistency.Global ~n:4 ~u:4 ~r:2)
        msgs;
      Alcotest.(check int)
        (Printf.sprintf "%s proofs" (Scheme.name scheme))
        (Complexity.proofs scheme Consistency.Global ~n:4 ~u:4 ~r:2)
        outcome.Outcome.proofs_evaluated)
    [ Scheme.Deferred; Scheme.Punctual ]

let test_table1_view_worst_bounds () =
  (* Under view consistency the paper's 2n + 4n bound assumes all n are
     re-polled; at least one participant already holds the freshest
     version, so measured = bound - 2 and proofs hit 2u - 1 exactly. *)
  List.iter
    (fun scheme ->
      let outcome, msgs = run_complexity_case scheme Consistency.View View_worst in
      Alcotest.(check bool) "committed" true outcome.Outcome.committed;
      Alcotest.(check int) "two rounds" 2 outcome.Outcome.commit_rounds;
      let bound = Complexity.messages scheme Consistency.View ~n:4 ~u:4 ~r:2 in
      Alcotest.(check int)
        (Printf.sprintf "%s bound - 2" (Scheme.name scheme))
        (bound - 2) msgs;
      Alcotest.(check int)
        (Printf.sprintf "%s proofs exact" (Scheme.name scheme))
        (Complexity.proofs scheme Consistency.View ~n:4 ~u:4 ~r:2)
        outcome.Outcome.proofs_evaluated)
    [ Scheme.Deferred; Scheme.Punctual ]

let test_table1_fresh_exact_across_sizes () =
  (* The r = 1 closed forms hold for every cell across sizes. With
     [n_servers] servers and a [u]-query spread transaction, the
     participant count — Table I's n — is min(n_servers, u): more queries
     than servers wrap around (several queries per participant), and
     fewer leave some servers out of the transaction entirely. *)
  List.iter
    (fun n_servers ->
      List.iter
        (fun u ->
          let n = min n_servers u in
          List.iter
            (fun (scheme, level) ->
              let outcome, msgs =
                run_complexity_case ~n_servers ~queries:u scheme level Fresh
              in
              Alcotest.(check bool) "committed" true outcome.Outcome.committed;
              let expect_m = Complexity.messages scheme level ~n ~u ~r:1 in
              (* Table I prices Continuous's per-query 2PVs at i
                 participants for query i — exact while every query sits
                 on its own server (u <= n), an upper bound once queries
                 revisit servers. *)
              if scheme = Scheme.Continuous && u > n then
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s servers=%d u=%d messages <= bound"
                     (Scheme.name scheme) (Consistency.name level) n_servers u)
                  true (msgs <= expect_m)
              else
                Alcotest.(check int)
                  (Printf.sprintf "%s/%s servers=%d u=%d messages"
                     (Scheme.name scheme) (Consistency.name level) n_servers u)
                  expect_m msgs;
              Alcotest.(check int)
                (Printf.sprintf "%s/%s servers=%d u=%d proofs"
                   (Scheme.name scheme) (Consistency.name level) n_servers u)
                (Complexity.proofs scheme level ~n ~u ~r:1)
                outcome.Outcome.proofs_evaluated)
            all_combos)
        [ 2; 3; 5; 7 ])
    [ 2; 3; 6 ]

(* ------------------------------------------------------------------ *)
(* Policy staleness and tightening                                     *)
(* ------------------------------------------------------------------ *)

let test_deferred_catches_tightened_policy () =
  (* The policy is tightened (clerks may no longer write) and fully
     propagated before commit: 2PVC's validation evaluates FALSE. *)
  let scenario = Scenario.retail ~n_servers:3 ~n_subjects:1 () in
  ignore
    (Cluster.publish scenario.Scenario.cluster ~domain:"retail" ~delay:`Now
       Scenario.senior_write_rules);
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:3 ()
  in
  let outcome =
    Manager.run_one scenario.Scenario.cluster
      (Manager.config Scheme.Deferred Consistency.View)
      txn
  in
  Alcotest.(check bool) "aborted" false outcome.Outcome.committed;
  Alcotest.(check string) "reason" "proof-failure"
    (Outcome.reason_name outcome.Outcome.reason);
  (* Nothing was applied anywhere. *)
  List.iter
    (fun name ->
      let server = Participant.server (Cluster.participant scenario.Scenario.cluster name) in
      let k2 = List.nth (scenario.Scenario.keys_of name) 1 in
      Alcotest.(check bool) "unchanged" true (Server.get server k2 = Some (Value.Int 100)))
    scenario.Scenario.servers

let test_punctual_aborts_early () =
  (* Punctual detects the denial at the first query: exactly one proof is
     evaluated, far less work than Deferred's commit-time discovery. *)
  let scenario = Scenario.retail ~n_servers:3 ~n_subjects:1 () in
  ignore
    (Cluster.publish scenario.Scenario.cluster ~domain:"retail" ~delay:`Now
       Scenario.senior_write_rules);
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:3 ()
  in
  let outcome =
    Manager.run_one scenario.Scenario.cluster
      (Manager.config Scheme.Punctual Consistency.View)
      txn
  in
  Alcotest.(check bool) "aborted" false outcome.Outcome.committed;
  Alcotest.(check string) "reason" "proof-failure"
    (Outcome.reason_name outcome.Outcome.reason);
  Alcotest.(check int) "only one proof" 1 outcome.Outcome.proofs_evaluated

let test_incremental_aborts_on_version_skew () =
  (* A version bump lands on server-1 only, mid-deployment: Incremental
     Punctual's per-query check sees v2 then v1 and aborts. *)
  let scenario = Scenario.retail ~n_servers:3 ~n_subjects:1 () in
  ignore
    (Cluster.publish scenario.Scenario.cluster ~domain:"retail"
       ~delay:(`Fixed (fun s -> if String.equal s "server-1" then 0. else infinity))
       (Scenario.clerk_rules_refreshed ()));
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:3 ()
  in
  let outcome =
    Manager.run_one scenario.Scenario.cluster
      (Manager.config Scheme.Incremental_punctual Consistency.View)
      txn
  in
  Alcotest.(check bool) "aborted" false outcome.Outcome.committed;
  Alcotest.(check string) "reason" "version-inconsistency"
    (Outcome.reason_name outcome.Outcome.reason)

let test_incremental_global_rejects_stale_server () =
  (* Under global consistency the master is ahead of every server, so the
     very first query's version check fails. *)
  let scenario = Scenario.retail ~n_servers:3 ~n_subjects:1 () in
  ignore
    (Cluster.publish scenario.Scenario.cluster ~domain:"retail"
       ~delay:(`Fixed (fun _ -> infinity))
       (Scenario.clerk_rules_refreshed ()));
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:3 ()
  in
  let outcome =
    Manager.run_one scenario.Scenario.cluster
      (Manager.config Scheme.Incremental_punctual Consistency.Global)
      txn
  in
  Alcotest.(check bool) "aborted" false outcome.Outcome.committed;
  Alcotest.(check string) "reason" "version-inconsistency"
    (Outcome.reason_name outcome.Outcome.reason)

let test_continuous_repairs_instead_of_aborting () =
  (* Same skew as the Incremental test, but Continuous pushes the fresh
     version to stale servers via 2PV Update messages and commits. *)
  let scenario = Scenario.retail ~n_servers:3 ~n_subjects:1 () in
  ignore
    (Cluster.publish scenario.Scenario.cluster ~domain:"retail"
       ~delay:(`Fixed (fun s -> if String.equal s "server-1" then 0. else infinity))
       (Scenario.clerk_rules_refreshed ()));
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:3 ()
  in
  let outcome =
    Manager.run_one scenario.Scenario.cluster
      (Manager.config Scheme.Continuous Consistency.View)
      txn
  in
  Alcotest.(check bool) "committed" true outcome.Outcome.committed;
  (* The repair re-evaluated more proofs than the churn-free u(u+1)/2. *)
  Alcotest.(check bool) "extra proofs from updates" true
    (outcome.Outcome.proofs_evaluated
    > Complexity.proofs Scheme.Continuous Consistency.View ~n:3 ~u:3 ~r:1);
  (* Every server ended on the fresh version. *)
  List.iter
    (fun name ->
      let server = Participant.server (Cluster.participant scenario.Scenario.cluster name) in
      Alcotest.(check (option int)) "replica updated" (Some 2)
        (Cloudtx_policy.Replica.version (Server.replica server) ~domain:"retail"))
    scenario.Scenario.servers

let test_suspension_caught_under_global () =
  (* A suspension (negation-based policy exception) published only at the
     master: global consistency pulls the new version at commit and the
     suspended clerk's transaction aborts; an unaffected clerk commits
     under the same policy version. *)
  let scenario = Scenario.retail ~n_servers:3 ~n_subjects:2 () in
  let cluster = scenario.Scenario.cluster in
  ignore
    (Cluster.publish cluster ~domain:"retail"
       ~delay:(`Fixed (fun _ -> infinity))
       (Scenario.suspend_rules ~subject:"clerk-1"));
  let run subject id =
    Manager.run_one cluster
      (Manager.config Scheme.Deferred Consistency.Global)
      (Scenario.spread_transaction scenario ~id ~subject ~queries:3 ())
  in
  let o1 = run "clerk-1" "t1" in
  Alcotest.(check bool) "suspended clerk aborted" false o1.Outcome.committed;
  Alcotest.(check string) "proof failure" "proof-failure"
    (Outcome.reason_name o1.Outcome.reason);
  let o2 = run "clerk-2" "t2" in
  Alcotest.(check bool) "other clerk commits" true o2.Outcome.committed

(* ------------------------------------------------------------------ *)
(* Credential revocation (the Bob anomaly, Figure 1)                   *)
(* ------------------------------------------------------------------ *)

(* Deterministic timing: Constant 1ms latency means queries complete at
   2, 4, 6ms and commit-time proofs evaluate at 7ms. *)
let revocation_scenario () =
  Scenario.retail ~latency:(Latency.Constant 1.) ~n_servers:3 ~n_subjects:1 ()

let test_deferred_catches_revocation () =
  let scenario = revocation_scenario () in
  Churn.revoke_at scenario ~subject:"clerk-1" ~time:6.5;
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:3 ()
  in
  let outcome =
    Manager.run_one scenario.Scenario.cluster
      (Manager.config Scheme.Deferred Consistency.View)
      txn
  in
  Alcotest.(check bool) "revocation aborts at commit" false
    outcome.Outcome.committed;
  Alcotest.(check string) "reason" "proof-failure"
    (Outcome.reason_name outcome.Outcome.reason)

let test_incremental_misses_late_revocation () =
  (* Incremental Punctual does not re-validate at commit: a revocation
     after the last query's proof slips through. The transaction is still
     "trusted" per Definition 8 — the paper's point that the schemes give
     different guarantees, and why Continuous exists. *)
  let scenario = revocation_scenario () in
  Churn.revoke_at scenario ~subject:"clerk-1" ~time:6.5;
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:3 ()
  in
  let outcome =
    Manager.run_one scenario.Scenario.cluster
      (Manager.config Scheme.Incremental_punctual Consistency.View)
      txn
  in
  Alcotest.(check bool) "commits despite revocation" true outcome.Outcome.committed

let test_continuous_catches_mid_transaction_revocation () =
  (* Revoke between q1 and q2: Continuous re-evaluates q1's proof during
     q2's 2PV and aborts. *)
  let scenario = revocation_scenario () in
  Churn.revoke_at scenario ~subject:"clerk-1" ~time:2.5;
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:3 ()
  in
  let outcome =
    Manager.run_one scenario.Scenario.cluster
      (Manager.config Scheme.Continuous Consistency.View)
      txn
  in
  Alcotest.(check bool) "aborted" false outcome.Outcome.committed;
  Alcotest.(check string) "reason" "proof-failure"
    (Outcome.reason_name outcome.Outcome.reason)

let test_expiry_mid_transaction () =
  (* A credential that expires between execution and commit: syntactic
     validity fails at commit-time re-validation (Deferred), while
     Incremental Punctual — no commit validation — lets it slip. Constant
     1ms links put execution proofs at 1-5ms and commit proofs at 7ms. *)
  let module Ca = Cloudtx_policy.Ca in
  let module Rule = Cloudtx_policy.Rule in
  let run scheme =
    let scenario =
      Scenario.retail ~latency:(Latency.Constant 1.) ~n_servers:3 ~n_subjects:1 ()
    in
    let short_lived =
      Ca.issue scenario.Scenario.ca ~id:"ephemeral" ~subject:"clerk-1"
        ~facts:[ Rule.fact "role" [ "clerk-1"; "clerk" ] ]
        ~now:0. ~ttl:6.5
    in
    let txn =
      Cloudtx_txn.Transaction.make ~id:"t1" ~subject:"clerk-1"
        ~credentials:[ short_lived ]
        (Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1"
           ~queries:3 ())
          .Cloudtx_txn.Transaction.queries
    in
    Manager.run_one scenario.Scenario.cluster
      (Manager.config scheme Consistency.View)
      txn
  in
  let deferred = run Scheme.Deferred in
  Alcotest.(check bool) "deferred catches expiry" false deferred.Outcome.committed;
  Alcotest.(check string) "proof failure" "proof-failure"
    (Outcome.reason_name deferred.Outcome.reason);
  let incremental = run Scheme.Incremental_punctual in
  Alcotest.(check bool) "incremental misses late expiry" true
    incremental.Outcome.committed

let test_outcome_invariant_under_timing () =
  (* With no churn, the protocol outcome must not depend on network
     timing: fifty different latency seeds give identical decisions,
     proof counts and rounds. *)
  List.iter
    (fun (scheme, level) ->
      let reference = ref None in
      for seed = 1 to 50 do
        let scenario =
          Scenario.retail ~seed:(Int64.of_int seed) ~n_servers:4 ~n_subjects:1 ()
        in
        let txn =
          Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1"
            ~queries:4 ()
        in
        let o =
          Manager.run_one scenario.Scenario.cluster
            (Manager.config scheme level) txn
        in
        let fingerprint =
          (o.Outcome.committed, o.Outcome.proofs_evaluated, o.Outcome.commit_rounds)
        in
        match !reference with
        | None -> reference := Some fingerprint
        | Some expected ->
          if fingerprint <> expected then
            Alcotest.failf "%s/%s: outcome varies with timing (seed %d)"
              (Scheme.name scheme) (Consistency.name level) seed
      done)
    all_combos

(* ------------------------------------------------------------------ *)
(* Data integrity and contention                                       *)
(* ------------------------------------------------------------------ *)

let test_integrity_violation_aborts () =
  (* Drive a balance negative: the non-negativity constraint makes the
     participant vote NO, and 2PVC aborts before policy validation. *)
  let scenario = Scenario.retail ~n_servers:2 ~n_subjects:1 () in
  let q =
    Cloudtx_txn.Query.make ~id:"t1-q1" ~server:"server-1"
      ~writes:[ ("s1-k1", Value.Set (Value.Int (-5))) ]
      ()
  in
  let txn =
    Cloudtx_txn.Transaction.make ~id:"t1" ~subject:"clerk-1"
      ~credentials:(scenario.Scenario.credentials_of "clerk-1")
      [ q ]
  in
  let outcome =
    Manager.run_one scenario.Scenario.cluster
      (Manager.config Scheme.Deferred Consistency.View)
      txn
  in
  Alcotest.(check bool) "aborted" false outcome.Outcome.committed;
  Alcotest.(check string) "reason" "integrity-violation"
    (Outcome.reason_name outcome.Outcome.reason);
  let server = Participant.server (Cluster.participant scenario.Scenario.cluster "server-1") in
  Alcotest.(check bool) "value unchanged" true
    (Server.get server "s1-k1" = Some (Value.Int 100))

let test_contention_wait_die_progress () =
  (* Two transactions fighting over the same key, submitted together: at
     least one commits; if both finish, locks guaranteed serial order. *)
  let scenario = Scenario.retail ~n_servers:2 ~n_subjects:2 () in
  let make_txn id subject value =
    let q =
      Cloudtx_txn.Query.make ~id:(id ^ "-q1") ~server:"server-1"
        ~writes:[ ("s1-k1", Value.Set (Value.Int value)) ]
        ()
    in
    Cloudtx_txn.Transaction.make ~id ~subject
      ~credentials:(scenario.Scenario.credentials_of subject)
      [ q ]
  in
  let cluster = scenario.Scenario.cluster in
  let config = Manager.config Scheme.Deferred Consistency.View in
  let results = ref [] in
  Manager.submit cluster config (make_txn "ta" "clerk-1" 11) ~on_done:(fun o ->
      results := o :: !results);
  Manager.submit cluster config (make_txn "tb" "clerk-2" 22) ~on_done:(fun o ->
      results := o :: !results);
  ignore (Cluster.run cluster);
  Alcotest.(check int) "both finished" 2 (List.length !results);
  let committed = List.filter (fun o -> o.Outcome.committed) !results in
  Alcotest.(check bool) "at least one committed" true (List.length committed >= 1);
  (* The key holds the value of some committed transaction. *)
  let server = Participant.server (Cluster.participant cluster "server-1") in
  match Server.get server "s1-k1" with
  | Some (Value.Int v) ->
    Alcotest.(check bool) "final value from a committed txn" true
      (List.exists
         (fun o ->
           o.Outcome.committed
           && ((o.Outcome.txn = "ta" && v = 11) || (o.Outcome.txn = "tb" && v = 22)))
         !results)
  | _ -> Alcotest.fail "missing value"

(* ------------------------------------------------------------------ *)
(* Randomized soundness sweep                                          *)
(* ------------------------------------------------------------------ *)

let test_global_soundness_synchronous_replication () =
  (* Under global consistency with instantaneous propagation (replicas
     never lag the master), every committed transaction must satisfy the
     psi-trusted check against the master's latest versions. *)
  List.iter
    (fun scheme ->
      let scenario = Scenario.retail ~seed:55L ~n_servers:4 ~n_subjects:3 () in
      (* Version churn whose propagation is immediate. *)
      let cluster = scenario.Scenario.cluster in
      List.iter
        (fun delay ->
          Transport.at (Cluster.transport cluster) ~delay (fun () ->
              ignore
                (Cluster.publish cluster ~domain:"retail" ~delay:`Now
                   (Scenario.clerk_rules_refreshed ()))))
        [ 30.; 60.; 90. ];
      let rng = Splitmix.create 321L in
      let params = { Generator.default with queries_per_txn = 3 } in
      let engine = Transport.engine (Cluster.transport cluster) in
      let committed = ref 0 in
      (* Drive transactions one at a time and audit each at its own commit
         instant — the master keeps moving afterwards, so a retrospective
         check would be vacuously wrong. *)
      let audited = ref 0 in
      for i = 0 to 11 do
        let txn = Generator.generate scenario rng params ~id:(Printf.sprintf "t%d" i) in
        let before = latest_of scenario "retail" in
        let result = ref None in
        Manager.submit cluster (Manager.config scheme Consistency.Global) txn
          ~on_done:(fun o -> result := Some o);
        while !result = None && Cloudtx_sim.Engine.step engine do
          ()
        done;
        match !result with
        | None -> Alcotest.failf "%s never completed" txn.Cloudtx_txn.Transaction.id
        | Some o ->
          if o.Outcome.committed then begin
            incr committed;
            (* Definition 3's ver(P) is the master's version *at each
               evaluation instant* — a moving target. The audit below uses
               a single snapshot, so it is exact only for transactions
               during which the master did not move; skip the others
               (their instant-indexed consistency is what the protocol
               itself enforced online). *)
            if latest_of scenario "retail" = before then begin
              incr audited;
              match
                Trusted.check scheme ~level:Consistency.Global
                  ~latest:(latest_of scenario) o.Outcome.view
              with
              | Ok () -> ()
              | Error why ->
                Alcotest.failf "%s committed psi-untrusted txn %s: %s"
                  (Scheme.name scheme) o.Outcome.txn why
            end
          end
      done;
      Alcotest.(check bool) "audited several" true (!audited >= 5);
      Alcotest.(check bool) "commits happened" true (!committed > 0))
    Scheme.all

let test_random_workload_soundness () =
  (* Random transactions under churn, every scheme, view consistency:
     whatever commits must pass its trusted-transaction check. *)
  List.iter
    (fun scheme ->
      let scenario =
        Scenario.retail ~seed:99L ~n_servers:4 ~n_subjects:3 ()
      in
      Churn.policy_refresh scenario ~period:20. ~propagation:(0., 15.) ~count:10;
      let rng = Splitmix.create 123L in
      let params = { Generator.default with queries_per_txn = 3 } in
      let stats =
        Experiment.run_sequential scenario
          (Manager.config scheme Consistency.View)
          ~n:15
          (fun ~i ->
            Generator.generate scenario rng params ~id:(Printf.sprintf "t%d" i))
      in
      Alcotest.(check int) "all finished" 15
        (stats.Experiment.committed + stats.Experiment.aborted);
      List.iter
        (fun (o : Outcome.t) ->
          if o.Outcome.committed then
            match
              Trusted.check scheme ~level:Consistency.View
                ~latest:(latest_of scenario) o.Outcome.view
            with
            | Ok () -> ()
            | Error why ->
              Alcotest.failf "%s committed untrusted txn %s: %s"
                (Scheme.name scheme) o.Outcome.txn why)
        stats.Experiment.outcomes)
    Scheme.all

(* ------------------------------------------------------------------ *)
(* The participant machine's in-doubt set                              *)
(* ------------------------------------------------------------------ *)

module Ps = Cloudtx_protocol.Ps_machine
module Query = Cloudtx_txn.Query

(* One write on one participant, driven through the machine by hand: the
   transaction is in doubt from its vote until its decision, and again
   once a restart re-seeds it from the log. *)
let test_in_doubt_follows_the_vote () =
  let m = Ps.create ~name:"server-1" () in
  let tm = "tm-t1" and txn = "t1" in
  let handle input = Ps.handle m input in
  let deliver msg = handle (Ps.Deliver { src = tm; msg }) in
  let emits what is actions =
    Alcotest.(check bool) what true (List.exists is actions)
  in
  let in_doubt what want =
    Alcotest.(check (list string)) what want (Ps.in_doubt m)
  in
  let query =
    Query.make ~id:"t1-q1" ~server:"server-1"
      ~writes:[ ("k1", Value.Set (Value.Int 1)) ]
      ()
  in
  ignore
    (deliver
       (Message.Execute
          {
            txn;
            ts = 0.;
            query;
            subject = "alice";
            credentials = [];
            evaluate_proof = false;
            snapshot = false;
          }));
  ignore
    (handle
       (Ps.Exec_result
          {
            txn;
            query;
            evaluate = false;
            reply_to = tm;
            result = Ps.Executed [];
          }));
  ignore
    (deliver
       (Message.Commit_request
          {
            txn;
            round = 1;
            validate = true;
            allow_read_only = false;
            expected = 1;
          }));
  emits "the evaluation asks for the prepared record"
    (function Ps.Prepare _ -> true | _ -> false)
    (handle
       (Ps.Evaluated
          {
            txn;
            proofs = [];
            policies = [];
            cont = Ps.To_commit_reply { reply_to = tm; round = 1 };
          }));
  in_doubt "not yet voted" [];
  ignore (handle (Ps.Prepared { txn; vote = true }));
  in_doubt "voted" [ txn ];
  emits "the decision is applied"
    (function Ps.Apply _ -> true | _ -> false)
    (deliver (Message.Decision { txn; commit = true }));
  in_doubt "decided" [];
  Ps.reset m;
  in_doubt "crashed" [];
  ignore
    (handle
       (Ps.Recovered { decided = []; in_doubt = [ (txn, true, [ "k1" ]) ] }));
  in_doubt "recovered in doubt" [ txn ]

let () =
  Alcotest.run "protocol"
    [
      ( "clean runs",
        [
          Alcotest.test_case "all combos commit + trusted" `Quick
            test_all_combos_commit;
          Alcotest.test_case "writes visible after commit" `Quick
            test_committed_writes_visible;
        ] );
      ( "table1",
        [
          Alcotest.test_case "fresh runs match r=1 exactly" `Quick
            test_table1_fresh_exact;
          Alcotest.test_case "global worst case matches r=2 exactly" `Quick
            test_table1_global_worst_exact;
          Alcotest.test_case "view worst case: bound - 2, proofs exact" `Quick
            test_table1_view_worst_bounds;
          Alcotest.test_case "fresh exactness across sizes" `Slow
            test_table1_fresh_exact_across_sizes;
        ] );
      ( "staleness",
        [
          Alcotest.test_case "deferred catches tightening" `Quick
            test_deferred_catches_tightened_policy;
          Alcotest.test_case "punctual aborts early" `Quick
            test_punctual_aborts_early;
          Alcotest.test_case "incremental aborts on skew" `Quick
            test_incremental_aborts_on_version_skew;
          Alcotest.test_case "incremental global rejects stale" `Quick
            test_incremental_global_rejects_stale_server;
          Alcotest.test_case "continuous repairs and commits" `Quick
            test_continuous_repairs_instead_of_aborting;
          Alcotest.test_case "suspension caught under global" `Quick
            test_suspension_caught_under_global;
        ] );
      ( "revocation",
        [
          Alcotest.test_case "deferred catches at commit" `Quick
            test_deferred_catches_revocation;
          Alcotest.test_case "incremental misses late revocation" `Quick
            test_incremental_misses_late_revocation;
          Alcotest.test_case "continuous catches mid-transaction" `Quick
            test_continuous_catches_mid_transaction_revocation;
          Alcotest.test_case "expiry mid-transaction" `Quick
            test_expiry_mid_transaction;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "outcome invariant under timing" `Slow
            test_outcome_invariant_under_timing;
        ] );
      ( "data",
        [
          Alcotest.test_case "integrity violation aborts" `Quick
            test_integrity_violation_aborts;
          Alcotest.test_case "wait-die progress under contention" `Quick
            test_contention_wait_die_progress;
        ] );
      ( "participant",
        [
          Alcotest.test_case "in doubt from vote to decision" `Quick
            test_in_doubt_follows_the_vote;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "random workloads, committed implies trusted"
            `Slow test_random_workload_soundness;
          Alcotest.test_case "global soundness, synchronous replication"
            `Slow test_global_soundness_synchronous_replication;
        ] );
    ]
