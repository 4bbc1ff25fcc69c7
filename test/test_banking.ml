(* Banking scenario tests: funds transfers over 2PVC with real integrity
   constraints (overdrafts), owner/teller/auditor authorization, and the
   global funds-conservation invariant. *)

module Banking = Cloudtx_workload.Banking
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Outcome = Cloudtx_protocol.Outcome
module Trusted = Cloudtx_core.Trusted
module Master = Cloudtx_core.Master
module Cluster = Cloudtx_core.Cluster
module Splitmix = Cloudtx_sim.Splitmix
module Server = Cloudtx_store.Server
module Value = Cloudtx_store.Value

let config = Manager.config Scheme.Punctual Consistency.View

let test_intra_branch_transfer () =
  let bank = Banking.build () in
  let before = Banking.total_funds bank in
  let txn =
    Banking.transfer bank ~id:"t1" ~by:"cust-1" ~from_acct:"acct-1-1"
      ~to_acct:"acct-1-2" ~amount:30
  in
  let o = Manager.run_one bank.Banking.cluster config txn in
  Alcotest.(check bool) "committed" true o.Outcome.committed;
  Alcotest.(check (option int)) "debited" (Some 70) (Banking.balance bank "acct-1-1");
  Alcotest.(check (option int)) "credited" (Some 130) (Banking.balance bank "acct-1-2");
  Alcotest.(check int) "conserved" before (Banking.total_funds bank)

let test_cross_branch_transfer () =
  let bank = Banking.build () in
  let before = Banking.total_funds bank in
  let txn =
    Banking.transfer bank ~id:"t1" ~by:"cust-1" ~from_acct:"acct-1-1"
      ~to_acct:"acct-2-1" ~amount:45
  in
  let o = Manager.run_one bank.Banking.cluster config txn in
  Alcotest.(check bool) "committed" true o.Outcome.committed;
  Alcotest.(check (option int)) "debited" (Some 55) (Banking.balance bank "acct-1-1");
  Alcotest.(check (option int)) "credited" (Some 145) (Banking.balance bank "acct-2-1");
  Alcotest.(check int) "conserved" before (Banking.total_funds bank)

let test_overdraft_aborts () =
  let bank = Banking.build () in
  let txn =
    Banking.transfer bank ~id:"t1" ~by:"cust-1" ~from_acct:"acct-1-1"
      ~to_acct:"acct-2-1" ~amount:5000
  in
  let o = Manager.run_one bank.Banking.cluster config txn in
  Alcotest.(check bool) "aborted" false o.Outcome.committed;
  Alcotest.(check string) "integrity violation" "integrity-violation"
    (Outcome.reason_name o.Outcome.reason);
  (* Neither side of the transfer happened — no partial credit. *)
  Alcotest.(check (option int)) "source intact" (Some 100)
    (Banking.balance bank "acct-1-1");
  Alcotest.(check (option int)) "sink intact" (Some 100)
    (Banking.balance bank "acct-2-1")

let test_customer_cannot_move_others_money () =
  let bank = Banking.build () in
  (* acct-1-2 belongs to cust-2 (j=2 -> cust-2). *)
  Alcotest.(check string) "ownership" "cust-2" (bank.Banking.owner_of "acct-1-2");
  let txn =
    Banking.transfer bank ~id:"t1" ~by:"cust-1" ~from_acct:"acct-1-2"
      ~to_acct:"acct-1-1" ~amount:10
  in
  let o = Manager.run_one bank.Banking.cluster config txn in
  Alcotest.(check bool) "aborted" false o.Outcome.committed;
  Alcotest.(check string) "proof failure" "proof-failure"
    (Outcome.reason_name o.Outcome.reason);
  Alcotest.(check (option int)) "victim intact" (Some 100)
    (Banking.balance bank "acct-1-2")

let test_teller_can_move_any_money () =
  let bank = Banking.build () in
  let txn =
    Banking.transfer bank ~id:"t1" ~by:"teller-1" ~from_acct:"acct-1-2"
      ~to_acct:"acct-3-1" ~amount:25
  in
  let o = Manager.run_one bank.Banking.cluster config txn in
  Alcotest.(check bool) "committed" true o.Outcome.committed;
  Alcotest.(check (option int)) "moved" (Some 75) (Banking.balance bank "acct-1-2")

let test_auditor_reads_but_cannot_write () =
  let bank = Banking.build () in
  let audit = Banking.audit bank ~id:"t1" ~by:"auditor-1" ~branch:"branch-2" in
  let o1 = Manager.run_one bank.Banking.cluster config audit in
  Alcotest.(check bool) "audit commits" true o1.Outcome.committed;
  let theft =
    Banking.transfer bank ~id:"t2" ~by:"auditor-1" ~from_acct:"acct-1-1"
      ~to_acct:"acct-1-2" ~amount:10
  in
  let o2 = Manager.run_one bank.Banking.cluster config theft in
  Alcotest.(check bool) "transfer denied" false o2.Outcome.committed;
  Alcotest.(check string) "proof failure" "proof-failure"
    (Outcome.reason_name o2.Outcome.reason)

let test_incremental_updates_compose () =
  (* Two committed transfers through the same account apply cumulatively. *)
  let bank = Banking.build () in
  let run id from_acct to_acct amount =
    let txn = Banking.transfer bank ~id ~by:"teller-1" ~from_acct ~to_acct ~amount in
    (Manager.run_one bank.Banking.cluster config txn).Outcome.committed
  in
  Alcotest.(check bool) "t1" true (run "t1" "acct-1-1" "acct-1-2" 10);
  Alcotest.(check bool) "t2" true (run "t2" "acct-1-3" "acct-1-2" 5);
  Alcotest.(check (option int)) "cumulative credit" (Some 115)
    (Banking.balance bank "acct-1-2")

let test_random_workload_conservation () =
  (* Random transfers with deliberate overdrafts under every scheme:
     whatever commits or aborts, total funds never change and committed
     transactions satisfy their trusted-transaction definition. *)
  List.iter
    (fun scheme ->
      let bank = Banking.build ~n_branches:3 ~accounts_per_branch:4 () in
      let before = Banking.total_funds bank in
      let rng = Splitmix.create 77L in
      let committed = ref 0 and integrity_aborts = ref 0 in
      for i = 1 to 30 do
        let txn =
          Banking.random_transfer bank rng ~id:(Printf.sprintf "t%d" i)
            ~overdraft_ratio:0.3
        in
        let o =
          Manager.run_one bank.Banking.cluster
            (Manager.config scheme Consistency.View)
            txn
        in
        if o.Outcome.committed then begin
          incr committed;
          match
            Trusted.check scheme ~level:Consistency.View
              ~latest:(fun d -> Master.latest (Cluster.master bank.Banking.cluster) ~domain:d)
              o.Outcome.view
          with
          | Ok () -> ()
          | Error why -> Alcotest.failf "%s untrusted commit: %s" (Scheme.name scheme) why
        end
        else if o.Outcome.reason = Outcome.Integrity_violation then
          incr integrity_aborts
      done;
      Alcotest.(check int)
        (Scheme.name scheme ^ " conserves funds")
        before (Banking.total_funds bank);
      Alcotest.(check bool) "some committed" true (!committed > 0);
      Alcotest.(check bool) "some integrity aborts" true (!integrity_aborts > 0))
    Scheme.all

let () =
  Alcotest.run "banking"
    [
      ( "transfers",
        [
          Alcotest.test_case "intra-branch" `Quick test_intra_branch_transfer;
          Alcotest.test_case "cross-branch" `Quick test_cross_branch_transfer;
          Alcotest.test_case "overdraft aborts" `Quick test_overdraft_aborts;
          Alcotest.test_case "increments compose" `Quick
            test_incremental_updates_compose;
        ] );
      ( "authorization",
        [
          Alcotest.test_case "customer cannot move others' money" `Quick
            test_customer_cannot_move_others_money;
          Alcotest.test_case "teller can move any money" `Quick
            test_teller_can_move_any_money;
          Alcotest.test_case "auditor read-only" `Quick
            test_auditor_reads_but_cannot_write;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "random workload conserves funds" `Slow
            test_random_workload_conservation;
        ] );
    ]
