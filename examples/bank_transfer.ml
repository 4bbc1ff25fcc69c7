(* Funds transfers over 2PVC: a banking deployment where the "data
   consistency" half of safe transactions does real work (overdraft
   protection via integrity votes) and authorization distinguishes
   customers, tellers and auditors.

   Run with: dune exec examples/bank_transfer.exe *)

module Banking = Cloudtx_workload.Banking
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Outcome = Cloudtx_protocol.Outcome
module Splitmix = Cloudtx_sim.Splitmix

let show label (o : Outcome.t) =
  Format.printf "  %-42s -> %s (%s)@." label
    (if o.Outcome.committed then "COMMIT" else "ABORT")
    (Outcome.reason_name o.Outcome.reason)

let () =
  let bank = Banking.build ~n_branches:3 ~accounts_per_branch:4 () in
  let cluster = bank.Banking.cluster in
  let config = Manager.config Scheme.Punctual Consistency.View in
  let run txn = Manager.run_one cluster config txn in
  let balance acct =
    match Banking.balance bank acct with Some n -> n | None -> -1
  in

  Format.printf "opening: every account holds 100; total funds = %d@."
    (Banking.total_funds bank);

  (* A customer moves their own money across branches. *)
  let o1 =
    run
      (Banking.transfer bank ~id:"t1" ~by:"cust-1" ~from_acct:"acct-1-1"
         ~to_acct:"acct-2-1" ~amount:40)
  in
  show "cust-1: 40 from acct-1-1 to acct-2-1" o1;
  Format.printf "    acct-1-1 = %d, acct-2-1 = %d@." (balance "acct-1-1")
    (balance "acct-2-1");

  (* Overdraft: the source branch votes NO on integrity; 2PVC aborts and
     the credit side never applies. *)
  let o2 =
    run
      (Banking.transfer bank ~id:"t2" ~by:"cust-1" ~from_acct:"acct-1-1"
         ~to_acct:"acct-3-1" ~amount:500)
  in
  show "cust-1: overdraft of 500" o2;
  Format.printf "    acct-1-1 = %d (unchanged), acct-3-1 = %d (unchanged)@."
    (balance "acct-1-1") (balance "acct-3-1");

  (* Authorization: cust-1 cannot debit cust-2's account... *)
  let o3 =
    run
      (Banking.transfer bank ~id:"t3" ~by:"cust-1" ~from_acct:"acct-1-2"
         ~to_acct:"acct-1-1" ~amount:10)
  in
  show "cust-1: raid cust-2's account" o3;

  (* ... but a teller can. *)
  let o4 =
    run
      (Banking.transfer bank ~id:"t4" ~by:"teller-1" ~from_acct:"acct-1-2"
         ~to_acct:"acct-1-1" ~amount:10)
  in
  show "teller-1: the same move, authorized" o4;

  (* Auditors read whole branches but cannot write. *)
  let o5 = run (Banking.audit bank ~id:"t5" ~by:"auditor-1" ~branch:"branch-2") in
  show "auditor-1: read branch-2" o5;

  (* A burst of random transfers, a third of them overdrafts. *)
  let rng = Splitmix.create 99L in
  let committed = ref 0 and aborted = ref 0 in
  for i = 10 to 40 do
    let o =
      run
        (Banking.random_transfer bank rng ~id:(Printf.sprintf "t%d" i)
           ~overdraft_ratio:0.33)
    in
    if o.Outcome.committed then incr committed else incr aborted
  done;
  Format.printf
    "@.random burst: %d committed, %d aborted; total funds = %d (conserved)@."
    !committed !aborted (Banking.total_funds bank);
  assert (Banking.total_funds bank = 3 * 4 * 100)
