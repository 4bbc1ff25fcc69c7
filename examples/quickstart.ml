(* Quickstart: a three-server retail cluster, one clerk, one distributed
   transaction committed safely with 2PVC under the Deferred scheme.

   Run with: dune exec examples/quickstart.exe *)

module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Outcome = Cloudtx_protocol.Outcome
module View = Cloudtx_protocol.View
module Scenario = Cloudtx_workload.Scenario
module Proof = Cloudtx_policy.Proof
module Server = Cloudtx_store.Server

let () =
  (* 1. Build a simulated deployment: 3 data servers, clerk credentials
     issued by the corporate CA, one "retail" policy domain. *)
  let scenario = Scenario.retail ~n_servers:3 ~n_subjects:1 () in
  let cluster = scenario.Scenario.cluster in

  (* 2. A transaction on behalf of clerk-1 touching all three servers:
     read a stock level on each, debit one. *)
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:3 ()
  in

  (* 3. Run it under Deferred proofs of authorization with view
     consistency: all proofs evaluated at commit time by 2PVC. *)
  let config = Manager.config Scheme.Deferred Consistency.View in
  let outcome = Manager.run_one cluster config txn in

  Format.printf "outcome : %a@." Outcome.pp outcome;
  Format.printf "proofs in the transaction's view:@.";
  List.iter
    (fun p -> Format.printf "  %a@." Proof.pp p)
    (View.all outcome.Outcome.view);

  (* 4. The committed write is visible on the server that hosts it. *)
  let participant = Cluster.participant cluster "server-1" in
  let server = Cloudtx_core.Participant.server participant in
  (match Server.get server "s1-k2" with
  | Some v -> Format.printf "s1-k2 after commit = %a@." Cloudtx_store.Value.pp v
  | None -> Format.printf "s1-k2 missing?!@.");

  if not outcome.Outcome.committed then exit 1
