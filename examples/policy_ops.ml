(* A day in the life of the policy administrator.

   Policies are authored as Datalog text, sanity-checked, semantically
   diffed against the running version, published through the master, and
   enforced by the consistency machinery — with the semantic diff
   predicting exactly which transactions the rollout will start
   rejecting.

   Run with: dune exec examples/policy_ops.exe *)

module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Outcome = Cloudtx_protocol.Outcome
module Scenario = Cloudtx_workload.Scenario
module Datalog = Cloudtx_policy.Datalog
module Analysis = Cloudtx_policy.Analysis
module Codec = Cloudtx_policy.Codec
module Policy = Cloudtx_policy.Policy
module Rule = Cloudtx_policy.Rule

let parse text =
  match Datalog.parse_program text with
  | Ok rules -> rules
  | Error m -> failwith m

let () =
  (* The running v1 policy: every clerk may read and write. *)
  let v1_rules =
    parse
      {|permit(S, A, I) :- role(S, clerk), req_action(A), req_item(I).|}
  in
  (* The proposed v2: clerk-1 is under investigation and gets suspended
     via a stratified-negation exception. *)
  let v2_text =
    {|% proposed revision: suspension list
permit(S, A, I) :- role(S, clerk), req_action(A), req_item(I),
                   not suspended(S).
suspended(clerk-1).|}
  in
  let v2_rules = parse v2_text in
  Format.printf "proposed revision parses to:@.%s@." (Datalog.print_program v2_rules);

  (* 1. Predict the impact before publishing. *)
  let probes =
    Analysis.probe_space
      ~subjects:[ "clerk-1"; "clerk-2" ]
      ~actions:[ "read"; "write" ] ~items:[ "s1-k1" ]
      ~facts_for:(fun subject -> [ Rule.fact "role" [ subject; "clerk" ] ])
  in
  let old_p = Policy.create ~domain:"retail" v1_rules in
  let new_p = Policy.amend old_p v2_rules in
  (match Analysis.compare_policies ~probes old_p new_p with
  | Analysis.Tightened lost ->
    Format.printf "semantic diff: TIGHTENED; accesses lost:@.";
    List.iter (fun p -> Format.printf "  - %a@." Analysis.pp_probe p) lost
  | v -> Format.printf "semantic diff: %s@." (Analysis.verdict_name v));

  (* 2. The wire form that would ship to replicas. *)
  Format.printf "@.wire form (first 120 chars):@.  %s...@."
    (String.sub (Codec.policy_to_string new_p) 0 120);

  (* 3. Publish and watch enforcement. The update reaches only one replica
     directly; global consistency drags the rest forward at commit. *)
  let scenario = Scenario.retail ~n_servers:3 ~n_subjects:2 () in
  let cluster = scenario.Cloudtx_workload.Scenario.cluster in
  ignore
    (Cluster.publish cluster ~domain:"retail"
       ~delay:(`Fixed (fun s -> if String.equal s "server-1" then 0.5 else infinity))
       v2_rules);
  ignore (Cluster.run cluster);

  let run subject id =
    let txn =
      Scenario.spread_transaction scenario ~id ~subject ~queries:3 ()
    in
    let o =
      Manager.run_one cluster (Manager.config Scheme.Deferred Consistency.Global) txn
    in
    Format.printf "  %-8s under v2 -> %s (%s)@." subject
      (if o.Outcome.committed then "COMMIT" else "ABORT")
      (Outcome.reason_name o.Outcome.reason);
    o
  in
  Format.printf "@.enforcement under global consistency:@.";
  let o1 = run "clerk-1" "t1" in
  let o2 = run "clerk-2" "t2" in
  assert (not o1.Outcome.committed);
  assert o2.Outcome.committed;
  Format.printf
    "@.the rollout behaved exactly as the semantic diff predicted: only the@.";
  Format.printf "suspended clerk lost access.@."
