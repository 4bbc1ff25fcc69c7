module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Complexity = Cloudtx_core.Complexity
module Outcome = Cloudtx_protocol.Outcome
module Manager = Cloudtx_core.Manager
module Cluster = Cloudtx_core.Cluster
module Message = Cloudtx_protocol.Message
module Transport = Cloudtx_sim.Transport
module Registry = Cloudtx_obs.Registry

type staleness = Fresh | View_worst | Global_worst

let staleness_name = function
  | Fresh -> "fresh"
  | View_worst -> "view-worst"
  | Global_worst -> "global-worst"

let worst_for scheme (level : Consistency.level) =
  match (scheme, level) with
  | (Scheme.Deferred | Scheme.Punctual), Consistency.View -> View_worst
  | (Scheme.Deferred | Scheme.Punctual), Consistency.Global -> Global_worst
  | (Scheme.Incremental_punctual | Scheme.Continuous), _ -> Fresh

let protocol_messages registry =
  List.fold_left
    (fun acc label ->
      acc + Registry.counter registry "messages_total" [ ("type", label) ])
    0 Message.protocol_labels

type measurement = { outcome : Outcome.t; messages : int; proofs : int }

let run_case ?(n_servers = 4) ?(queries = 4) scheme level staleness =
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
  let before = protocol_messages registry in
  let outcome = Manager.run_one cluster (Manager.config scheme level) txn in
  let after = protocol_messages registry in
  {
    outcome;
    messages = after - before;
    proofs = outcome.Outcome.proofs_evaluated;
  }

let matrix_rows ~n ~u =
  List.concat_map
    (fun scheme ->
      List.map
        (fun level ->
          let staleness = worst_for scheme level in
          let m = run_case ~n_servers:n ~queries:u scheme level staleness in
          let r = max 1 m.outcome.Outcome.commit_rounds in
          [
            Scheme.name scheme;
            Consistency.name level;
            staleness_name staleness;
            Complexity.formula scheme level `Messages;
            string_of_int (Complexity.messages scheme level ~n ~u ~r);
            string_of_int m.messages;
            Complexity.formula scheme level `Proofs;
            string_of_int (Complexity.proofs scheme level ~n ~u ~r);
            string_of_int m.proofs;
          ])
        [ Consistency.View; Consistency.Global ])
    Scheme.all
