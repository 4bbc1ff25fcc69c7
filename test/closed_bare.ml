(* bench/e2e's closed-bare stream on seed 1 — 4 servers of 64 items, 3
   queries a transaction, 30 % of them writes, 8 clients, deferred/view —
   its first [n] transactions recorded in a binary journal, the journal's
   bytes returned. *)

module Journal = Cloudtx_obs.Journal
module Generator = Cloudtx_workload.Generator
module Scenario = Cloudtx_workload.Scenario

let journal n =
  let sc = Scenario.retail ~seed:1L ~n_servers:4 ~items_per_server:64 () in
  let params =
    {
      Generator.queries_per_txn = 3;
      write_ratio = 0.3;
      zipf_s = 0.;
      spread = `Round_robin;
    }
  in
  let rng = Cloudtx_sim.Splitmix.create 1_000_001L in
  let txns =
    Array.init n (fun i ->
        Generator.generate sc rng params ~id:(Printf.sprintf "t%d" i))
  in
  let journal =
    Cloudtx_sim.Transport.enable_journal ~format:Journal.Binary
      (Cloudtx_core.Cluster.transport sc.Scenario.cluster)
  in
  ignore
    (Cloudtx_workload.Experiment.run_closed sc
       (Cloudtx_core.Manager.config Cloudtx_protocol.Scheme.Deferred
          Cloudtx_protocol.Consistency.View)
       ~clients:8 ~total:n
       (fun ~i -> txns.(i)));
  Journal.to_string journal
