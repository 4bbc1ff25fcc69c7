module Running_stats = Cloudtx_metrics.Running_stats
module Sample_set = Cloudtx_metrics.Sample_set
module Transport = Cloudtx_sim.Transport
module Engine = Cloudtx_sim.Engine
module Manager = Cloudtx_core.Manager
module Outcome = Cloudtx_protocol.Outcome
module Cluster = Cloudtx_core.Cluster
module Transaction = Cloudtx_txn.Transaction

type stats = {
  outcomes : Outcome.t list;
  committed : int;
  aborted : int;
  latency_ms : Sample_set.t;
  proofs : Running_stats.t;
  protocol_messages : Running_stats.t;
  commit_rounds : Running_stats.t;
  restarts : int;
}

let commit_ratio stats =
  let total = stats.committed + stats.aborted in
  if total = 0 then 0. else float_of_int stats.committed /. float_of_int total

let empty () =
  {
    outcomes = [];
    committed = 0;
    aborted = 0;
    latency_ms = Sample_set.create ();
    proofs = Running_stats.create ();
    protocol_messages = Running_stats.create ();
    commit_rounds = Running_stats.create ();
    restarts = 0;
  }

let fold_outcome stats ?(messages = -1) (o : Outcome.t) =
  Sample_set.add stats.latency_ms (Outcome.latency o);
  Running_stats.add stats.proofs (float_of_int o.Outcome.proofs_evaluated);
  if messages >= 0 then
    Running_stats.add stats.protocol_messages (float_of_int messages);
  Running_stats.add stats.commit_rounds (float_of_int o.Outcome.commit_rounds);
  {
    stats with
    outcomes = o :: stats.outcomes;
    committed = (stats.committed + if o.Outcome.committed then 1 else 0);
    aborted = (stats.aborted + if o.Outcome.committed then 0 else 1);
  }

let run_sequential (scenario : Scenario.t) config ~n make =
  let cluster = scenario.Scenario.cluster in
  let transport = Cluster.transport cluster in
  let engine = Transport.engine transport in
  let registry = Transport.enable_metrics transport in
  let stats = ref (empty ()) in
  for i = 0 to n - 1 do
    let txn = make ~i in
    let before = Table1.protocol_messages registry in
    let result = ref None in
    Manager.submit cluster config txn ~on_done:(fun o -> result := Some o);
    (* Step the engine just far enough: background churn interleaves at
       its own instants, later events stay queued for the next txn. *)
    while !result = None && Engine.step engine do
      ()
    done;
    match !result with
    | None ->
      failwith
        (Printf.sprintf "Experiment: %s never completed" txn.Transaction.id)
    | Some o ->
      let after = Table1.protocol_messages registry in
      stats := fold_outcome !stats ~messages:(after - before) o
  done;
  let s = !stats in
  { s with outcomes = List.rev s.outcomes }

let run_open ?(max_restarts = 0) (scenario : Scenario.t) config ~arrivals make =
  let cluster = scenario.Scenario.cluster in
  let transport = Cluster.transport cluster in
  let results = ref [] in
  let restarts = ref 0 in
  (* On a wait-die abort, resubmit with a fresh id but the original start
     timestamp (wait-die aging). *)
  let rec submit ~ts ~attempt (txn : Transaction.t) =
    Manager.submit ?ts cluster config txn ~on_done:(fun o ->
        if
          (not o.Outcome.committed)
          && o.Outcome.reason = Outcome.Wait_die
          && attempt < max_restarts
        then begin
          incr restarts;
          let original_ts =
            Option.value ~default:o.Outcome.submitted_at ts
          in
          let retry =
            Transaction.make
              ~id:(Printf.sprintf "%s-r%d" txn.Transaction.id (attempt + 1))
              ~subject:txn.Transaction.subject
              ~credentials:txn.Transaction.credentials txn.Transaction.queries
          in
          Transport.at transport ~delay:(0.5 +. (0.5 *. float_of_int attempt))
            (fun () -> submit ~ts:(Some original_ts) ~attempt:(attempt + 1) retry)
        end
        else results := o :: !results)
  in
  List.iteri
    (fun i at ->
      Transport.at transport ~delay:at (fun () ->
          submit ~ts:None ~attempt:0 (make ~i)))
    arrivals;
  ignore (Cluster.run cluster);
  let outcomes = List.rev !results in
  let stats =
    List.fold_left (fun acc o -> fold_outcome acc o) (empty ()) outcomes
  in
  { stats with outcomes; restarts = !restarts }

let run_closed (scenario : Scenario.t) config ~clients ~total make =
  if clients <= 0 then invalid_arg "Experiment.run_closed: clients <= 0";
  let cluster = scenario.Scenario.cluster in
  let transport = Cluster.transport cluster in
  let results = ref [] in
  let issued = ref 0 in
  let finished_at = ref 0. in
  let rec client_issue () =
    if !issued < total then begin
      let i = !issued in
      incr issued;
      Manager.submit cluster config (make ~i) ~on_done:(fun o ->
          results := o :: !results;
          finished_at := Transport.now transport;
          client_issue ())
    end
  in
  let started_at = Transport.now transport in
  for c = 0 to Stdlib.min clients total - 1 do
    (* Stagger the first submissions a hair so client c's first query does
       not collide with identical timestamps. *)
    Transport.at transport ~delay:(0.01 *. float_of_int c) client_issue
  done;
  ignore (Cluster.run cluster);
  let outcomes = List.rev !results in
  let stats =
    List.fold_left (fun acc o -> fold_outcome acc o) (empty ()) outcomes
  in
  let span = !finished_at -. started_at in
  let throughput = if span <= 0. then 0. else float_of_int total /. span *. 1000. in
  ({ stats with outcomes }, throughput)
