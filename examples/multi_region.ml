(* A two-region deployment: intra-region links are sub-millisecond, the
   region interconnect is a 25ms WAN hop, and the master policy server
   lives in the east.  Shows how topology interacts with the paper's
   consistency levels:

   - a transaction confined to the TM's region is fast under view
     consistency;
   - spanning regions costs WAN round-trips per query;
   - global consistency adds master round-trips — cheap for an east TM,
     expensive for a west one;
   - a policy update pushed only to the east propagates west by gossip.

   Run with: dune exec examples/multi_region.exe *)

module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Outcome = Cloudtx_protocol.Outcome
module Transport = Cloudtx_sim.Transport
module Network = Cloudtx_sim.Network
module Latency = Cloudtx_sim.Latency
module Scenario = Cloudtx_workload.Scenario
module Gossip = Cloudtx_workload.Gossip

let wan = Latency.Constant 25.

(* server-1/2 are east, server-3/4 west; the master is east. *)
let region server =
  match server with
  | "server-1" | "server-2" | "master" -> `East
  | "server-3" | "server-4" -> `West
  | _ -> `East

let wire_topology cluster ~tms_west ~tms_east =
  let network = Transport.network (Cluster.transport cluster) in
  let nodes = [ "server-1"; "server-2"; "server-3"; "server-4"; "master" ] in
  let all = nodes @ tms_west @ tms_east in
  let region_of n =
    if List.mem n tms_west then `West
    else if List.mem n tms_east then `East
    else region n
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j && region_of a <> region_of b then
            Network.set_link network a b wan)
        all)
    (List.map Fun.id all)
  |> ignore

let () =
  let scenario =
    Scenario.retail ~latency:(Latency.Constant 0.5) ~n_servers:4 ~n_subjects:1 ()
  in
  let cluster = scenario.Cloudtx_workload.Scenario.cluster in
  (* TMs t-east-* run in the east; t-west-* in the west. *)
  wire_topology cluster
    ~tms_west:[ "tm-t-west-local"; "tm-t-west-global" ]
    ~tms_east:[ "tm-t-east-local"; "tm-t-east-span"; "tm-t-east-global" ];

  let run id ~start ~queries ~level =
    let txn =
      Scenario.spread_transaction scenario ~id ~subject:"clerk-1" ~queries
        ~start ()
    in
    let o = Manager.run_one cluster (Manager.config Scheme.Deferred level) txn in
    Format.printf "  %-18s %-6s %-28s %7.1f ms (%s)@." id
      (Consistency.name level)
      (Printf.sprintf "%d queries starting at server-%d" queries (start + 1))
      (Outcome.latency o)
      (if o.Outcome.committed then "commit" else "abort")
  in
  Format.printf "topology: east = {server-1, server-2, master}, west = {server-3, server-4}@.";
  Format.printf "intra-region 0.5ms, interconnect 25ms@.@.";

  (* East TM, east-only data. *)
  run "t-east-local" ~start:0 ~queries:2 ~level:Consistency.View;
  (* East TM, data in both regions. *)
  run "t-east-span" ~start:0 ~queries:4 ~level:Consistency.View;
  (* West TM, west-only data: view consistency never crosses the WAN. *)
  run "t-west-local" ~start:2 ~queries:2 ~level:Consistency.View;
  (* Same, but global consistency must reach the east master. *)
  run "t-west-global" ~start:2 ~queries:2 ~level:Consistency.Global;
  (* An east TM pays almost nothing extra for global consistency. *)
  run "t-east-global" ~start:0 ~queries:2 ~level:Consistency.Global;

  (* Policy propagation: the master's push reaches the east only; gossip
     carries it across the interconnect. *)
  Format.printf "@.policy v2 pushed to the east replicas only...@.";
  ignore
    (Cluster.publish cluster ~domain:"retail"
       ~delay:(`Fixed (fun s -> if region s = `East then 0.5 else infinity))
       (Scenario.clerk_rules_refreshed ()));
  Gossip.start scenario ~period:20. ~rounds:60;
  ignore (Cluster.run cluster);
  Format.printf "after gossip:@.";
  List.iter
    (fun (server, version) ->
      Format.printf "  %-10s v%s@." server
        (match version with Some v -> string_of_int v | None -> "?"))
    (Gossip.versions scenario ~domain:"retail");
  assert (Gossip.converged scenario ~domain:"retail")
