module Transport = Cloudtx_sim.Transport
module Splitmix = Cloudtx_sim.Splitmix
module Cluster = Cloudtx_core.Cluster
module Participant = Cloudtx_core.Participant
module Message = Cloudtx_protocol.Message
module Server = Cloudtx_store.Server
module Replica = Cloudtx_policy.Replica

let start (s : Scenario.t) ~period ~rounds =
  if period <= 0. then invalid_arg "Gossip.start: period <= 0";
  let cluster = s.Scenario.cluster in
  let transport = Cluster.transport cluster in
  let rng = Transport.fork_rng transport in
  let servers = Array.of_list s.Scenario.servers in
  if Array.length servers < 2 then invalid_arg "Gossip.start: need two servers";
  for i = 1 to rounds do
    Transport.at transport ~delay:(period *. float_of_int i) (fun () ->
        let a = Splitmix.int rng (Array.length servers) in
        let b =
          (* A distinct peer. *)
          let shift = 1 + Splitmix.int rng (Array.length servers - 1) in
          (a + shift) mod Array.length servers
        in
        let src = servers.(a) and dst = servers.(b) in
        let replica = Server.replica (Participant.server (Cluster.participant cluster src)) in
        List.iter
          (fun domain ->
            match Replica.get replica ~domain with
            | Some policy ->
              Transport.send transport ~src ~dst (Message.Propagate_policy { policy })
            | None -> ())
          (Replica.domains replica))
  done

let versions (s : Scenario.t) ~domain =
  List.map
    (fun name ->
      let replica =
        Server.replica (Participant.server (Cluster.participant s.Scenario.cluster name))
      in
      (name, Replica.version replica ~domain))
    s.Scenario.servers

let converged s ~domain =
  match versions s ~domain with
  | [] -> true
  | (_, first) :: rest -> List.for_all (fun (_, v) -> v = first) rest
