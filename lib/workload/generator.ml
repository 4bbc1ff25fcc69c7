module Splitmix = Cloudtx_sim.Splitmix
module Transaction = Cloudtx_txn.Transaction
module Query = Cloudtx_txn.Query
module Value = Cloudtx_store.Value

type params = {
  queries_per_txn : int;
  write_ratio : float;
  zipf_s : float;
  spread : [ `Round_robin | `Random ];
}

let default =
  { queries_per_txn = 4; write_ratio = 0.5; zipf_s = 0.; spread = `Round_robin }

(* Each server's keys and Zipf sampler, built once per scenario and
   skew. *)
let samplers (scenario : Scenario.t) s =
  match Hashtbl.find_opt scenario.Scenario.samplers s with
  | Some z -> z
  | None ->
    let z =
      Array.of_list
        (List.map
           (fun server ->
             let keys = Array.of_list (scenario.Scenario.keys_of server) in
             (keys, Zipf.create ~n:(Array.length keys) ~s))
           scenario.Scenario.servers)
    in
    Hashtbl.add scenario.Scenario.samplers s z;
    z

let generate (scenario : Scenario.t) rng params ~id =
  if params.queries_per_txn <= 0 then
    invalid_arg "Generator.generate: queries_per_txn <= 0";
  let subjects = Array.of_list scenario.Scenario.subjects in
  let servers = Array.of_list scenario.Scenario.servers in
  let subject = Splitmix.choice rng subjects in
  let start = Splitmix.int rng (Array.length servers) in
  let zipfs = samplers scenario params.zipf_s in
  let queries =
    List.init params.queries_per_txn (fun i ->
        let si =
          match params.spread with
          | `Round_robin -> (start + i) mod Array.length servers
          | `Random -> Splitmix.int rng (Array.length servers)
        in
        let keys, zipf = zipfs.(si) in
        let key () = keys.(Zipf.sample zipf rng) in
        let is_write = Splitmix.bool rng ~p:params.write_ratio in
        let qid = Printf.sprintf "%s-q%d" id (i + 1) in
        if is_write then
          Query.make ~id:qid ~server:servers.(si)
            ~writes:[ (key (), Value.Set (Value.Int (Splitmix.int rng 100))) ]
            ()
        else Query.make ~id:qid ~server:servers.(si) ~reads:[ key () ] ())
  in
  Transaction.make ~id ~subject
    ~credentials:(scenario.Scenario.credentials_of subject)
    queries

let arrival_times rng ~rate ~horizon =
  if rate <= 0. then invalid_arg "Generator.arrival_times: rate <= 0";
  let rec go t acc =
    let t = t +. Splitmix.exponential rng ~mean:(1. /. rate) in
    if t >= horizon then List.rev acc else go t (t :: acc)
  in
  go 0. []
