module Cluster = Cloudtx_core.Cluster
module Rule = Cloudtx_policy.Rule
module Ca = Cloudtx_policy.Ca
module Credential = Cloudtx_policy.Credential
module Transaction = Cloudtx_txn.Transaction
module Query = Cloudtx_txn.Query
module Value = Cloudtx_store.Value
module Integrity = Cloudtx_store.Integrity

type t = {
  cluster : Cluster.t;
  domain : string;
  subjects : string list;
  credentials_of : string -> Credential.t list;
  servers : string list;
  keys_of : string -> string list;
  ca : Ca.t;
}

let permit_head = Rule.atom "permit" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ]

(* Request facts (req_action, req_item) bind the head's action and item
   variables; see {!Cloudtx_policy.Proof.evaluate}. *)
let request_atoms = [ Rule.atom "req_action" [ Rule.v "a" ]; Rule.atom "req_item" [ Rule.v "i" ] ]

let clerk_rules =
  [
    Rule.rule permit_head
      (Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ] :: request_atoms);
  ]

let refresh_counter = ref 0

let clerk_rules_refreshed () =
  (* A second, redundant derivation path: semantically the same grants,
     but a textually fresh rule set for the version bump. The marker
     predicate changes each call so repeated refreshes stay distinct. *)
  incr refresh_counter;
  let marker = Printf.sprintf "rev%d" !refresh_counter in
  [
    Rule.rule permit_head
      (Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ] :: request_atoms);
    Rule.rule
      (Rule.atom "revision" [ Rule.c marker; Rule.v "s" ])
      [ Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ] ];
  ]

let suspend_rules ~subject =
  [
    Rule.rule_literals permit_head
      (Rule.Pos (Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ])
       :: Rule.Neg (Rule.atom "suspended" [ Rule.v "s" ])
       :: List.map (fun a -> Rule.Pos a) request_atoms);
    Rule.rule (Rule.fact "suspended" [ subject ]) [];
  ]

let senior_write_rules =
  [
    Rule.rule
      (Rule.atom "permit" [ Rule.v "s"; Rule.c "read"; Rule.v "i" ])
      (Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ]
      :: [ Rule.atom "req_item" [ Rule.v "i" ] ]);
    Rule.rule
      (Rule.atom "permit" [ Rule.v "s"; Rule.c "write"; Rule.v "i" ])
      (Rule.atom "role" [ Rule.v "s"; Rule.c "senior" ]
      :: [ Rule.atom "req_item" [ Rule.v "i" ] ]);
  ]

let server_name i = Printf.sprintf "server-%d" (i + 1)
let key_name si ki = Printf.sprintf "s%d-k%d" (si + 1) (ki + 1)

let retail ?(seed = 7L) ?(latency = Cloudtx_sim.Latency.lan) ?ocsp_latency
    ?proof_cache ?variant ?dedup ?inquiry_timeout ?(n_servers = 4)
    ?(items_per_server = 8) ?(n_subjects = 4) () =
  let domain = "retail" in
  let ca = Ca.create "corp-ca" in
  (* Built once: [Generator.generate] asks for every server's keys on
     every transaction. *)
  let keys =
    Array.init n_servers (fun si -> List.init items_per_server (key_name si))
  in
  let specs =
    List.init n_servers (fun si ->
        let items = List.map (fun k -> (k, Value.Int 100)) keys.(si) in
        let constraints = List.map Integrity.non_negative keys.(si) in
        Cluster.server_spec ~name:(server_name si) ~constraints ~items ())
  in
  let cluster =
    Cluster.create ~seed ~latency ?ocsp_latency ?proof_cache ?variant ?dedup
      ?inquiry_timeout ~cas:[ ca ] ~servers:specs
      ~domains:[ (domain, clerk_rules) ]
      ()
  in
  let subjects = List.init n_subjects (fun i -> Printf.sprintf "clerk-%d" (i + 1)) in
  let year = 365. *. 24. *. 3600. *. 1000. in
  let creds =
    List.map
      (fun subject ->
        let cred =
          Ca.issue ca ~id:(subject ^ "-role") ~subject
            ~facts:[ Rule.fact "role" [ subject; "clerk" ] ]
            ~now:0. ~ttl:year
        in
        (subject, [ cred ]))
      subjects
  in
  let servers = List.init n_servers server_name in
  let keys_of name =
    let rec index i = function
      | [] -> invalid_arg (Printf.sprintf "Scenario.keys_of: unknown server %s" name)
      | s :: rest -> if String.equal s name then i else index (i + 1) rest
    in
    keys.(index 0 servers)
  in
  {
    cluster;
    domain;
    subjects;
    credentials_of =
      (fun subject ->
        match List.assoc_opt subject creds with
        | Some cs -> cs
        | None -> invalid_arg (Printf.sprintf "Scenario: unknown subject %s" subject));
    servers;
    keys_of;
    ca;
  }

let spread_transaction t ~id ~subject ~queries ?(start = 0) ?(writes = true) () =
  if queries <= 0 then invalid_arg "Scenario.spread_transaction: queries <= 0";
  let n = List.length t.servers in
  let qs =
    List.init queries (fun i ->
        let server = List.nth t.servers ((start + i) mod n) in
        match t.keys_of server with
        | k1 :: k2 :: _ ->
          let write_list =
            if writes then [ (k2, Value.Set (Value.Int (90 - i))) ] else []
          in
          Query.make
            ~id:(Printf.sprintf "%s-q%d" id (i + 1))
            ~server ~reads:[ k1 ] ~writes:write_list ()
        | _ -> invalid_arg "Scenario.spread_transaction: server too small")
  in
  Transaction.make ~id ~subject ~credentials:(t.credentials_of subject) qs
