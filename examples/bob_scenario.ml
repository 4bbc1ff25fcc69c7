(* The paper's Section II motivating example (Figure 1), reproduced on the
   simulator.

   Bob, a CompuMe sales representative, reads the customers database and
   receives a server-issued "read" credential (a capability).  Then two
   things happen behind his back: his operational-region credential is
   revoked, and the company tightens its policy from P to P' — but the
   eventual-consistency model leaves the inventory database on the old
   version.  Bob then presents his read credential to the inventory
   database.

   This example shows:
   - under VIEW consistency, the anomalous access COMMITS (all involved
     servers agree on the stale version — exactly the weakness the paper
     points out in Definition 2);
   - under GLOBAL consistency, 2PVC's validation fetches the master
     version, updates the stale replica and ABORTS the transaction;
   - with the revoked credential presented, commit-time re-validation
     catches the revocation even under view consistency.

   Run with: dune exec examples/bob_scenario.exe *)

module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Outcome = Cloudtx_protocol.Outcome
module Rule = Cloudtx_policy.Rule
module Ca = Cloudtx_policy.Ca
module Credential = Cloudtx_policy.Credential
module Value = Cloudtx_store.Value
module Query = Cloudtx_txn.Query
module Transaction = Cloudtx_txn.Transaction

let req_atoms =
  [ Rule.atom "req_action" [ Rule.v "a" ]; Rule.atom "req_item" [ Rule.v "i" ] ]

(* Policy P: a sales representative assigned to the region hosting the
   item, and currently located there, may access it.  Item-region
   facts are part of the policy (ground rules). *)
let policy_p =
  [
    Rule.rule
      (Rule.atom "permit" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ])
      ([
         Rule.atom "role" [ Rule.v "s"; Rule.c "sales_rep" ];
         Rule.atom "assigned" [ Rule.v "s"; Rule.v "r" ];
         Rule.atom "region_of" [ Rule.v "i"; Rule.v "r" ];
         Rule.atom "located" [ Rule.v "s"; Rule.v "r" ];
       ]
      @ req_atoms);
    Rule.rule (Rule.fact "region_of" [ "customer-recs"; "east" ]) [];
    Rule.rule (Rule.fact "region_of" [ "inventory-recs"; "east" ]) [];
  ]

(* Policy P': after the reorganization, east-region items belong to the
   north team; old capabilities are no longer honoured
   (accept_capabilities = false at publication). *)
let policy_p' =
  [
    Rule.rule
      (Rule.atom "permit" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ])
      ([
         Rule.atom "role" [ Rule.v "s"; Rule.c "sales_rep" ];
         Rule.atom "assigned" [ Rule.v "s"; Rule.c "north" ];
         Rule.atom "located" [ Rule.v "s"; Rule.c "north" ];
       ]
      @ req_atoms);
  ]

let build_cluster ca =
  Cluster.create ~seed:5L ~latency:(Cloudtx_sim.Latency.Constant 1.) ~cas:[ ca ]
    ~context_facts:[ Rule.fact "located" [ "bob"; "east" ] ]
    ~servers:
      [
        Cluster.server_spec ~name:"customers-db"
          ~items:[ ("customer-recs", Value.Int 250) ]
          ();
        Cluster.server_spec ~name:"inventory-db"
          ~items:[ ("inventory-recs", Value.Int 40) ]
          ();
      ]
    ~domains:[ ("compume", policy_p) ]
    ()

let banner title = Format.printf "@.=== %s ===@." title
let show outcome = Format.printf "  -> %a@." Outcome.pp outcome

let () =
  (* ---- Act 1: Bob reads the customers DB and earns a capability. ---- *)
  banner "Act 1: Bob's first access (policy P, credentials valid)";
  let ca = Ca.create "compume-ca" in
  let cluster = build_cluster ca in
  let year = 1e9 in
  let bob_role =
    Ca.issue ca ~id:"bob-rep" ~subject:"bob"
      ~facts:[ Rule.fact "role" [ "bob"; "sales_rep" ] ]
      ~now:0. ~ttl:year
  in
  let bob_region =
    Ca.issue ca ~id:"bob-opregion" ~subject:"bob"
      ~facts:[ Rule.fact "assigned" [ "bob"; "east" ] ]
      ~now:0. ~ttl:year
  in
  let read_customers =
    Transaction.make ~id:"t-read" ~subject:"bob"
      ~credentials:[ bob_role; bob_region ]
      [ Query.make ~id:"t-read-q1" ~server:"customers-db" ~reads:[ "customer-recs" ] () ]
  in
  let o1 =
    Manager.run_one cluster
      (Manager.config Scheme.Punctual Consistency.View)
      read_customers
  in
  show o1;
  assert o1.Outcome.committed;
  (* The customers DB issues Bob a read credential good for the inventory
     records too — the capability of Figure 1. *)
  let read_credential =
    Credential.make ~id:"bob-read-cap" ~subject:"bob" ~issuer:"customers-db"
      ~kind:(Credential.Access { action = "read"; item = "inventory-recs" })
      ~facts:[] ~issued_at:(Cluster.now cluster) ~expires_at:year
  in
  Format.printf "  customers-db issues Bob a read credential (capability)@.";

  (* ---- Act 2: reorganization. ---- *)
  banner "Act 2: Bob is reassigned; policy P -> P' (not fully propagated)";
  Ca.revoke ca "bob-opregion" ~at:(Cluster.now cluster);
  Format.printf "  CA revokes Bob's OpRegion credential@.";
  ignore
    (Cluster.publish cluster ~domain:"compume" ~accept_capabilities:false
       ~delay:(`Fixed (fun s -> if String.equal s "customers-db" then 0. else infinity))
       policy_p');
  ignore (Cluster.run cluster);
  Format.printf
    "  P' (v2) reaches customers-db; inventory-db still enforces P (v1)@.";

  (* ---- Act 3: the anomalous access, presenting only the capability. ---- *)
  let inventory_access credentials id =
    Transaction.make ~id ~subject:"bob" ~credentials
      [
        Query.make ~id:(id ^ "-q1") ~server:"inventory-db"
          ~reads:[ "inventory-recs" ] ();
      ]
  in
  banner "Act 3a: capability access under VIEW consistency";
  let o2 =
    Manager.run_one cluster
      (Manager.config Scheme.Deferred Consistency.View)
      (inventory_access [ read_credential ] "t-cap-view")
  in
  show o2;
  Format.printf
    "  UNSAFE: the stale inventory replica honoured the old capability —@.";
  Format.printf
    "  view consistency only checks agreement among the (stale) participants.@.";
  assert o2.Outcome.committed;

  banner "Act 3b: the same access under GLOBAL consistency";
  let o3 =
    Manager.run_one cluster
      (Manager.config Scheme.Deferred Consistency.Global)
      (inventory_access [ read_credential ] "t-cap-global")
  in
  show o3;
  Format.printf
    "  SAFE: 2PVC consulted the master, pushed P' to inventory-db, and the@.";
  Format.printf "  re-evaluated proof refused the capability.@.";
  assert (not o3.Outcome.committed);

  (* ---- Act 4: presenting the revoked credential set. ---- *)
  banner "Act 4: Bob retries with his original credentials (one revoked)";
  let o4 =
    Manager.run_one cluster
      (Manager.config Scheme.Deferred Consistency.View)
      (inventory_access [ bob_role; bob_region ] "t-revoked")
  in
  show o4;
  Format.printf
    "  SAFE: commit-time re-validation asked the CA's online status service,@.";
  Format.printf
    "  saw the revocation of OpRegion, and rolled the transaction back —@.";
  Format.printf "  even under view consistency.@.";
  assert (not o4.Outcome.committed);

  Format.printf
    "@.Summary: the Figure 1 anomaly slips through stale replicas that agree@.";
  Format.printf
    "with each other (view consistency) but is stopped by global consistency@.";
  Format.printf
    "and by credential re-validation — the paper's trusted-transaction rules.@."
