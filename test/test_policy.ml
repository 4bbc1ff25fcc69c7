(* Unit and property tests for the policy library: rules, inference,
   credentials, CAs, policies, versioning, replicas and proofs. *)

module Rule = Cloudtx_policy.Rule
module Infer = Cloudtx_policy.Infer
module Credential = Cloudtx_policy.Credential
module Ca = Cloudtx_policy.Ca
module Policy = Cloudtx_policy.Policy
module Admin = Cloudtx_policy.Admin
module Replica = Cloudtx_policy.Replica
module Proof = Cloudtx_policy.Proof

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

let test_rule_construction () =
  let r =
    Rule.rule
      (Rule.atom "p" [ Rule.v "x" ])
      [ Rule.atom "q" [ Rule.v "x"; Rule.c "k" ] ]
  in
  Alcotest.(check string) "pretty" "p(X) :- q(X, k)." (Rule.to_string r);
  Alcotest.(check bool) "fact is ground" true (Rule.is_ground (Rule.fact "f" [ "a" ]));
  Alcotest.(check bool) "atom with var not ground" false
    (Rule.is_ground (Rule.atom "f" [ Rule.v "x" ]))

let test_rule_range_restriction () =
  Alcotest.check_raises "unbound head var"
    (Invalid_argument "Rule.rule: head variable x not bound in body") (fun () ->
      ignore (Rule.rule (Rule.atom "p" [ Rule.v "x" ]) []))

let test_fact_rejects_vars () =
  Alcotest.(check bool) "equal" true
    (Rule.atom_equal (Rule.fact "p" [ "a" ]) (Rule.atom "p" [ Rule.c "a" ]));
  Alcotest.(check bool) "var differs from const" false
    (Rule.atom_equal (Rule.atom "p" [ Rule.v "a" ]) (Rule.atom "p" [ Rule.c "a" ]))

(* ------------------------------------------------------------------ *)
(* Inference                                                           *)
(* ------------------------------------------------------------------ *)

let test_infer_direct () =
  let rules =
    [
      Rule.rule
        (Rule.atom "permit" [ Rule.v "s" ])
        [ Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ] ];
    ]
  in
  let facts = [ Rule.fact "role" [ "bob"; "clerk" ] ] in
  Alcotest.(check bool) "derives" true
    (Infer.satisfies ~rules ~facts (Rule.fact "permit" [ "bob" ]));
  Alcotest.(check bool) "does not over-derive" false
    (Infer.satisfies ~rules ~facts (Rule.fact "permit" [ "eve" ]))

let test_infer_join () =
  (* permit(S, I) :- assigned(S, R), hosted(I, R): a join on R. *)
  let rules =
    [
      Rule.rule
        (Rule.atom "permit" [ Rule.v "s"; Rule.v "i" ])
        [
          Rule.atom "assigned" [ Rule.v "s"; Rule.v "r" ];
          Rule.atom "hosted" [ Rule.v "i"; Rule.v "r" ];
        ];
    ]
  in
  let facts =
    [
      Rule.fact "assigned" [ "bob"; "east" ];
      Rule.fact "hosted" [ "db1"; "east" ];
      Rule.fact "hosted" [ "db2"; "west" ];
    ]
  in
  Alcotest.(check bool) "same region" true
    (Infer.satisfies ~rules ~facts (Rule.fact "permit" [ "bob"; "db1" ]));
  Alcotest.(check bool) "cross region denied" false
    (Infer.satisfies ~rules ~facts (Rule.fact "permit" [ "bob"; "db2" ]))

let test_infer_transitive_closure () =
  let rules =
    [
      Rule.rule
        (Rule.atom "reach" [ Rule.v "x"; Rule.v "y" ])
        [ Rule.atom "edge" [ Rule.v "x"; Rule.v "y" ] ];
      Rule.rule
        (Rule.atom "reach" [ Rule.v "x"; Rule.v "z" ])
        [
          Rule.atom "reach" [ Rule.v "x"; Rule.v "y" ];
          Rule.atom "edge" [ Rule.v "y"; Rule.v "z" ];
        ];
    ]
  in
  let facts =
    [
      Rule.fact "edge" [ "a"; "b" ];
      Rule.fact "edge" [ "b"; "c" ];
      Rule.fact "edge" [ "c"; "d" ];
    ]
  in
  let db = Infer.saturate ~rules ~facts in
  Alcotest.(check bool) "a reaches d" true
    (Infer.holds db (Rule.fact "reach" [ "a"; "d" ]));
  Alcotest.(check bool) "d reaches nothing" false
    (Infer.holds db (Rule.fact "reach" [ "d"; "a" ]));
  (* 3 edges + 6 reach pairs = 9 facts. *)
  Alcotest.(check int) "fact count" 9 (Infer.size db)

let test_infer_query_bindings () =
  let facts =
    [ Rule.fact "role" [ "bob"; "clerk" ]; Rule.fact "role" [ "amy"; "boss" ] ]
  in
  let db = Infer.saturate ~rules:[] ~facts in
  let bindings = Infer.query db (Rule.atom "role" [ Rule.v "who"; Rule.c "clerk" ]) in
  Alcotest.(check int) "one binding" 1 (List.length bindings);
  Alcotest.(check (option string)) "bob" (Some "bob")
    (List.assoc_opt "who" (List.hd bindings))

let test_infer_nonground_errors () =
  let db = Infer.saturate ~rules:[] ~facts:[] in
  Alcotest.check_raises "holds nonground"
    (Invalid_argument "Infer.holds: query atom must be ground") (fun () ->
      ignore (Infer.holds db (Rule.atom "p" [ Rule.v "x" ])));
  Alcotest.check_raises "saturate nonground fact"
    (Invalid_argument "Infer: non-ground fact (variable x)") (fun () ->
      ignore (Infer.saturate ~rules:[] ~facts:[ Rule.atom "p" [ Rule.v "x" ] ]))

let prop_infer_monotone =
  (* Adding facts never invalidates a derivation. *)
  let gen_fact =
    QCheck.Gen.(
      map2
        (fun p a -> Rule.fact (Printf.sprintf "p%d" p) [ Printf.sprintf "c%d" a ])
        (0 -- 3) (0 -- 5))
  in
  QCheck.Test.make ~name:"inference is monotone" ~count:100
    QCheck.(
      pair
        (make Gen.(list_size (1 -- 10) gen_fact))
        (make Gen.(list_size (0 -- 5) gen_fact)))
    (fun (base, extra) ->
      let rules =
        [
          Rule.rule
            (Rule.atom "goal" [ Rule.v "x" ])
            [ Rule.atom "p0" [ Rule.v "x" ]; Rule.atom "p1" [ Rule.v "x" ] ];
        ]
      in
      let derived_before = Infer.facts (Infer.saturate ~rules ~facts:base) in
      let db_after = Infer.saturate ~rules ~facts:(base @ extra) in
      List.for_all (fun f -> Infer.holds db_after f) derived_before)

(* ------------------------------------------------------------------ *)
(* Negation (stratified)                                               *)
(* ------------------------------------------------------------------ *)

let test_negation_basic () =
  (* permit(S) :- role(S, clerk), not suspended(S). *)
  let rules =
    [
      Rule.rule_literals
        (Rule.atom "permit" [ Rule.v "s" ])
        [
          Rule.Pos (Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ]);
          Rule.Neg (Rule.atom "suspended" [ Rule.v "s" ]);
        ];
    ]
  in
  let base = [ Rule.fact "role" [ "bob"; "clerk" ]; Rule.fact "role" [ "amy"; "clerk" ] ] in
  let with_suspension = Rule.fact "suspended" [ "amy" ] :: base in
  Alcotest.(check bool) "bob permitted" true
    (Infer.satisfies ~rules ~facts:with_suspension (Rule.fact "permit" [ "bob" ]));
  Alcotest.(check bool) "amy suspended" false
    (Infer.satisfies ~rules ~facts:with_suspension (Rule.fact "permit" [ "amy" ]));
  Alcotest.(check bool) "amy fine without suspension" true
    (Infer.satisfies ~rules ~facts:base (Rule.fact "permit" [ "amy" ]))

let test_negation_stratified_through_derivation () =
  (* suspended is itself derived; permit sits a stratum above it. *)
  let rules =
    [
      Rule.rule
        (Rule.atom "suspended" [ Rule.v "s" ])
        [ Rule.atom "flagged" [ Rule.v "s"; Rule.c "fraud" ] ];
      Rule.rule_literals
        (Rule.atom "permit" [ Rule.v "s" ])
        [
          Rule.Pos (Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ]);
          Rule.Neg (Rule.atom "suspended" [ Rule.v "s" ]);
        ];
    ]
  in
  let facts =
    [
      Rule.fact "role" [ "bob"; "clerk" ];
      Rule.fact "role" [ "amy"; "clerk" ];
      Rule.fact "flagged" [ "amy"; "fraud" ];
    ]
  in
  Alcotest.(check bool) "bob permitted" true
    (Infer.satisfies ~rules ~facts (Rule.fact "permit" [ "bob" ]));
  Alcotest.(check bool) "amy denied via derived suspension" false
    (Infer.satisfies ~rules ~facts (Rule.fact "permit" [ "amy" ]))

let test_negation_unstratifiable_rejected () =
  let rules =
    [
      Rule.rule_literals
        (Rule.atom "p" [ Rule.v "x" ])
        [
          Rule.Pos (Rule.atom "base" [ Rule.v "x" ]);
          Rule.Neg (Rule.atom "p" [ Rule.v "x" ]);
        ];
    ]
  in
  Alcotest.check_raises "negation cycle"
    (Invalid_argument "Infer: rules are not stratifiable (negation cycle)")
    (fun () ->
      ignore (Infer.saturate ~rules ~facts:[ Rule.fact "base" [ "a" ] ]))

let test_negation_safety () =
  (* A negated literal may not introduce new variables. *)
  Alcotest.check_raises "unsafe negation"
    (Invalid_argument "Rule.rule: negated variable y not bound in body")
    (fun () ->
      ignore
        (Rule.rule_literals
           (Rule.atom "p" [ Rule.v "x" ])
           [
             Rule.Pos (Rule.atom "q" [ Rule.v "x" ]);
             Rule.Neg (Rule.atom "r" [ Rule.v "y" ]);
           ]))

let test_negation_in_policy () =
  (* A policy with a suspension list: the proof machinery sees denials for
     suspended subjects only. *)
  let policy =
    Policy.create ~domain:"d"
      [
        Rule.rule_literals
          (Rule.atom "permit" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ])
          [
            Rule.Pos (Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ]);
            Rule.Pos (Rule.atom "req_action" [ Rule.v "a" ]);
            Rule.Pos (Rule.atom "req_item" [ Rule.v "i" ]);
            Rule.Neg (Rule.atom "suspended" [ Rule.v "s" ]);
          ];
        Rule.rule (Rule.fact "suspended" [ "amy" ]) [];
      ]
  in
  let facts subject =
    [
      Rule.fact "role" [ subject; "clerk" ];
      Rule.fact "req_action" [ "read" ];
      Rule.fact "req_item" [ "x" ];
    ]
  in
  Alcotest.(check bool) "bob permitted" true
    (Policy.permits policy ~facts:(facts "bob") ~subject:"bob" ~action:"read" ~item:"x");
  Alcotest.(check bool) "amy denied" false
    (Policy.permits policy ~facts:(facts "amy") ~subject:"amy" ~action:"read" ~item:"x")

(* ------------------------------------------------------------------ *)
(* Credentials                                                         *)
(* ------------------------------------------------------------------ *)

let cred ?(issued_at = 0.) ?(expires_at = 100.) ?(issuer = "ca") () =
  Credential.make ~id:"c1" ~subject:"bob" ~issuer ~kind:Credential.Attribute
    ~facts:[ Rule.fact "role" [ "bob"; "clerk" ] ]
    ~issued_at ~expires_at

let test_credential_window () =
  let c = cred () in
  Alcotest.(check bool) "valid inside" true
    (Credential.syntactically_valid c ~at:50. = Ok ());
  Alcotest.(check bool) "not yet valid" true
    (Credential.syntactically_valid c ~at:(-1.) = Error Credential.Not_yet_valid);
  Alcotest.(check bool) "expired at omega" true
    (Credential.syntactically_valid c ~at:100. = Error Credential.Expired)

let test_credential_forgery () =
  let c = cred () in
  Alcotest.(check bool) "genuine" true (Credential.signature_valid c);
  let forged = Credential.forge c ~facts:[ Rule.fact "role" [ "bob"; "admin" ] ] in
  Alcotest.(check bool) "forged" false (Credential.signature_valid forged);
  Alcotest.(check bool) "forgery caught" true
    (Credential.syntactically_valid forged ~at:50.
    = Error Credential.Bad_signature)

let test_credential_bad_interval () =
  Alcotest.check_raises "empty interval"
    (Invalid_argument "Credential.make: expires_at must follow issued_at")
    (fun () -> ignore (cred ~issued_at:10. ~expires_at:10. ()))

(* ------------------------------------------------------------------ *)
(* Certificate authorities                                             *)
(* ------------------------------------------------------------------ *)

let test_ca_lifecycle () =
  let ca = Ca.create "corp" in
  let c = Ca.issue ca ~id:"bob-role" ~subject:"bob" ~facts:[] ~now:0. ~ttl:100. in
  Alcotest.(check bool) "good" true (Ca.status ca "bob-role" ~at:10. = Ca.Good);
  Alcotest.(check bool) "unknown" true (Ca.status ca "nope" ~at:10. = Ca.Unknown);
  Alcotest.(check bool) "semantically valid" true
    (Ca.semantically_valid ca c ~at:10.);
  Ca.revoke ca "bob-role" ~at:50.;
  Alcotest.(check bool) "still good before" true
    (Ca.status ca "bob-role" ~at:49.9 = Ca.Good);
  Alcotest.(check bool) "revoked after" true
    (Ca.status ca "bob-role" ~at:50. = Ca.Revoked 50.);
  Alcotest.(check bool) "semantically invalid" false
    (Ca.semantically_valid ca c ~at:60.);
  Alcotest.(check int) "issued count" 1 (Ca.issued_count ca)

let test_ca_revoke_unknown () =
  let ca = Ca.create "corp" in
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Ca.revoke: corp never issued ghost") (fun () ->
      Ca.revoke ca "ghost" ~at:1.)

let test_ca_double_revoke_keeps_earlier () =
  let ca = Ca.create "corp" in
  ignore (Ca.issue ca ~id:"x" ~subject:"s" ~facts:[] ~now:0. ~ttl:100.);
  Ca.revoke ca "x" ~at:30.;
  Ca.revoke ca "x" ~at:60.;
  Alcotest.(check bool) "earlier wins" true (Ca.status ca "x" ~at:40. = Ca.Revoked 30.)

(* ------------------------------------------------------------------ *)
(* Policies, admin, replicas                                           *)
(* ------------------------------------------------------------------ *)

let clerk_policy ?accept_capabilities () =
  Policy.create ?accept_capabilities ~domain:"app"
    [
      Rule.rule
        (Rule.atom "permit" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ])
        [
          Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ];
          Rule.atom "req_action" [ Rule.v "a" ];
          Rule.atom "req_item" [ Rule.v "i" ];
        ];
    ]

let test_policy_permits () =
  let p = clerk_policy () in
  let facts =
    [
      Rule.fact "role" [ "bob"; "clerk" ];
      Rule.fact "req_action" [ "read" ];
      Rule.fact "req_item" [ "db1" ];
    ]
  in
  Alcotest.(check bool) "grant" true
    (Policy.permits p ~facts ~subject:"bob" ~action:"read" ~item:"db1");
  Alcotest.(check bool) "deny other subject" false
    (Policy.permits p ~facts ~subject:"eve" ~action:"read" ~item:"db1")

let test_policy_capabilities_toggle () =
  let facts = [ Policy.capability_fact ~subject:"bob" ~action:"read" ~item:"db1" ] in
  let open_p = clerk_policy () in
  let closed_p = clerk_policy ~accept_capabilities:false () in
  Alcotest.(check bool) "capability accepted" true
    (Policy.permits open_p ~facts ~subject:"bob" ~action:"read" ~item:"db1");
  Alcotest.(check bool) "capability refused" false
    (Policy.permits closed_p ~facts ~subject:"bob" ~action:"read" ~item:"db1")

let test_policy_permits_all () =
  let p = clerk_policy () in
  let facts =
    [
      Rule.fact "role" [ "bob"; "clerk" ];
      Rule.fact "req_action" [ "read" ];
      Rule.fact "req_item" [ "db1" ];
      (* db2 has no req_item fact, so its goal cannot derive. *)
    ]
  in
  Alcotest.(check (list string))
    "denied items" [ "db2" ]
    (Policy.permits_all p ~facts ~subject:"bob" ~action:"read"
       ~items:[ "db1"; "db2" ])

let test_policy_versioning () =
  let p = clerk_policy () in
  Alcotest.(check int) "v1" 1 p.Policy.version;
  let p2 = Policy.amend p [] in
  Alcotest.(check int) "v2" 2 p2.Policy.version;
  Alcotest.(check bool) "flag inherited" true p2.Policy.accept_capabilities;
  let p3 = Policy.amend ~accept_capabilities:false p2 [] in
  Alcotest.(check bool) "flag overridden" false p3.Policy.accept_capabilities

let test_admin_history () =
  let a = Admin.create ~domain:"app" [] in
  Alcotest.(check int) "starts at 1" 1 (Admin.latest_version a);
  let _v2 = Admin.publish a [] in
  let v3 = Admin.publish a [] in
  Alcotest.(check int) "latest" 3 (Admin.latest_version a);
  Alcotest.(check int) "history" 3 (Admin.history_length a);
  Alcotest.(check int) "get v2" 2 ((Admin.get a 2 |> Option.get).Policy.version);
  Alcotest.(check bool) "latest body" true (Admin.latest a == v3);
  Alcotest.(check bool) "missing version" true (Admin.get a 99 = None)

let test_replica_monotone () =
  let r = Replica.create () in
  let a = Admin.create ~domain:"app" [] in
  let v1 = Admin.latest a in
  let v2 = Admin.publish a [] in
  Alcotest.(check bool) "install v1" true (Replica.install r v1 = `Installed);
  ignore (Policy.permits v1 ~facts:[] ~subject:"s" ~action:"a" ~item:"i");
  Alcotest.(check bool) "evaluation compiled v1" true (Option.is_some v1.Policy.plan);
  Alcotest.(check bool) "install v2" true (Replica.install r v2 = `Installed);
  Alcotest.(check bool) "superseded v1 dropped its plan" true (v1.Policy.plan = None);
  Alcotest.(check bool) "v1 is stale" true (Replica.install r v1 = `Stale);
  Alcotest.(check (option int)) "holds v2" (Some 2) (Replica.version r ~domain:"app");
  Alcotest.(check (list string)) "domains" [ "app" ] (Replica.domains r)

(* ------------------------------------------------------------------ *)
(* Policy analysis                                                     *)
(* ------------------------------------------------------------------ *)

module Analysis = Cloudtx_policy.Analysis

let analysis_probes =
  Analysis.probe_space ~subjects:[ "bob"; "eve" ] ~actions:[ "read"; "write" ]
    ~items:[ "db1" ]
    ~facts_for:(fun subject ->
      if String.equal subject "bob" then [ Rule.fact "role" [ subject; "clerk" ] ]
      else [])

let clerk_all =
  Policy.create ~domain:"d"
    [
      Rule.rule
        (Rule.atom "permit" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ])
        [
          Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ];
          Rule.atom "req_action" [ Rule.v "a" ];
          Rule.atom "req_item" [ Rule.v "i" ];
        ];
    ]

let clerk_read_only =
  Policy.create ~domain:"d"
    [
      Rule.rule
        (Rule.atom "permit" [ Rule.v "s"; Rule.c "read"; Rule.v "i" ])
        [
          Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ];
          Rule.atom "req_item" [ Rule.v "i" ];
        ];
    ]

let everyone_reads =
  Policy.create ~domain:"d"
    [
      Rule.rule
        (Rule.atom "permit" [ Rule.v "s"; Rule.c "read"; Rule.v "i" ])
        [ Rule.atom "req_subject" [ Rule.v "s" ]; Rule.atom "req_item" [ Rule.v "i" ] ];
    ]

let test_analysis_equivalent () =
  Alcotest.(check string) "same policy" "equivalent"
    (Analysis.verdict_name
       (Analysis.compare_policies ~probes:analysis_probes clerk_all clerk_all))

let test_analysis_tightened () =
  match Analysis.compare_policies ~probes:analysis_probes clerk_all clerk_read_only with
  | Analysis.Tightened lost ->
    (* Bob loses write on db1; eve had nothing to lose. *)
    Alcotest.(check int) "one lost access" 1 (List.length lost);
    let p = List.hd lost in
    Alcotest.(check string) "who" "bob" p.Analysis.subject;
    Alcotest.(check string) "what" "write" p.Analysis.action
  | v -> Alcotest.failf "expected Tightened, got %s" (Analysis.verdict_name v)

let test_analysis_relaxed_and_mixed () =
  (match Analysis.compare_policies ~probes:analysis_probes clerk_read_only everyone_reads with
  | Analysis.Relaxed gained ->
    (* Eve gains read. *)
    Alcotest.(check bool) "eve gains" true
      (List.exists (fun p -> p.Analysis.subject = "eve") gained)
  | v -> Alcotest.failf "expected Relaxed, got %s" (Analysis.verdict_name v));
  match Analysis.compare_policies ~probes:analysis_probes clerk_all everyone_reads with
  | Analysis.Mixed { lost; gained } ->
    Alcotest.(check bool) "bob loses write" true
      (List.exists
         (fun p -> p.Analysis.subject = "bob" && p.Analysis.action = "write")
         lost);
    Alcotest.(check bool) "eve gains read" true
      (List.exists (fun p -> p.Analysis.subject = "eve") gained)
  | v -> Alcotest.failf "expected Mixed, got %s" (Analysis.verdict_name v)

(* ------------------------------------------------------------------ *)
(* Proofs of authorization                                             *)
(* ------------------------------------------------------------------ *)

let proof_env ?(cas = []) ?(servers = []) ?(context = []) () =
  {
    Proof.find_ca = (fun n -> List.assoc_opt n cas);
    trusted_server = (fun n -> List.mem n servers);
    context = (fun () -> context);
  }

let request = { Proof.subject = "bob"; action = "read"; items = [ "db1" ] }

let test_proof_grant () =
  let ca = Ca.create "corp" in
  let c =
    Ca.issue ca ~id:"bob-role" ~subject:"bob"
      ~facts:[ Rule.fact "role" [ "bob"; "clerk" ] ]
      ~now:0. ~ttl:100.
  in
  let p =
    Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy:(clerk_policy ())
      ~creds:[ c ]
      ~env:(proof_env ~cas:[ ("corp", ca) ] ())
      ~at:10. request
  in
  Alcotest.(check bool) "granted" true p.Proof.result;
  Alcotest.(check int) "no failures" 0 (List.length p.Proof.failures);
  Alcotest.(check int) "version recorded" 1 p.Proof.policy_version;
  Alcotest.(check string) "domain recorded" "app" p.Proof.domain

let test_proof_denied_without_role () =
  let p =
    Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy:(clerk_policy ())
      ~creds:[] ~env:(proof_env ()) ~at:10. request
  in
  Alcotest.(check bool) "denied" false p.Proof.result;
  Alcotest.(check bool) "denied item named" true
    (List.exists
       (function Proof.Denied "db1" -> true | _ -> false)
       p.Proof.failures)

let test_proof_revoked_credential () =
  let ca = Ca.create "corp" in
  let c =
    Ca.issue ca ~id:"bob-role" ~subject:"bob"
      ~facts:[ Rule.fact "role" [ "bob"; "clerk" ] ]
      ~now:0. ~ttl:100.
  in
  Ca.revoke ca "bob-role" ~at:5.;
  let p =
    Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy:(clerk_policy ())
      ~creds:[ c ]
      ~env:(proof_env ~cas:[ ("corp", ca) ] ())
      ~at:10. request
  in
  Alcotest.(check bool) "revocation invalidates" false p.Proof.result;
  Alcotest.(check bool) "revoked failure" true
    (List.exists
       (function Proof.Revoked "bob-role" -> true | _ -> false)
       p.Proof.failures)

let test_proof_expired_credential_fails_whole_proof () =
  (* Strictness: even with context facts that would grant on their own, an
     invalid presented credential makes the proof FALSE. *)
  let ca = Ca.create "corp" in
  let stale = Ca.issue ca ~id:"old" ~subject:"bob" ~facts:[] ~now:0. ~ttl:1. in
  let context = [ Rule.fact "role" [ "bob"; "clerk" ] ] in
  let p =
    Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy:(clerk_policy ())
      ~creds:[ stale ]
      ~env:(proof_env ~cas:[ ("corp", ca) ] ~context ())
      ~at:10. request
  in
  Alcotest.(check bool) "strict" false p.Proof.result

let test_proof_untrusted_issuer () =
  let c =
    Credential.make ~id:"x" ~subject:"bob" ~issuer:"shady"
      ~kind:Credential.Attribute
      ~facts:[ Rule.fact "role" [ "bob"; "clerk" ] ]
      ~issued_at:0. ~expires_at:100.
  in
  let p =
    Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy:(clerk_policy ())
      ~creds:[ c ] ~env:(proof_env ()) ~at:10. request
  in
  Alcotest.(check bool) "untrusted" false p.Proof.result;
  Alcotest.(check bool) "failure kind" true
    (List.exists
       (function Proof.Untrusted_issuer "x" -> true | _ -> false)
       p.Proof.failures)

let test_proof_capability_from_server () =
  (* Bob's read credential: issued by a trusted cloud server, it grants
     via the capability rule without any role fact. *)
  let access =
    Credential.make ~id:"bob-read" ~subject:"bob" ~issuer:"s2"
      ~kind:(Credential.Access { action = "read"; item = "db1" })
      ~facts:[] ~issued_at:0. ~expires_at:100.
  in
  let env = proof_env ~servers:[ "s2" ] () in
  let p =
    Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy:(clerk_policy ())
      ~creds:[ access ] ~env ~at:10. request
  in
  Alcotest.(check bool) "capability grants" true p.Proof.result;
  (* Same credential under a policy that stopped accepting capabilities. *)
  let strict = clerk_policy ~accept_capabilities:false () in
  let p2 =
    Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy:strict ~creds:[ access ]
      ~env ~at:10. request
  in
  Alcotest.(check bool) "tightened policy refuses" false p2.Proof.result

let test_proof_context_facts () =
  let context = [ Rule.fact "role" [ "bob"; "clerk" ] ] in
  let p =
    Proof.evaluate ~query_id:"q1" ~server:"s1" ~policy:(clerk_policy ())
      ~creds:[] ~env:(proof_env ~context ()) ~at:10. request
  in
  Alcotest.(check bool) "context grants" true p.Proof.result

(* ------------------------------------------------------------------ *)
(* Compiled plans against the naive engine                             *)
(* ------------------------------------------------------------------ *)

(* The reference: naive bottom-up evaluation, re-stratifying on every
   call and matching every body atom against the whole fact set. *)
module Naive = struct
  module Fact_set = Set.Make (struct
    type t = string * string list

    let compare = compare
  end)

  let key_of_fact (a : Rule.fact) =
    ( a.Rule.pred,
      List.map
        (function
          | Rule.Const s -> s
          | Rule.Var x ->
            invalid_arg (Printf.sprintf "Infer: non-ground fact (variable %s)" x))
        a.Rule.args )

  let match_atom env (atom : Rule.atom) (pred, args) =
    if (not (String.equal atom.Rule.pred pred))
       || List.length atom.Rule.args <> List.length args
    then None
    else
      List.fold_left2
        (fun env term value ->
          match (env, term) with
          | None, _ -> None
          | Some env, Rule.Const c -> if String.equal c value then Some env else None
          | Some env, Rule.Var x -> (
            match List.assoc_opt x env with
            | Some bound -> if String.equal bound value then Some env else None
            | None -> Some ((x, value) :: env)))
        (Some env) atom.Rule.args args

  let instantiate env (atom : Rule.atom) =
    {
      atom with
      Rule.args =
        List.map
          (function
            | Rule.Const _ as t -> t
            | Rule.Var x -> Rule.Const (List.assoc x env))
          atom.Rule.args;
    }

  let solve db (r : Rule.t) =
    let rec positives env = function
      | [] -> [ env ]
      | atom :: rest ->
        Fact_set.fold
          (fun fact acc ->
            match match_atom env atom fact with
            | None -> acc
            | Some env' -> positives env' rest @ acc)
          db []
    in
    List.filter
      (fun env ->
        List.for_all
          (fun neg -> not (Fact_set.mem (key_of_fact (instantiate env neg)) db))
          (Rule.negative_body r))
      (positives [] (Rule.positive_body r))

  let stratify rules =
    let strata = Hashtbl.create 16 in
    let get p = Option.value ~default:0 (Hashtbl.find_opt strata p) in
    let n_preds =
      List.length
        (List.sort_uniq String.compare
           (List.concat_map
              (fun (r : Rule.t) ->
                r.Rule.head.Rule.pred
                :: List.map
                     (fun (a : Rule.atom) -> a.Rule.pred)
                     (Rule.positive_body r @ Rule.negative_body r))
              rules))
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (r : Rule.t) ->
          let h = r.Rule.head.Rule.pred in
          let bump target =
            if get h < target then begin
              if target > n_preds then
                invalid_arg "Infer: rules are not stratifiable (negation cycle)";
              Hashtbl.replace strata h target;
              changed := true
            end
          in
          List.iter (fun (a : Rule.atom) -> bump (get a.Rule.pred)) (Rule.positive_body r);
          List.iter
            (fun (a : Rule.atom) -> bump (get a.Rule.pred + 1))
            (Rule.negative_body r))
        rules
    done;
    let tagged = List.map (fun (r : Rule.t) -> (get r.Rule.head.Rule.pred, r)) rules in
    let max_stratum = List.fold_left (fun acc (s, _) -> max acc s) 0 tagged in
    List.init (max_stratum + 1) (fun s ->
        List.filter_map (fun (s', r) -> if s = s' then Some r else None) tagged)

  let saturate ~rules ~facts =
    let db = ref (Fact_set.of_list (List.map key_of_fact facts)) in
    let run_stratum stratum_rules =
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (r : Rule.t) ->
            List.iter
              (fun env ->
                let derived = key_of_fact (instantiate env r.Rule.head) in
                if not (Fact_set.mem derived !db) then begin
                  db := Fact_set.add derived !db;
                  changed := true
                end)
              (solve !db r))
          stratum_rules
      done
    in
    List.iter run_stratum (stratify rules);
    !db

  let facts db = List.map (fun (p, args) -> Rule.fact p args) (Fact_set.elements db)
end

(* Random programs over a fixed vocabulary.  Each predicate has a level;
   a rule reads positively at or below its head's level and negates
   strictly below it, so the program is stratified, except for the
   occasional rule that negates anything (which may close a cycle). *)
let vocabulary =
  [| ("req_item", 1, 0); ("req_action", 1, 0); ("role", 2, 0); ("flag", 1, 0);
     ("capability", 3, 0); ("mid", 2, 1); ("blocked", 1, 2); ("permit", 3, 3) |]

let constants = [| "a"; "b"; "read"; "write" |]

let gen_program =
  let open QCheck.Gen in
  let derived = Array.of_list (List.filter (fun (_, _, l) -> l > 0) (Array.to_list vocabulary)) in
  let term vars =
    frequency
      [ (3, map (fun i -> Rule.v vars.(i)) (0 -- (Array.length vars - 1)));
        (1, map Rule.c (oneofa constants)) ]
  in
  let atom_of vars (pred, arity, _) = map (Rule.atom pred) (list_repeat arity (term vars)) in
  let rule =
    oneofa derived >>= fun ((_, _, level) as head) ->
    let below ok = Array.of_list (List.filter ok (Array.to_list vocabulary)) in
    let positive = below (fun (_, _, l) -> l <= level) in
    bool >>= fun wild ->
    let negatable = if wild then vocabulary else below (fun (_, _, l) -> l < level) in
    list_size (1 -- 3) (oneofa positive >>= atom_of [| "x"; "y"; "z" |]) >>= fun pos ->
    (* The head and the negations may use only what the positives bind. *)
    let bound =
      List.sort_uniq String.compare
        (List.concat_map
           (fun (a : Rule.atom) ->
             List.filter_map (function Rule.Var x -> Some x | Rule.Const _ -> None) a.Rule.args)
           pos)
    in
    let ground_term =
      match bound with
      | [] -> map Rule.c (oneofa constants)
      | _ -> term (Array.of_list bound)
    in
    let ground_atom (pred, arity, _) = map (Rule.atom pred) (list_repeat arity ground_term) in
    list_size (0 -- 1) (oneofa negatable >>= ground_atom) >>= fun neg ->
    map
      (fun h ->
        Rule.rule_literals h
          (List.map (fun a -> Rule.Pos a) pos @ List.map (fun a -> Rule.Neg a) neg))
      (ground_atom head)
  in
  let fact =
    oneofa vocabulary >>= fun (pred, arity, _) ->
    map (Rule.fact pred) (list_repeat arity (oneofa constants))
  in
  triple
    (list_size (0 -- 6) rule)
    (list_size (0 -- 12) fact)
    (pair (oneofa constants) (oneofa constants))

let print_program (rules, facts, (subject, action)) =
  Printf.sprintf "%s\nfacts: %s\nrequest: %s %s"
    (Cloudtx_policy.Datalog.print_program rules)
    (String.concat " " (List.map Rule.atom_to_string facts))
    subject action

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let prop_saturate_matches_naive =
  QCheck.Test.make ~name:"saturate = naive reference" ~count:500
    (QCheck.make ~print:print_program gen_program)
    (fun (rules, facts, _) ->
      let facts_of db = List.map Rule.atom_to_string (Infer.facts db) in
      let compiled = outcome (fun () -> facts_of (Infer.saturate ~rules ~facts)) in
      let naive =
        outcome (fun () ->
            List.map Rule.atom_to_string (Naive.facts (Naive.saturate ~rules ~facts)))
      in
      compiled = naive)

let prop_permits_all_matches_naive =
  QCheck.Test.make ~name:"permits_all = naive reference" ~count:500
    (QCheck.make ~print:print_program gen_program)
    (fun (rules, facts, (subject, action)) ->
      let policy = Policy.of_wire ~domain:"d" ~version:1 ~accept_capabilities:true rules in
      let items = Array.to_list constants in
      let naive =
        outcome (fun () ->
            let db = Naive.saturate ~rules:(Policy.effective_rules policy) ~facts in
            List.filter
              (fun item -> not (Naive.Fact_set.mem ("permit", [ subject; action; item ]) db))
              items)
      in
      let compiled () =
        outcome (fun () -> Policy.permits_all policy ~facts ~subject ~action ~items)
      in
      (* The second call runs the plan the first one compiled. *)
      let first = compiled () in
      first = naive && compiled () = naive)

let tricky_constants =
  [ ""; "not"; "Bob"; "9lives"; "_u"; "x-y"; "a b"; "say \"hi\""; "ok"; "permit"; "é" ]

let gen_atom =
  let open QCheck.Gen in
  let const =
    frequency
      [ (3, oneofl tricky_constants);
        (1, string_size ~gen:(char_range ' ' '~') (0 -- 8)) ]
  in
  let term =
    frequency
      [ (1, map Rule.v (oneofl [ "x"; "who"; "s_1"; "long_variable_name" ]));
        (3, map Rule.c const) ]
  in
  map2 Rule.atom (oneofl [ "p"; "permit"; "req_item" ]) (list_size (0 -- 12) term)

(* The atom printer as it was written with [Format]: credential signature
   payloads, proof-cache keys and journals carry its bytes. *)
let reference_atom (a : Rule.atom) =
  let needs_quoting s =
    let ident_char c =
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
      || c = '_' || c = '-'
    in
    String.length s = 0
    || ((not (s.[0] >= 'a' && s.[0] <= 'z')) && s.[0] <> '_')
    || (not (String.for_all ident_char s))
    || String.equal s "not"
  in
  let pp_term ppf = function
    | Rule.Var x -> Format.fprintf ppf "%s" (String.capitalize_ascii x)
    | Rule.Const s ->
      if needs_quoting s then Format.fprintf ppf "\"%s\"" s else Format.fprintf ppf "%s" s
  in
  Format.asprintf "%s(%a)" a.Rule.pred
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_term)
    a.Rule.args

let prop_atom_to_string_matches_reference =
  QCheck.Test.make ~name:"atom_to_string = Format reference" ~count:500
    (QCheck.make ~print:reference_atom gen_atom)
    (fun a ->
      let expected = reference_atom a in
      String.equal (Rule.atom_to_string a) expected
      && String.equal (Format.asprintf "%a" Rule.pp_atom a) expected)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "policy"
    [
      ( "rules",
        [
          Alcotest.test_case "construction" `Quick test_rule_construction;
          Alcotest.test_case "range restriction" `Quick test_rule_range_restriction;
          Alcotest.test_case "fact equality" `Quick test_fact_rejects_vars;
          qc prop_atom_to_string_matches_reference;
        ] );
      ( "inference",
        [
          Alcotest.test_case "direct" `Quick test_infer_direct;
          Alcotest.test_case "join" `Quick test_infer_join;
          Alcotest.test_case "transitive closure" `Quick
            test_infer_transitive_closure;
          Alcotest.test_case "query bindings" `Quick test_infer_query_bindings;
          Alcotest.test_case "non-ground errors" `Quick test_infer_nonground_errors;
          qc prop_infer_monotone;
          qc prop_saturate_matches_naive;
          qc prop_permits_all_matches_naive;
        ] );
      ( "negation",
        [
          Alcotest.test_case "basic" `Quick test_negation_basic;
          Alcotest.test_case "through derivation" `Quick
            test_negation_stratified_through_derivation;
          Alcotest.test_case "unstratifiable rejected" `Quick
            test_negation_unstratifiable_rejected;
          Alcotest.test_case "safety" `Quick test_negation_safety;
          Alcotest.test_case "in policy" `Quick test_negation_in_policy;
        ] );
      ( "credentials",
        [
          Alcotest.test_case "validity window" `Quick test_credential_window;
          Alcotest.test_case "forgery" `Quick test_credential_forgery;
          Alcotest.test_case "bad interval" `Quick test_credential_bad_interval;
        ] );
      ( "ca",
        [
          Alcotest.test_case "lifecycle" `Quick test_ca_lifecycle;
          Alcotest.test_case "revoke unknown" `Quick test_ca_revoke_unknown;
          Alcotest.test_case "double revoke" `Quick
            test_ca_double_revoke_keeps_earlier;
        ] );
      ( "policy",
        [
          Alcotest.test_case "permits" `Quick test_policy_permits;
          Alcotest.test_case "capability toggle" `Quick
            test_policy_capabilities_toggle;
          Alcotest.test_case "permits_all" `Quick test_policy_permits_all;
          Alcotest.test_case "versioning" `Quick test_policy_versioning;
          Alcotest.test_case "admin history" `Quick test_admin_history;
          Alcotest.test_case "replica monotone" `Quick test_replica_monotone;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "equivalent" `Quick test_analysis_equivalent;
          Alcotest.test_case "tightened" `Quick test_analysis_tightened;
          Alcotest.test_case "relaxed and mixed" `Quick
            test_analysis_relaxed_and_mixed;
        ] );
      ( "proofs",
        [
          Alcotest.test_case "grant" `Quick test_proof_grant;
          Alcotest.test_case "deny without role" `Quick
            test_proof_denied_without_role;
          Alcotest.test_case "revoked credential" `Quick
            test_proof_revoked_credential;
          Alcotest.test_case "strictness on invalid credential" `Quick
            test_proof_expired_credential_fails_whole_proof;
          Alcotest.test_case "untrusted issuer" `Quick test_proof_untrusted_issuer;
          Alcotest.test_case "capability" `Quick test_proof_capability_from_server;
          Alcotest.test_case "context facts" `Quick test_proof_context_facts;
        ] );
    ]
