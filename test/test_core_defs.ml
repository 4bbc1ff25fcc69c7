(* Unit and property tests for the core definitional modules:
   consistency predicates, views, schemes, Table I formulas, the shared
   validation-round logic, and the trusted-transaction checks. *)

module Consistency = Cloudtx_protocol.Consistency
module View = Cloudtx_protocol.View
module Scheme = Cloudtx_protocol.Scheme
module Complexity = Cloudtx_core.Complexity
module Validation = Cloudtx_protocol.Validation
module Trusted = Cloudtx_core.Trusted
module Proof = Cloudtx_policy.Proof
module Policy = Cloudtx_policy.Policy
module Rule = Cloudtx_policy.Rule

(* Hand-built proof records. *)
let proof ?(result = true) ?(domain = "d") ~query ~server ~version ~at () =
  {
    Proof.query_id = query;
    server;
    domain;
    policy_version = version;
    evaluated_at = at;
    credential_ids = [];
    request = { Proof.subject = "bob"; action = "read"; items = [ "x" ] };
    result;
    failures = (if result then [] else [ Proof.Denied "x" ]);
  }

(* ------------------------------------------------------------------ *)
(* Consistency                                                         *)
(* ------------------------------------------------------------------ *)

let test_phi () =
  let p1 = proof ~query:"q1" ~server:"s1" ~version:3 ~at:1. () in
  let p2 = proof ~query:"q2" ~server:"s2" ~version:3 ~at:2. () in
  let p3 = proof ~query:"q3" ~server:"s3" ~version:4 ~at:3. () in
  Alcotest.(check bool) "same versions" true (Consistency.phi_consistent [ p1; p2 ]);
  Alcotest.(check bool) "mixed versions" false
    (Consistency.phi_consistent [ p1; p2; p3 ]);
  Alcotest.(check bool) "empty is consistent" true (Consistency.phi_consistent [])

let test_phi_multi_domain () =
  (* Versions are compared per administrative domain. *)
  let p1 = proof ~domain:"d1" ~query:"q1" ~server:"s1" ~version:1 ~at:1. () in
  let p2 = proof ~domain:"d2" ~query:"q2" ~server:"s2" ~version:9 ~at:2. () in
  Alcotest.(check bool) "independent domains" true
    (Consistency.phi_consistent [ p1; p2 ])

let test_psi () =
  let latest = function "d" -> Some 5 | _ -> None in
  let fresh = proof ~query:"q1" ~server:"s1" ~version:5 ~at:1. () in
  let stale = proof ~query:"q2" ~server:"s2" ~version:4 ~at:2. () in
  Alcotest.(check bool) "matches master" true (Consistency.psi_consistent ~latest [ fresh ]);
  Alcotest.(check bool) "stale rejected" false
    (Consistency.psi_consistent ~latest [ fresh; stale ]);
  let unknown = proof ~domain:"other" ~query:"q3" ~server:"s3" ~version:1 ~at:3. () in
  Alcotest.(check bool) "unknown domain rejected" false
    (Consistency.psi_consistent ~latest [ unknown ])

let test_psi_stronger_than_phi () =
  (* phi holds on agreement even when everyone is stale; psi does not. *)
  let latest = function _ -> Some 9 in
  let p1 = proof ~query:"q1" ~server:"s1" ~version:2 ~at:1. () in
  let p2 = proof ~query:"q2" ~server:"s2" ~version:2 ~at:2. () in
  Alcotest.(check bool) "phi ok" true (Consistency.phi_consistent [ p1; p2 ]);
  Alcotest.(check bool) "psi fails" false
    (Consistency.psi_consistent ~latest [ p1; p2 ])

(* ------------------------------------------------------------------ *)
(* View                                                                *)
(* ------------------------------------------------------------------ *)

let test_view_instance_and_current () =
  let v = View.create ~txn:"t" in
  let e1 = proof ~query:"q1" ~server:"s1" ~version:1 ~at:1. () in
  let e2 = proof ~query:"q2" ~server:"s2" ~version:1 ~at:2. () in
  let e1' = proof ~query:"q1" ~server:"s1" ~version:2 ~at:3. () in
  View.add v ~instant:1 e1;
  View.add v ~instant:2 e2;
  View.add v ~instant:3 e1';
  Alcotest.(check int) "all evaluations" 3 (View.evaluations v);
  Alcotest.(check int) "instance at t=2" 2 (List.length (View.instance v ~at:2.));
  (* current: latest per query, q1 at version 2. *)
  let current = View.current v in
  Alcotest.(check int) "current size" 2 (List.length current);
  Alcotest.(check bool) "q1 superseded" true
    (List.exists
       (fun (p : Proof.t) -> p.Proof.query_id = "q1" && p.Proof.policy_version = 2)
       current);
  Alcotest.(check bool) "all true" true (View.all_true v)

let test_view_all_true_respects_current () =
  (* A query whose failed first evaluation is superseded by a passing
     re-evaluation counts as true. *)
  let v = View.create ~txn:"t" in
  View.add v ~instant:1 (proof ~result:false ~query:"q1" ~server:"s1" ~version:1 ~at:1. ());
  View.add v ~instant:2 (proof ~result:true ~query:"q1" ~server:"s1" ~version:2 ~at:2. ());
  Alcotest.(check bool) "latest wins" true (View.all_true v)

(* ------------------------------------------------------------------ *)
(* Scheme metadata                                                     *)
(* ------------------------------------------------------------------ *)

let test_scheme_metadata () =
  Alcotest.(check int) "four schemes" 4 (List.length Scheme.all);
  Alcotest.(check bool) "roundtrip names" true
    (List.for_all
       (fun s -> Scheme.of_string (Scheme.name s) = Some s)
       Scheme.all);
  Alcotest.(check bool) "punctual executes proofs" true
    (Scheme.proofs_during_execution Scheme.Punctual);
  Alcotest.(check bool) "continuous defers to 2PV" false
    (Scheme.proofs_during_execution Scheme.Continuous);
  Alcotest.(check bool) "incremental checks versions" true
    (Scheme.per_query_version_check Scheme.Incremental_punctual);
  Alcotest.(check bool) "continuous validates per query" true
    (Scheme.per_query_validation Scheme.Continuous);
  Alcotest.(check bool) "deferred validates at commit" true
    (Scheme.validates_at_commit Scheme.Deferred Consistency.View);
  Alcotest.(check bool) "incremental skips commit validation" false
    (Scheme.validates_at_commit Scheme.Incremental_punctual Consistency.Global);
  Alcotest.(check bool) "continuous view skips" false
    (Scheme.validates_at_commit Scheme.Continuous Consistency.View);
  Alcotest.(check bool) "continuous global validates" true
    (Scheme.validates_at_commit Scheme.Continuous Consistency.Global)

(* ------------------------------------------------------------------ *)
(* Table I formulas                                                    *)
(* ------------------------------------------------------------------ *)

let test_table1_values () =
  (* Spot-check every cell at n=4, u=4, r=2 against hand-computed
     values from the paper's Table I. *)
  let n = 4 and u = 4 and r = 2 in
  let m s l = Complexity.messages s l ~n ~u ~r in
  let p s l = Complexity.proofs s l ~n ~u ~r in
  Alcotest.(check int) "deferred view msgs (2n+4n)" 24 (m Scheme.Deferred Consistency.View);
  Alcotest.(check int) "deferred global msgs" 26 (m Scheme.Deferred Consistency.Global);
  Alcotest.(check int) "incremental view msgs (4n)" 16
    (m Scheme.Incremental_punctual Consistency.View);
  Alcotest.(check int) "incremental global msgs (4n+u)" 20
    (m Scheme.Incremental_punctual Consistency.Global);
  Alcotest.(check int) "continuous view msgs (u(u+1)+4n)" 36
    (m Scheme.Continuous Consistency.View);
  (* u(u+1) + u + 2n + 2nr + r = 20 + 4 + 8 + 16 + 2. *)
  Alcotest.(check int) "continuous global msgs" 50
    (m Scheme.Continuous Consistency.Global);
  Alcotest.(check int) "deferred view proofs (2u-1)" 7 (p Scheme.Deferred Consistency.View);
  Alcotest.(check int) "deferred global proofs (ur)" 8
    (p Scheme.Deferred Consistency.Global);
  Alcotest.(check int) "punctual view proofs (3u-1)" 11
    (p Scheme.Punctual Consistency.View);
  Alcotest.(check int) "punctual global proofs (u+ur)" 12
    (p Scheme.Punctual Consistency.Global);
  Alcotest.(check int) "incremental proofs (u)" 4
    (p Scheme.Incremental_punctual Consistency.View);
  Alcotest.(check int) "continuous view proofs (u(u+1)/2)" 10
    (p Scheme.Continuous Consistency.View);
  Alcotest.(check int) "continuous global proofs" 18
    (p Scheme.Continuous Consistency.Global)

let test_table1_guards () =
  Alcotest.check_raises "view r bound"
    (Invalid_argument "Complexity: r=3 exceeds the view-consistency bound 2")
    (fun () ->
      ignore (Complexity.messages Scheme.Deferred Consistency.View ~n:1 ~u:1 ~r:3));
  Alcotest.check_raises "bad n" (Invalid_argument "Complexity: n must be positive")
    (fun () ->
      ignore (Complexity.messages Scheme.Deferred Consistency.View ~n:0 ~u:1 ~r:1));
  Alcotest.(check bool) "rounds bound" true
    (Complexity.rounds_bound Consistency.View = Some 2
    && Complexity.rounds_bound Consistency.Global = None)

let prop_global_messages_monotone_in_r =
  QCheck.Test.make ~name:"global message cost grows with rounds" ~count:100
    QCheck.(triple (int_range 1 20) (int_range 1 20) (int_range 1 10))
    (fun (n, u, r) ->
      List.for_all
        (fun scheme ->
          Complexity.messages scheme Consistency.Global ~n ~u ~r
          <= Complexity.messages scheme Consistency.Global ~n ~u ~r:(r + 1))
        Scheme.all)

let prop_proof_ordering_view =
  (* At r=2, the permissiveness ordering of proof costs from the paper:
     incremental <= deferred <= punctual, and continuous dominates all
     for u >= 5 (its quadratic term takes over). *)
  QCheck.Test.make ~name:"proof cost ordering (view)" ~count:100
    QCheck.(pair (int_range 1 20) (int_range 5 30))
    (fun (n, u) ->
      let p s = Complexity.proofs s Consistency.View ~n ~u ~r:2 in
      p Scheme.Incremental_punctual <= p Scheme.Deferred
      && p Scheme.Deferred <= p Scheme.Punctual
      && p Scheme.Punctual <= p Scheme.Continuous)

(* ------------------------------------------------------------------ *)
(* Validation round logic                                              *)
(* ------------------------------------------------------------------ *)

let policy ~domain ~version =
  (* Build a policy at an arbitrary version through repeated amendment. *)
  let rec bump p = if p.Policy.version >= version then p else bump (Policy.amend p []) in
  bump (Policy.create ~domain [])

let test_validation_single_round_commit () =
  let v = Validation.create ~participants:[ "a"; "b" ] ~with_integrity:true () in
  Alcotest.(check (list string)) "awaiting all" [ "a"; "b" ] (Validation.awaiting v);
  let d3 = policy ~domain:"d" ~version:3 in
  Alcotest.(check bool) "wait" true
    (Validation.add_reply v ~from:"a" ~integrity:true ~proofs:[] ~policies:[ d3 ]
    = `Wait);
  Alcotest.(check bool) "complete" true
    (Validation.add_reply v ~from:"b" ~integrity:true ~proofs:[] ~policies:[ d3 ]
    = `Round_complete);
  Alcotest.(check bool) "all consistent true" true
    (Validation.resolve v = Validation.All_consistent_true)

let test_validation_integrity_abort () =
  let v = Validation.create ~participants:[ "a"; "b" ] ~with_integrity:true () in
  let d1 = policy ~domain:"d" ~version:1 in
  ignore (Validation.add_reply v ~from:"a" ~integrity:false ~proofs:[] ~policies:[ d1 ]);
  ignore (Validation.add_reply v ~from:"b" ~integrity:true ~proofs:[] ~policies:[ d1 ]);
  Alcotest.(check bool) "abort integrity" true
    (Validation.resolve v = Validation.Abort_integrity)

let test_validation_proof_abort () =
  let v = Validation.create ~participants:[ "a" ] ~with_integrity:true () in
  let d1 = policy ~domain:"d" ~version:1 in
  let bad = proof ~result:false ~query:"q" ~server:"a" ~version:1 ~at:1. () in
  ignore (Validation.add_reply v ~from:"a" ~integrity:true ~proofs:[ bad ] ~policies:[ d1 ]);
  Alcotest.(check bool) "abort proof" true
    (Validation.resolve v = Validation.Abort_proof)

let test_validation_update_round () =
  let v = Validation.create ~participants:[ "a"; "b"; "c" ] ~with_integrity:false () in
  let d2 = policy ~domain:"d" ~version:2 in
  let d1 = policy ~domain:"d" ~version:1 in
  ignore (Validation.add_reply v ~from:"a" ~integrity:true ~proofs:[] ~policies:[ d2 ]);
  ignore (Validation.add_reply v ~from:"b" ~integrity:true ~proofs:[] ~policies:[ d1 ]);
  ignore (Validation.add_reply v ~from:"c" ~integrity:true ~proofs:[] ~policies:[ d1 ]);
  (match Validation.resolve v with
  | Validation.Need_update updates ->
    Alcotest.(check (list string)) "stale participants" [ "b"; "c" ]
      (List.map fst updates |> List.sort String.compare);
    List.iter
      (fun (_, fresh) ->
        Alcotest.(check int) "fresh version shipped" 2
          (List.hd fresh).Policy.version)
      updates
  | _ -> Alcotest.fail "expected Need_update");
  Alcotest.(check int) "round advanced" 2 (Validation.round v);
  Alcotest.(check (list string)) "awaiting only stale" [ "b"; "c" ]
    (Validation.awaiting v);
  (* Updated participants reply with the fresh version; converge. *)
  ignore (Validation.add_reply v ~from:"b" ~integrity:true ~proofs:[] ~policies:[ d2 ]);
  ignore (Validation.add_reply v ~from:"c" ~integrity:true ~proofs:[] ~policies:[ d2 ]);
  Alcotest.(check bool) "converged" true
    (Validation.resolve v = Validation.All_consistent_true)

let test_validation_master_target () =
  (* Global consistency: the master's version forces updates even when
     participants agree among themselves. *)
  let v = Validation.create ~participants:[ "a" ] ~with_integrity:false () in
  Validation.add_master v [ policy ~domain:"d" ~version:5 ];
  ignore
    (Validation.add_reply v ~from:"a" ~integrity:true ~proofs:[]
       ~policies:[ policy ~domain:"d" ~version:3 ]);
  match Validation.resolve v with
  | Validation.Need_update [ ("a", [ fresh ]) ] ->
    Alcotest.(check int) "master version" 5 fresh.Policy.version
  | _ -> Alcotest.fail "expected update to master version"

let test_validation_guards () =
  let v = Validation.create ~participants:[ "a" ] ~with_integrity:false () in
  Alcotest.check_raises "unexpected sender"
    (Invalid_argument "Validation.add_reply: unexpected reply from z") (fun () ->
      ignore (Validation.add_reply v ~from:"z" ~integrity:true ~proofs:[] ~policies:[]));
  Alcotest.check_raises "premature resolve"
    (Invalid_argument "Validation.resolve: still awaiting a") (fun () ->
      ignore (Validation.resolve v));
  ignore (Validation.add_reply v ~from:"a" ~integrity:true ~proofs:[] ~policies:[]);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Validation.add_reply: duplicate reply from a") (fun () ->
      ignore (Validation.add_reply v ~from:"a" ~integrity:true ~proofs:[] ~policies:[]))

let test_validation_sticky_integrity () =
  (* A NO vote in round 1 keeps aborting even after an update round. *)
  let v = Validation.create ~participants:[ "a"; "b" ] ~with_integrity:true () in
  let d2 = policy ~domain:"d" ~version:2 in
  let d1 = policy ~domain:"d" ~version:1 in
  ignore (Validation.add_reply v ~from:"a" ~integrity:true ~proofs:[] ~policies:[ d2 ]);
  ignore (Validation.add_reply v ~from:"b" ~integrity:false ~proofs:[] ~policies:[ d1 ]);
  Alcotest.(check bool) "abort immediately" true
    (Validation.resolve v = Validation.Abort_integrity)

(* ------------------------------------------------------------------ *)
(* Trusted-transaction checks                                          *)
(* ------------------------------------------------------------------ *)

let latest_none _ = None
let latest v _ = Some v

let test_trusted_basic () =
  let view = View.create ~txn:"t" in
  View.add view ~instant:1 (proof ~query:"q1" ~server:"s1" ~version:2 ~at:1. ());
  View.add view ~instant:2 (proof ~query:"q2" ~server:"s2" ~version:2 ~at:2. ());
  Alcotest.(check bool) "trusted under view" true
    (Trusted.trusted ~level:Consistency.View ~latest:latest_none view);
  Alcotest.(check bool) "trusted under global v2" true
    (Trusted.trusted ~level:Consistency.Global ~latest:(latest 2) view);
  Alcotest.(check bool) "untrusted under global v3" false
    (Trusted.trusted ~level:Consistency.Global ~latest:(latest 3) view);
  Alcotest.(check bool) "empty view untrusted" false
    (Trusted.trusted ~level:Consistency.View ~latest:latest_none
       (View.create ~txn:"e"))

let test_check_deferred () =
  let view = View.create ~txn:"t" in
  View.add view ~instant:1 (proof ~query:"q1" ~server:"s1" ~version:1 ~at:1. ());
  View.add view ~instant:2 (proof ~query:"q2" ~server:"s2" ~version:1 ~at:2. ());
  Alcotest.(check bool) "ok" true
    (Trusted.check Scheme.Deferred ~level:Consistency.View ~latest:latest_none view
    = Ok ());
  View.add view ~instant:3 (proof ~query:"q3" ~server:"s3" ~version:2 ~at:3. ());
  Alcotest.(check bool) "version mix rejected" true
    (Result.is_error
       (Trusted.check Scheme.Deferred ~level:Consistency.View ~latest:latest_none view))

let test_check_punctual_first_eval () =
  let view = View.create ~txn:"t" in
  (* First evaluation of q1 FALSE, later re-evaluation TRUE: Def 6 requires
     eval at the query's own time, so punctual must reject. *)
  View.add view ~instant:1 (proof ~result:false ~query:"q1" ~server:"s1" ~version:1 ~at:1. ());
  View.add view ~instant:2 (proof ~result:true ~query:"q1" ~server:"s1" ~version:1 ~at:5. ());
  Alcotest.(check bool) "deferred accepts (final proof true)" true
    (Trusted.check Scheme.Deferred ~level:Consistency.View ~latest:latest_none view
    = Ok ());
  Alcotest.(check bool) "punctual rejects" true
    (Result.is_error
       (Trusted.check Scheme.Punctual ~level:Consistency.View ~latest:latest_none view))

let test_check_incremental_instances () =
  let view = View.create ~txn:"t" in
  View.add view ~instant:1 (proof ~query:"q1" ~server:"s1" ~version:1 ~at:1. ());
  (* Version changes mid-execution without re-evaluating q1: instance at
     t=2 is phi-inconsistent. *)
  View.add view ~instant:2 (proof ~query:"q2" ~server:"s2" ~version:2 ~at:2. ());
  Alcotest.(check bool) "incremental rejects" true
    (Result.is_error
       (Trusted.check Scheme.Incremental_punctual ~level:Consistency.View
          ~latest:latest_none view));
  (* Continuous repairs by re-evaluating q1 at version 2: every instance
     after the repair is consistent... but the instant t=2 itself was
     inconsistent, so Continuous requires the repair to be recorded at the
     same instant. *)
  let repaired = View.create ~txn:"t2" in
  View.add repaired ~instant:1 (proof ~query:"q1" ~server:"s1" ~version:1 ~at:1. ());
  View.add repaired ~instant:2 (proof ~query:"q1" ~server:"s1" ~version:2 ~at:2. ());
  View.add repaired ~instant:2 (proof ~query:"q2" ~server:"s2" ~version:2 ~at:2. ());
  Alcotest.(check bool) "continuous accepts repaired" true
    (Trusted.check Scheme.Continuous ~level:Consistency.View ~latest:latest_none
       repaired
    = Ok ())

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "core_defs"
    [
      ( "consistency",
        [
          Alcotest.test_case "phi" `Quick test_phi;
          Alcotest.test_case "phi multi-domain" `Quick test_phi_multi_domain;
          Alcotest.test_case "psi" `Quick test_psi;
          Alcotest.test_case "psi stronger than phi" `Quick
            test_psi_stronger_than_phi;
        ] );
      ( "view",
        [
          Alcotest.test_case "instance and current" `Quick
            test_view_instance_and_current;
          Alcotest.test_case "all_true uses latest" `Quick
            test_view_all_true_respects_current;
        ] );
      ("scheme", [ Alcotest.test_case "metadata" `Quick test_scheme_metadata ]);
      ( "complexity",
        [
          Alcotest.test_case "Table I values" `Quick test_table1_values;
          Alcotest.test_case "guards" `Quick test_table1_guards;
          qc prop_global_messages_monotone_in_r;
          qc prop_proof_ordering_view;
        ] );
      ( "validation",
        [
          Alcotest.test_case "single round commit" `Quick
            test_validation_single_round_commit;
          Alcotest.test_case "integrity abort" `Quick test_validation_integrity_abort;
          Alcotest.test_case "proof abort" `Quick test_validation_proof_abort;
          Alcotest.test_case "update round" `Quick test_validation_update_round;
          Alcotest.test_case "master target" `Quick test_validation_master_target;
          Alcotest.test_case "guards" `Quick test_validation_guards;
          Alcotest.test_case "sticky integrity" `Quick
            test_validation_sticky_integrity;
        ] );
      ( "trusted",
        [
          Alcotest.test_case "definition 4" `Quick test_trusted_basic;
          Alcotest.test_case "deferred check" `Quick test_check_deferred;
          Alcotest.test_case "punctual first-eval" `Quick
            test_check_punctual_first_eval;
          Alcotest.test_case "instance checks" `Quick
            test_check_incremental_instances;
        ] );
    ]
