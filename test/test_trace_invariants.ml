(* Trace-driven regression checks: run real workloads with tracing on and
   assert structural invariants of the span tree the drivers emit —
   every span's parent exists, a committed transaction's [2pvc.commit]
   phase is preceded by its [2pvc.prepare], commit-phase aborts carry a
   prepare too, and the number of [proof_eval] spans on a fresh run equals
   the Table I closed form (and the outcome's proof tally). *)

module Scenario = Cloudtx_workload.Scenario
module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Complexity = Cloudtx_core.Complexity
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Outcome = Cloudtx_protocol.Outcome
module Transport = Cloudtx_sim.Transport
module Tracer = Cloudtx_obs.Tracer
module Value = Cloudtx_store.Value

let all_combos =
  List.concat_map
    (fun scheme ->
      List.map (fun level -> (scheme, level))
        [ Consistency.View; Consistency.Global ])
    Scheme.all

let combo_name scheme level =
  Printf.sprintf "%s/%s" (Scheme.name scheme) (Consistency.name level)

(* One committed transaction over [n] servers with tracing enabled;
   returns the outcome and the recorded spans. *)
let traced_run ?(n = 2) ?(u = 2) scheme level =
  let scenario = Scenario.retail ~seed:11L ~n_servers:n ~n_subjects:1 () in
  let cluster = scenario.Scenario.cluster in
  let tracer = Transport.enable_tracing (Cluster.transport cluster) in
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1"
      ~queries:u ~writes:true ()
  in
  let outcome =
    Manager.run_one cluster (Manager.config scheme level) txn
  in
  (outcome, Tracer.spans tracer)

let find_all name spans = List.filter (fun s -> s.Tracer.name = name) spans

let parent_of spans (s : Tracer.span) =
  List.find_opt (fun (p : Tracer.span) -> p.Tracer.id = s.Tracer.parent) spans

(* ------------------------------------------------------------------ *)
(* Structural well-formedness                                          *)
(* ------------------------------------------------------------------ *)

let test_span_tree_well_formed () =
  List.iter
    (fun (scheme, level) ->
      let ctx = combo_name scheme level in
      let outcome, spans = traced_run scheme level in
      Alcotest.(check bool) (ctx ^ ": committed") true outcome.Outcome.committed;
      (* Every non-root span's parent is a recorded span. *)
      List.iter
        (fun (s : Tracer.span) ->
          if s.Tracer.parent <> Tracer.no_span && parent_of spans s = None then
            Alcotest.failf "%s: span %s has a dangling parent" ctx s.Tracer.name)
        spans;
      (* No protocol span is left open once the run quiesces. *)
      List.iter
        (fun (s : Tracer.span) ->
          if Float.is_nan s.Tracer.finish then
            Alcotest.failf "%s: span %s never finished" ctx s.Tracer.name)
        spans;
      (* Exactly one txn span, carrying the outcome. *)
      (match find_all "txn" spans with
      | [ t ] ->
        Alcotest.(check (option string))
          (ctx ^ ": txn outcome attr")
          (Some "commit")
          (List.assoc_opt "outcome" t.Tracer.attrs)
      | l -> Alcotest.failf "%s: %d txn spans" ctx (List.length l));
      (* query spans hang off the txn span, one per query. *)
      let queries = find_all "query" spans in
      Alcotest.(check int) (ctx ^ ": query spans") 2 (List.length queries);
      List.iter
        (fun q ->
          match parent_of spans q with
          | Some p when p.Tracer.name = "txn" -> ()
          | _ -> Alcotest.failf "%s: query span not under txn" ctx)
        queries)
    all_combos

(* ------------------------------------------------------------------ *)
(* Commit implies prepare                                              *)
(* ------------------------------------------------------------------ *)

let check_phase_ordering ~ctx spans ~decision_name =
  List.iter
    (fun (d : Tracer.span) ->
      let txn = parent_of spans d in
      (match txn with
      | Some t when t.Tracer.name = "txn" -> ()
      | _ -> Alcotest.failf "%s: %s not under txn" ctx decision_name);
      let txn = Option.get txn in
      let prepares =
        List.filter
          (fun (p : Tracer.span) ->
            p.Tracer.name = "2pvc.prepare" && p.Tracer.parent = txn.Tracer.id)
          spans
      in
      match prepares with
      | [] -> Alcotest.failf "%s: %s without a 2pvc.prepare" ctx decision_name
      | ps ->
        List.iter
          (fun (p : Tracer.span) ->
            if not (p.Tracer.start <= d.Tracer.start) then
              Alcotest.failf "%s: 2pvc.prepare starts after %s" ctx
                decision_name)
          ps)
    (find_all decision_name spans)

let test_commit_preceded_by_prepare () =
  List.iter
    (fun (scheme, level) ->
      let ctx = combo_name scheme level in
      let _, spans = traced_run scheme level in
      Alcotest.(check int)
        (ctx ^ ": one commit phase")
        1
        (List.length (find_all "2pvc.commit" spans));
      check_phase_ordering ~ctx spans ~decision_name:"2pvc.commit")
    all_combos

let test_commit_phase_abort_preceded_by_prepare () =
  (* Drive a balance negative so the participant votes NO: the abort is
     decided inside the commit phase and must still carry its prepare. *)
  let scenario = Scenario.retail ~seed:12L ~n_servers:2 ~n_subjects:1 () in
  let cluster = scenario.Scenario.cluster in
  let tracer = Transport.enable_tracing (Cluster.transport cluster) in
  let q =
    Cloudtx_txn.Query.make ~id:"t1-q1" ~server:"server-1"
      ~writes:[ ("s1-k1", Value.Set (Value.Int (-5))) ]
      ()
  in
  let txn =
    Cloudtx_txn.Transaction.make ~id:"t1" ~subject:"clerk-1"
      ~credentials:(scenario.Scenario.credentials_of "clerk-1")
      [ q ]
  in
  let outcome =
    Manager.run_one cluster
      (Manager.config Scheme.Deferred Consistency.View)
      txn
  in
  Alcotest.(check bool) "aborted" false outcome.Outcome.committed;
  let spans = Tracer.spans tracer in
  Alcotest.(check int) "one abort phase" 1
    (List.length (find_all "2pvc.abort" spans));
  check_phase_ordering ~ctx:"deferred/view abort" spans
    ~decision_name:"2pvc.abort"

(* ------------------------------------------------------------------ *)
(* Measured proof complexity equals Table I                            *)
(* ------------------------------------------------------------------ *)

let test_proof_eval_count_matches_table1 () =
  (* Fresh replicas, one voting round: the measured proof evaluations on
     the trace must equal both the outcome's proof tally and the Table I
     closed form at r = 1. *)
  List.iter
    (fun (scheme, level) ->
      let ctx = combo_name scheme level in
      let outcome, spans = traced_run ~n:2 ~u:2 scheme level in
      Alcotest.(check int)
        (ctx ^ ": one voting round")
        1 outcome.Outcome.commit_rounds;
      let measured = List.length (find_all "proof_eval" spans) in
      Alcotest.(check int)
        (ctx ^ ": tracer agrees with the outcome's proof tally")
        outcome.Outcome.proofs_evaluated measured;
      let analytic = Complexity.proofs scheme level ~n:2 ~u:2 ~r:1 in
      Alcotest.(check int)
        (ctx ^ ": measured proofs = Table I closed form")
        analytic measured)
    all_combos

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "trace_invariants"
    [
      ( "structure",
        [
          Alcotest.test_case "span tree well-formed" `Quick
            test_span_tree_well_formed;
        ] );
      ( "phases",
        [
          Alcotest.test_case "commit preceded by prepare" `Quick
            test_commit_preceded_by_prepare;
          Alcotest.test_case "commit-phase abort preceded by prepare" `Quick
            test_commit_phase_abort_preceded_by_prepare;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "proof_eval spans match Table I" `Quick
            test_proof_eval_count_matches_table1;
        ] );
    ]
