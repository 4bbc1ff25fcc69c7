(* Chaos campaign engine: deterministic fault plans, hardened delivery,
   counterexample shrinking.

   The clean-campaign test is the core robustness claim: random fault
   plans across every scheme x level cell end in safe, live terminal
   states.  The dedup-off tests demonstrate the failure mode idempotent
   delivery prevents, and that the shrinker reduces it to a minimal plan
   whose captured journal the offline auditor rejects. *)

module Plan = Cloudtx_chaos.Plan
module Campaign = Cloudtx_chaos.Campaign
module Shrink = Cloudtx_chaos.Shrink
module Audit = Cloudtx_core.Audit
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency

let describe (c : Campaign.case) =
  Printf.sprintf "%s seed=%Ld: %s"
    (Campaign.cell_name c.Campaign.cell)
    c.Campaign.plan.Plan.seed c.Campaign.failure.Campaign.what

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

let test_plan_generation_deterministic () =
  let a = Plan.random ~seed:99L () and b = Plan.random ~seed:99L () in
  Alcotest.(check string) "same seed, same plan" (Plan.to_string a)
    (Plan.to_string b);
  let c = Plan.random ~seed:100L () in
  Alcotest.(check bool) "different seed, different plan" true
    (not (String.equal (Plan.to_string a) (Plan.to_string c)))

let test_plan_json_round_trip () =
  for i = 0 to 19 do
    let plan = Plan.random ~seed:(Int64.of_int (500 + i)) () in
    match Plan.of_string (Plan.to_string plan) with
    | Ok back ->
      Alcotest.(check string) "round trip" (Plan.to_string plan)
        (Plan.to_string back)
    | Error e -> Alcotest.fail e
  done

let test_plan_faults_bounded () =
  for i = 0 to 49 do
    let plan = Plan.random ~seed:(Int64.of_int (900 + i)) () in
    Alcotest.(check bool) "1-4 ops" true
      (let n = List.length plan.Plan.ops in
       n >= 1 && n <= 4);
    List.iter
      (fun op ->
        Alcotest.(check bool) "fault ends before horizon + max hold" true
          (Plan.op_end op < Plan.fault_horizon))
      plan.Plan.ops
  done

(* ------------------------------------------------------------------ *)
(* Clean campaign                                                      *)
(* ------------------------------------------------------------------ *)

let run_clean () = Campaign.run ~base_seed:4242L ~plans:4 ()

let test_campaign_clean () =
  let verdict = run_clean () in
  Alcotest.(check int) "all cells x plans ran" (8 * 4) verdict.Campaign.plans_run;
  match verdict.Campaign.failures with
  | [] -> ()
  | c :: _ ->
    Alcotest.fail
      (Printf.sprintf "%d violation(s); first: %s"
         (List.length verdict.Campaign.failures)
         (describe c))

let test_campaign_deterministic () =
  let summarize (v : Campaign.verdict) =
    String.concat "\n" (List.map describe v.Campaign.failures)
  in
  Alcotest.(check string) "same seeds, same verdicts" (summarize (run_clean ()))
    (summarize (run_clean ()))

(* ------------------------------------------------------------------ *)
(* Dedup escape hatch and shrinking                                    *)
(* ------------------------------------------------------------------ *)

(* The cell with the most voting rounds, where a duplicated reply is most
   likely to poison the TM's vote collection. *)
let fragile_cell =
  { Campaign.scheme = Scheme.Continuous; level = Consistency.Global }

(* Deterministically find a failing seed with dedup disabled.  Dedup ON
   must keep the very same plans clean — that contrast is the point. *)
let find_failure () =
  let rec scan seed limit =
    if seed >= limit then
      Alcotest.fail "no dedup-off failure found in the seed range"
    else
      let plan = Plan.random ~seed:(Int64.of_int seed) () in
      match Campaign.run_plan ~dedup:false fragile_cell plan with
      | Error failure -> (plan, failure)
      | Ok () -> scan (seed + 1) limit
  in
  scan 7000 7160

let test_dedup_off_finds_violation () =
  let plan, failure = find_failure () in
  (match Campaign.run_plan fragile_cell plan with
  | Ok () -> ()
  | Error f ->
    Alcotest.fail
      (Printf.sprintf "dedup on must survive the same plan, got: %s"
         f.Campaign.what));
  Alcotest.(check bool) "journal captured" true
    (List.length failure.Campaign.journal > 1)

let test_shrink_to_minimal_plan () =
  let shrink () =
    let plan, _ = find_failure () in
    let fails p =
      match Campaign.run_plan ~dedup:false fragile_cell p with
      | Ok () -> None
      | Error f -> Some f.Campaign.what
    in
    match Shrink.minimize ~fails plan with
    | None -> Alcotest.fail "plan stopped failing under replay"
    | Some (minimal, what) -> (minimal, what)
  in
  let minimal, what = shrink () in
  Alcotest.(check bool)
    (Printf.sprintf "minimal plan has <= 3 ops (%s)" (Plan.to_string minimal))
    true
    (List.length minimal.Plan.ops <= 3);
  Alcotest.(check bool) "still a delivery failure" true (String.length what > 0);
  (* Determinism: the whole find + shrink pipeline replays identically. *)
  let minimal', what' = shrink () in
  Alcotest.(check string) "same minimal plan" (Plan.to_string minimal)
    (Plan.to_string minimal');
  Alcotest.(check string) "same diagnosis" what what'

let test_shrunk_journal_rejected_by_audit () =
  let plan, _ = find_failure () in
  let fails p =
    match Campaign.run_plan ~dedup:false fragile_cell p with
    | Ok () -> None
    | Error f -> Some f.Campaign.what
  in
  let minimal =
    match Shrink.minimize ~fails plan with
    | Some (m, _) -> m
    | None -> Alcotest.fail "plan stopped failing under replay"
  in
  match Campaign.run_plan ~dedup:false fragile_cell minimal with
  | Ok () -> Alcotest.fail "minimal plan no longer fails"
  | Error failure -> (
    match Audit.run ~lines:failure.Campaign.journal with
    | Ok _ -> Alcotest.fail "audit accepted the journal of a poisoned run"
    | Error why ->
      Alcotest.(check bool)
        (Printf.sprintf "audit names the divergent seq (%s)" why)
        true
        (String.length why >= 4 && String.equal (String.sub why 0 4) "seq "))

let () =
  Alcotest.run "chaos"
    [
      ( "plan",
        [
          Alcotest.test_case "generation deterministic" `Quick
            test_plan_generation_deterministic;
          Alcotest.test_case "json round trip" `Quick test_plan_json_round_trip;
          Alcotest.test_case "faults bounded" `Quick test_plan_faults_bounded;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "clean across the grid" `Slow test_campaign_clean;
          Alcotest.test_case "deterministic verdicts" `Slow
            test_campaign_deterministic;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "dedup off finds a violation" `Slow
            test_dedup_off_finds_violation;
          Alcotest.test_case "shrinks to a minimal plan" `Slow
            test_shrink_to_minimal_plan;
          Alcotest.test_case "audit rejects the captured journal" `Slow
            test_shrunk_journal_rejected_by_audit;
        ] );
    ]
