(* Gray-failure resilience: the adaptive timeout policy (backoff
   determinism, budget exhaustion as a clean abort), per-server circuit
   breakers and admission control, the Watchtower rules they feed, and
   the gray-fault chaos campaign.

   The last group pins byte-level compatibility: under the default
   [Fixed] policy a chaos run's journal must stay byte-identical (past
   the version header) to a capture committed before the policy layer
   existed, and that v3 capture must still audit clean. *)

module Manager = Cloudtx_core.Manager
module Cluster = Cloudtx_core.Cluster
module Participant = Cloudtx_core.Participant
module Outcome = Cloudtx_protocol.Outcome
module Resilience = Cloudtx_core.Resilience
module Audit = Cloudtx_core.Audit
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Timeout_policy = Cloudtx_protocol.Timeout_policy
module Transport = Cloudtx_sim.Transport
module Latency = Cloudtx_sim.Latency
module Scenario = Cloudtx_workload.Scenario
module Monitor = Cloudtx_obs.Monitor
module Slo = Cloudtx_obs.Slo
module Plan = Cloudtx_chaos.Plan
module Campaign = Cloudtx_chaos.Campaign

let adaptive_of = function
  | Timeout_policy.Adaptive a -> a
  | Timeout_policy.Fixed -> Alcotest.fail "expected an adaptive policy"

(* ------------------------------------------------------------------ *)
(* Adaptive policy: deterministic jittered backoff                     *)
(* ------------------------------------------------------------------ *)

let test_backoff_deterministic () =
  let a = adaptive_of (Timeout_policy.adaptive ()) in
  let name_hash = Timeout_policy.hash_name "tm-t1" in
  for epoch = 1 to 5 do
    for strikes = 0 to 4 do
      let d1 = Timeout_policy.delay a ~base:10. ~name_hash ~epoch ~strikes in
      let d2 = Timeout_policy.delay a ~base:10. ~name_hash ~epoch ~strikes in
      Alcotest.(check (float 0.)) "same inputs, same delay" d1 d2;
      (* Jitter scales the nominal backoff by a factor in
         [1 - j/2, 1 + j/2). *)
      let nominal =
        Float.min a.Timeout_policy.backoff_max
          (10. *. (a.Timeout_policy.backoff_factor ** float_of_int strikes))
      in
      let j = a.Timeout_policy.jitter in
      Alcotest.(check bool)
        (Printf.sprintf "delay %g within jitter envelope of %g" d1 nominal)
        true
        (d1 >= nominal *. (1. -. (j /. 2.))
        && d1 < nominal *. (1. +. (j /. 2.)))
    done
  done;
  (* The jitter stream actually varies across epochs and machines. *)
  let d epoch name =
    Timeout_policy.delay a ~base:10.
      ~name_hash:(Timeout_policy.hash_name name)
      ~epoch ~strikes:0
  in
  Alcotest.(check bool) "distinct epochs draw distinct jitter" true
    (d 1 "tm-t1" <> d 2 "tm-t1");
  Alcotest.(check bool) "distinct machines draw distinct jitter" true
    (d 1 "tm-t1" <> d 1 "tm-t2")

let test_backoff_grows_and_caps () =
  let a =
    adaptive_of
      (Timeout_policy.adaptive ~jitter:0. ~backoff_factor:2. ~backoff_max:40.
         ())
  in
  let name_hash = Timeout_policy.hash_name "tm-t1" in
  let d strikes = Timeout_policy.delay a ~base:10. ~name_hash ~epoch:1 ~strikes in
  Alcotest.(check (float 1e-9)) "strike 0" 10. (d 0);
  Alcotest.(check (float 1e-9)) "strike 1 doubles" 20. (d 1);
  Alcotest.(check (float 1e-9)) "strike 2 doubles" 40. (d 2);
  Alcotest.(check (float 1e-9)) "strike 3 caps" 40. (d 3)

(* ------------------------------------------------------------------ *)
(* Budget exhaustion is a clean abort                                  *)
(* ------------------------------------------------------------------ *)

(* A participant fail-stops just before the commit request reaches it
   (6.5 ms with constant 1 ms links) and never comes back.  Under
   [Fixed] that is a single [Timed_out] expiry — and the decision
   retransmission loop needs the node to recover before the run can
   quiesce.  The adaptive budgets instead strike out the watchdog into
   a clean [Budget_exhausted] abort and cap retransmission, so the run
   terminates against a permanently dead node. *)
let test_budget_exhaustion_clean_abort () =
  let s =
    Scenario.retail ~latency:(Latency.Constant 1.) ~n_servers:3 ~n_subjects:1 ()
  in
  let cluster = s.Scenario.cluster in
  Transport.at (Cluster.transport cluster) ~delay:6.5 (fun () ->
      Participant.crash (Cluster.participant cluster "server-2"));
  let policy =
    Timeout_policy.adaptive ~min_timeout:5. ~backoff_max:20. ~vote_budget:2
      ~retry_budget:2 ()
  in
  let config =
    Manager.config ~vote_timeout:25. ~decision_retry:10. ~timeout_policy:policy
      Scheme.Deferred Consistency.View
  in
  let result = ref None in
  let txn =
    Scenario.spread_transaction s ~id:"t1" ~subject:"clerk-1" ~queries:3 ()
  in
  Manager.submit cluster config txn ~on_done:(fun o -> result := Some o);
  ignore (Cluster.run cluster);
  match !result with
  | None -> Alcotest.fail "transaction hung against a dead participant"
  | Some o ->
    Alcotest.(check bool) "aborted" false o.Outcome.committed;
    Alcotest.(check string) "clean budget-exhausted abort" "budget-exhausted"
      (Outcome.reason_name o.Outcome.reason)

(* ------------------------------------------------------------------ *)
(* Circuit breakers and admission control                              *)
(* ------------------------------------------------------------------ *)

let servers = [ "server-1" ]

let indict r ~txn ~now =
  match Resilience.admit r ~txn ~servers ~now with
  | Ok () ->
    Resilience.note_outcome r ~txn ~servers ~now ~reason:Outcome.Timed_out
  | Error _ -> Alcotest.failf "%s: expected admission" txn

let test_breaker_lifecycle () =
  let r = Resilience.create (Resilience.config ~failure_threshold:2 ~cooldown:50. ()) in
  indict r ~txn:"t1" ~now:1.;
  Alcotest.(check (list (pair string string)))
    "one strike stays closed"
    [ ("server-1", "closed") ]
    (List.map (fun (s, st) -> (s, Resilience.state_name st)) (Resilience.states r));
  indict r ~txn:"t2" ~now:2.;
  Alcotest.(check (list (pair string string)))
    "second consecutive strike trips"
    [ ("server-1", "open") ]
    (List.map (fun (s, st) -> (s, Resilience.state_name st)) (Resilience.states r));
  (* Open and inside the cooldown: fail fast. *)
  (match Resilience.admit r ~txn:"t3" ~servers ~now:10. with
  | Error (`Breaker s) -> Alcotest.(check string) "names the server" "server-1" s
  | Ok () | Error `Admission -> Alcotest.fail "expected a breaker fast-fail");
  Alcotest.(check int) "fast-fail counted" 1 (Resilience.fail_fasts r);
  (* Past the cooldown the next admit becomes the half-open probe... *)
  (match Resilience.admit r ~txn:"t4" ~servers ~now:53. with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "expected the probe to be admitted");
  Alcotest.(check (list (pair string string)))
    "probing half-open"
    [ ("server-1", "half-open") ]
    (List.map (fun (s, st) -> (s, Resilience.state_name st)) (Resilience.states r));
  (* ...and while it is outstanding everyone else still fails fast. *)
  (match Resilience.admit r ~txn:"t5" ~servers ~now:54. with
  | Error (`Breaker _) -> ()
  | Ok () | Error `Admission -> Alcotest.fail "half-open must admit one probe");
  (* A failed probe re-opens... *)
  Resilience.note_outcome r ~txn:"t4" ~servers ~now:60.
    ~reason:Outcome.Budget_exhausted;
  Alcotest.(check (list (pair string string)))
    "failed probe re-opens"
    [ ("server-1", "open") ]
    (List.map (fun (s, st) -> (s, Resilience.state_name st)) (Resilience.states r));
  (* ...and a successful probe after another cooldown closes for good. *)
  (match Resilience.admit r ~txn:"t6" ~servers ~now:111. with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "expected the second probe to be admitted");
  Resilience.note_outcome r ~txn:"t6" ~servers ~now:112.
    ~reason:Outcome.Committed;
  Alcotest.(check (list (pair string string)))
    "successful probe closes"
    [ ("server-1", "closed") ]
    (List.map (fun (s, st) -> (s, Resilience.state_name st)) (Resilience.states r));
  Alcotest.(check int) "nothing left in flight" 0 (Resilience.in_flight r)

let test_admission_bound () =
  let r = Resilience.create (Resilience.config ~max_in_flight:2 ()) in
  let admit txn =
    match Resilience.admit r ~txn ~servers ~now:1. with
    | Ok () -> true
    | Error `Admission -> false
    | Error (`Breaker _) -> Alcotest.fail "no breaker should be open"
  in
  Alcotest.(check bool) "first admitted" true (admit "t1");
  Alcotest.(check bool) "second admitted" true (admit "t2");
  Alcotest.(check bool) "third rejected at the bound" false (admit "t3");
  Alcotest.(check int) "reject counted" 1 (Resilience.admission_rejects r);
  Alcotest.(check int) "two in flight" 2 (Resilience.in_flight r);
  Resilience.note_outcome r ~txn:"t1" ~servers ~now:2.
    ~reason:Outcome.Committed;
  Alcotest.(check bool) "slot freed, next admitted" true (admit "t4")

(* ------------------------------------------------------------------ *)
(* Watchtower rules                                                    *)
(* ------------------------------------------------------------------ *)

let quiet =
  {
    Slo.stuck_ms = infinity;
    staleness_versions = max_int;
    staleness_ms = infinity;
    abort_window = 0;
    abort_rate = 1.1;
    livelock_kills = max_int;
    flap_window = infinity;
    flap_transitions = max_int;
    reject_window = infinity;
    reject_count = max_int;
  }

let test_breaker_flap_rule () =
  let rules = { quiet with Slo.flap_window = 100.; flap_transitions = 3 } in
  let m = Monitor.create ~rules () in
  let transition seq time_ms to_ =
    Monitor.observe m ~seq ~time_ms
      (Monitor.Breaker_transition { server = "server-2"; from_ = "x"; to_ })
  in
  transition 1 10. "open";
  transition 2 20. "half-open";
  Alcotest.(check int) "two transitions stay quiet" 0 (Monitor.fired_total m);
  transition 3 30. "open";
  (match Monitor.open_alerts m with
  | [ a ] ->
    Alcotest.(check string) "rule" "breaker_flap" a.Slo.rule;
    Alcotest.(check string) "subject" "server-2" a.Slo.subject
  | alerts -> Alcotest.failf "expected one alert, got %d" (List.length alerts));
  (* Outside the window the streak no longer counts: the alert resolves
     on the next (lone) transition. *)
  transition 4 500. "closed";
  Alcotest.(check int) "resolved outside the window" 0
    (List.length (Monitor.open_alerts m))

let test_admission_storm_rule () =
  let rules = { quiet with Slo.reject_window = 100.; reject_count = 2 } in
  let m = Monitor.create ~rules () in
  let reject seq time_ms txn =
    Monitor.observe m ~seq ~time_ms
      (Monitor.Admission_reject
         { txn; reason = "admission-rejected"; server = None })
  in
  reject 1 10. "t1";
  Alcotest.(check int) "one reject stays quiet" 0 (Monitor.fired_total m);
  reject 2 15. "t2";
  match Monitor.open_alerts m with
  | [ a ] ->
    Alcotest.(check string) "rule" "admission_storm" a.Slo.rule;
    Alcotest.(check string) "subject" "cluster" a.Slo.subject
  | alerts -> Alcotest.failf "expected one alert, got %d" (List.length alerts)

(* ------------------------------------------------------------------ *)
(* Plan grammar v2                                                     *)
(* ------------------------------------------------------------------ *)

let gray_plan =
  {
    Plan.seed = 7L;
    horizon = 50.;
    ops =
      [
        Plan.Slow_server { server = 1; extra = 12.; at = 5.; duration = 10. };
        Plan.Latency_burst { extra = 4.; at = 8.; duration = 6. };
        Plan.Lossy_link { src = 0; dst = 2; p = 0.5; at = 3.; duration = 9. };
      ];
  }

let test_plan_v2_round_trip () =
  match Plan.of_string (Plan.to_string gray_plan) with
  | Error e -> Alcotest.fail e
  | Ok back ->
    Alcotest.(check string) "gray ops and horizon round-trip"
      (Plan.to_string gray_plan) (Plan.to_string back)

let test_plan_v1_still_loads () =
  (* A pre-v2 plan file: no version, no horizon. *)
  let v1 =
    {|{"seed":"5","ops":[{"op":"drop-burst","p":0.5,"at":10,"duration":5}]}|}
  in
  match Plan.of_string v1 with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check (float 0.)) "v1 defaults to the standard horizon"
      Plan.fault_horizon p.Plan.horizon;
    Alcotest.(check int) "ops load" 1 (List.length p.Plan.ops)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
  in
  m = 0 || go 0

let test_plan_future_version_rejected () =
  let v3 = {|{"version":3,"seed":"5","horizon":100,"ops":[]}|} in
  match Plan.of_string v3 with
  | Ok _ -> Alcotest.fail "a v3 plan must be rejected"
  | Error why ->
    Alcotest.(check bool) "names the version" true (contains why "version 3")

(* ------------------------------------------------------------------ *)
(* Gray-fault chaos campaign                                           *)
(* ------------------------------------------------------------------ *)

let is_gray = function
  | Plan.Slow_server _ | Plan.Latency_burst _ | Plan.Lossy_link _ -> true
  | _ -> false

let gray_base_seed = 9000L
let gray_plans = 3

let run_gray () =
  Campaign.run
    ~policy:(Timeout_policy.adaptive ())
    ~resilience:(Resilience.config ())
    ~base_seed:gray_base_seed ~plans:gray_plans ()

let test_gray_campaign_clean () =
  (* The seed batch must actually contain gray faults, or the sweep
     proves nothing about them. *)
  let batch =
    List.init gray_plans (fun i ->
        Plan.random ~seed:(Int64.add gray_base_seed (Int64.of_int i)) ())
  in
  Alcotest.(check bool) "batch contains a gray fault" true
    (List.exists (fun p -> List.exists is_gray p.Plan.ops) batch);
  let verdict = run_gray () in
  Alcotest.(check int) "all cells x plans ran" (8 * gray_plans)
    verdict.Campaign.plans_run;
  match verdict.Campaign.failures with
  | [] -> ()
  | c :: _ ->
    Alcotest.failf "%d violation(s); first: %s seed=%Ld: %s"
      (List.length verdict.Campaign.failures)
      (Campaign.cell_name c.Campaign.cell)
      c.Campaign.plan.Plan.seed c.Campaign.failure.Campaign.what

let test_gray_campaign_deterministic () =
  let summarize (v : Campaign.verdict) =
    String.concat "\n"
      (List.map
         (fun (c : Campaign.case) ->
           Printf.sprintf "%s seed=%Ld: %s"
             (Campaign.cell_name c.Campaign.cell)
             c.Campaign.plan.Plan.seed c.Campaign.failure.Campaign.what)
         v.Campaign.failures)
  in
  Alcotest.(check string) "same seeds, same verdicts"
    (summarize (run_gray ())) (summarize (run_gray ()))

(* ------------------------------------------------------------------ *)
(* Fixed policy: byte-exact against the pre-policy capture             *)
(* ------------------------------------------------------------------ *)

(* Committed test data: resolved relative to the sandbox (dune runtest)
   or the repo root (dune exec). *)
let data_file name =
  if Sys.file_exists name then name else Filename.concat "test" name

let read_lines path =
  let ic = open_in_bin (data_file path) in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let golden_cell = { Campaign.scheme = Scheme.Continuous; level = Consistency.Global }

let test_fixed_golden_byte_exact () =
  let golden = read_lines "golden_resilience_fixed.jsonl" in
  let plan =
    match Plan.of_string (String.concat "" (read_lines "golden_resilience_plan.json")) with
    | Ok p -> p
    | Error e -> Alcotest.failf "golden plan unreadable: %s" e
  in
  let path = Filename.temp_file "cloudtx_resilience_fixed" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Campaign.run_plan ~journal_path:path golden_cell plan with
      | Ok () -> ()
      | Error f -> Alcotest.failf "golden plan failed: %s" f.Campaign.what);
      let fresh = read_lines path in
      Alcotest.(check int) "same record count" (List.length golden)
        (List.length fresh);
      (* The header carries the bumped journal version; every record
         after it must be byte-identical to the pre-policy capture. *)
      List.iteri
        (fun i (g, f) ->
          if i > 0 && not (String.equal g f) then
            Alcotest.failf "line %d diverged from the golden capture:\n%s\n%s"
              (i + 1) g f)
        (List.combine golden fresh))

let test_golden_v3_journal_audits_clean () =
  match Audit.run ~lines:(read_lines "golden_resilience_fixed.jsonl") with
  | Ok _ -> ()
  | Error why -> Alcotest.failf "v3 capture no longer audits: %s" why

let () =
  Alcotest.run "resilience"
    [
      ( "policy",
        [
          Alcotest.test_case "backoff deterministic, jitter bounded" `Quick
            test_backoff_deterministic;
          Alcotest.test_case "backoff grows and caps" `Quick
            test_backoff_grows_and_caps;
          Alcotest.test_case "budget exhaustion aborts cleanly" `Quick
            test_budget_exhaustion_clean_abort;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "lifecycle" `Quick test_breaker_lifecycle;
          Alcotest.test_case "admission bound" `Quick test_admission_bound;
        ] );
      ( "watchtower",
        [
          Alcotest.test_case "breaker flap rule" `Quick test_breaker_flap_rule;
          Alcotest.test_case "admission storm rule" `Quick
            test_admission_storm_rule;
        ] );
      ( "plan-v2",
        [
          Alcotest.test_case "gray ops round-trip" `Quick test_plan_v2_round_trip;
          Alcotest.test_case "v1 plans still load" `Quick test_plan_v1_still_loads;
          Alcotest.test_case "future versions rejected" `Quick
            test_plan_future_version_rejected;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "gray sweep clean across the grid" `Slow
            test_gray_campaign_clean;
          Alcotest.test_case "gray sweep deterministic" `Slow
            test_gray_campaign_deterministic;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fixed policy byte-exact vs v3 capture" `Quick
            test_fixed_golden_byte_exact;
          Alcotest.test_case "v3 capture audits clean" `Quick
            test_golden_v3_journal_audits_clean;
        ] );
    ]
