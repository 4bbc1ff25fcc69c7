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
module Tpc = Cloudtx_txn.Tpc
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

(* What a dedup-off replay of [p] violates, if anything. *)
let dedup_off_fails p =
  match Campaign.run_plan ~dedup:false fragile_cell p with
  | Ok () -> None
  | Error f -> Some f.Campaign.what

(* [find_failure]'s plan shrunk, with its diagnosis. *)
let minimal_failure () =
  let plan, _ = find_failure () in
  match Shrink.minimize ~fails:dedup_off_fails plan with
  | None -> Alcotest.fail "plan stopped failing under replay"
  | Some (minimal, what) -> (minimal, what)

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
  let minimal, what = minimal_failure () in
  Alcotest.(check bool)
    (Printf.sprintf "minimal plan has <= 3 ops (%s)" (Plan.to_string minimal))
    true
    (List.length minimal.Plan.ops <= 3);
  Alcotest.(check bool) "still a delivery failure" true (String.length what > 0);
  (* Determinism: the whole find + shrink pipeline replays identically. *)
  let minimal', what' = minimal_failure () in
  Alcotest.(check string) "same minimal plan" (Plan.to_string minimal)
    (Plan.to_string minimal');
  Alcotest.(check string) "same diagnosis" what what'

let test_shrunk_journal_rejected_by_audit () =
  let minimal, _ = minimal_failure () in
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

(* ------------------------------------------------------------------ *)
(* Late deliveries to a finished coordinator                           *)
(* ------------------------------------------------------------------ *)

module Journal = Cloudtx_obs.Journal
module Journal_io = Cloudtx_core.Journal_io
module Codec_bin = Cloudtx_protocol.Codec_bin
module Tm = Cloudtx_protocol.Tm_machine
module Message = Cloudtx_protocol.Message

(* Plan 1163 on continuous:view, the run that
   [cloudtx chaos --cell continuous:view --seeds 1 --base-seed 1163 --certify
   --journal-out J] records.  tm-t1 aborts on its vote timeout, and the
   participants' inquiry timers fire while its decision is in flight: the
   last ack lands with three inquiries still on the wire. *)
let late_cell = { Campaign.scheme = Scheme.Continuous; level = Consistency.View }

let plan_1163_journal format =
  let path = Filename.temp_file "plan-1163" ".journal" in
  let result =
    Campaign.run_plan ~certify:true ~journal_format:format ~journal_path:path
      late_cell (Plan.random ~seed:1163L ())
  in
  let contents = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (match result with
  | Ok () -> ()
  | Error f -> Alcotest.fail ("plan 1163: " ^ f.Campaign.what));
  contents

let describe_tm_record (r : Journal_io.record) =
  match r.Journal_io.body with
  | Journal_io.Payload (Codec_bin.Tm_input (Tm.Deliver { src; msg })) ->
    Printf.sprintf "deliver %s from %s" (Message.label msg) src
  | Journal_io.Payload (Codec_bin.Tm_input Tm.Retry_fired) -> "retry-fired"
  | Journal_io.Payload (Codec_bin.Tm_action (Tm.Send { dst; msg })) ->
    Printf.sprintf "send %s to %s" (Message.label msg) dst
  | Journal_io.Payload (Codec_bin.Tm_action (Tm.Finish _)) -> "finish"
  | Journal_io.Payload p -> Codec_bin.payload_dir p
  | Journal_io.Event _ -> "event"
  | Journal_io.Undecodable m -> "undecodable " ^ m

(* Every tm-t1 record from its finish action on, in journal order. *)
let tm_t1_after_finish contents =
  let step (after, acc) (r : Journal_io.record) =
    if not (String.equal r.Journal_io.node "tm-t1") then (after, acc)
    else
      match describe_tm_record r with
      | "finish" -> (true, [ "finish" ])
      | d -> if after then (true, d :: acc) else (false, acc)
  in
  match Journal_io.fold contents ~init:(fun _ -> (false, [])) step with
  | Ok (_, acc) -> List.rev acc
  | Error m -> Alcotest.fail m

let test_late_deliveries_reach_finished_tm () =
  let jsonl = plan_1163_journal Journal.Jsonl in
  let bin = plan_1163_journal Journal.Binary in
  Alcotest.(check (list string))
    "stale inquiries answered, late acks and a retry after finish"
    [
      "finish";
      "deliver inquiry from server-1";
      "send decision-abort to server-1";
      "deliver inquiry from server-3";
      "send decision-abort to server-3";
      "deliver inquiry from server-2";
      "send decision-abort to server-2";
      "deliver decision-ack from server-1";
      "deliver decision-ack from server-3";
      "deliver decision-ack from server-2";
      "retry-fired";
    ]
    (tm_t1_after_finish jsonl);
  Alcotest.(check (list string))
    "binary journal holds the same records" (tm_t1_after_finish jsonl)
    (tm_t1_after_finish bin);
  Alcotest.(check string) "JSONL journal digest"
    "3cdbc414b11fe55ff623dce272fedacd"
    (Digest.to_hex (Digest.string jsonl));
  Alcotest.(check string) "binary journal digest"
    "61b3da6519c10283b7f9b18eb26500b1"
    (Digest.to_hex (Digest.string bin))

(* ------------------------------------------------------------------ *)
(* The recording format                                                *)
(* ------------------------------------------------------------------ *)

module Timeout_policy = Cloudtx_protocol.Timeout_policy
module Resilience = Cloudtx_core.Resilience

let gray_run_plan ?journal_path cell plan =
  Campaign.run_plan ~certify:true ~policy:(Timeout_policy.adaptive ())
    ~resilience:(Resilience.config ()) ?journal_path cell plan

let non_blank_lines s =
  List.filter
    (fun l -> not (String.equal (String.trim l) ""))
    (String.split_on_char '\n' s)

(* A run that writes no file and the same run writing a JSONL file must
   reach the same verdict and carry the same failure journal, which for a
   failing run is the file's own lines.  [run] runs the plan, given a
   journal path or none. *)
let check_recording_invisible name run =
  let path = Filename.temp_file "recording" ".jsonl" in
  let in_memory = run None in
  let to_file = run (Some path) in
  let file = non_blank_lines (In_channel.with_open_bin path In_channel.input_all) in
  Sys.remove path;
  match (in_memory, to_file) with
  | Ok (), Ok () -> ()
  | Error m, Error f ->
    Alcotest.(check string) (name ^ ": same violation") f.Campaign.what
      m.Campaign.what;
    Alcotest.(check (list string)) (name ^ ": same failure journal")
      f.Campaign.journal m.Campaign.journal;
    Alcotest.(check (list string)) (name ^ ": the file's lines") file
      f.Campaign.journal
  | Ok (), Error f | Error f, Ok () ->
    Alcotest.failf "%s: one run passed, the other failed: %s" name
      f.Campaign.what

let test_recording_invisible () =
  let plan, _ = find_failure () in
  let minimal, _ = minimal_failure () in
  List.iter
    (fun (name, plan) ->
      check_recording_invisible name (fun journal_path ->
          Campaign.run_plan ~dedup:false ?journal_path fragile_cell plan))
    [ ("dedup-off plan", plan); ("shrunk plan", minimal) ];
  check_recording_invisible "gray plan 1002" (fun journal_path ->
      gray_run_plan ?journal_path fragile_cell (Plan.random ~seed:1002L ()))

(* A gray run (adaptive timeouts, breakers, certify) whose journal goes to
   no file allocates about 69 k minor words; one that renders every
   record to JSON text reads about 310 k. *)
let test_gray_run_words () =
  let runs =
    List.concat_map
      (fun cell ->
        List.map (fun seed -> (cell, Plan.random ~seed ())) [ 1000L; 1001L ])
      Campaign.all_cells
  in
  let run (cell, plan) =
    match gray_run_plan cell plan with
    | Ok () -> ()
    | Error f ->
      Alcotest.failf "%s seed=%Ld: %s" (Campaign.cell_name cell) plan.Plan.seed
        f.Campaign.what
  in
  run (List.hd runs);
  let w0 = Gc.minor_words () in
  List.iter run runs;
  let per_run = (Gc.minor_words () -. w0) /. float_of_int (List.length runs) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words a gray run (< 100 000)" per_run)
    true (per_run < 100_000.)

(* ------------------------------------------------------------------ *)
(* 2PC variants: AC3 and a redone decision                             *)
(* ------------------------------------------------------------------ *)

module Ps = Cloudtx_protocol.Ps_machine

(* The records of a journal file in which a participant recovers with a
   transaction in doubt. *)
let in_doubt_recoveries path =
  match
    Journal_io.fold_file path ~init:(fun _ -> 0) (fun n r ->
        match r.Journal_io.body with
        | Journal_io.Payload
            (Codec_bin.Ps_input (Ps.Recovered { in_doubt = _ :: _; _ })) ->
          n + 1
        | _ -> n)
  with
  | Ok n -> n
  | Error m -> Alcotest.fail m

(* Every cell on plans 5000-5029 under each decision-logging variant.
   Presumed commit logs commits unforced, so a participant that crashes
   after one recovers in doubt and applies the same commit again: the
   audit accepts that redo, and only that.  Each sweep must recover some
   node with a transaction in doubt, or the audit's recovery check would
   pass without checking anything. *)
let test_variants_clean () =
  let path = Filename.temp_file "variants" ".jsonl" in
  List.iter
    (fun (name, variant) ->
      let failures = ref [] in
      let recoveries = ref 0 in
      List.iter
        (fun cell ->
          for seed = 5000 to 5029 do
            let plan = Plan.random ~seed:(Int64.of_int seed) () in
            (match
               Campaign.run_plan ~certify:true ~variant ~journal_path:path cell
                 plan
             with
            | Ok () -> ()
            | Error f ->
              failures :=
                Printf.sprintf "%s seed=%d: %s" (Campaign.cell_name cell) seed
                  f.Campaign.what
                :: !failures);
            recoveries := !recoveries + in_doubt_recoveries path
          done)
        Campaign.all_cells;
      Alcotest.(check (list string)) (name ^ ": no violation") [] !failures;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d recoveries in doubt" name !recoveries)
        true (!recoveries > 0))
    [
      ("basic", Tpc.Basic);
      ("presumed abort", Tpc.Presumed_abort);
      ("presumed commit", Tpc.Presumed_commit);
    ];
  Sys.remove path

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
  in
  go 0

let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then raise Not_found
    else if String.equal (String.sub s i m) sub then i
    else go (i + 1)
  in
  go 0

(* [line] with its first [old_sub] replaced. *)
let replace line ~old_sub ~new_sub =
  let i = index_of line old_sub in
  String.sub line 0 i ^ new_sub
  ^ String.sub line (i + String.length old_sub)
      (String.length line - i - String.length old_sub)

(* Plan 5001 on deferred:view under presumed commit.  server-2 applies
   t3's commit unforced, crashes and loses that record, recovers with t3
   in doubt, inquires and applies the same commit again. *)
let redo_journal () =
  let path = Filename.temp_file "plan-5001" ".jsonl" in
  let result =
    Campaign.run_plan ~certify:true ~variant:Tpc.Presumed_commit
      ~journal_path:path
      { Campaign.scheme = Scheme.Deferred; level = Consistency.View }
      (Plan.random ~seed:5001L ())
  in
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> not (String.equal l ""))
    |> Array.of_list
  in
  Sys.remove path;
  (match result with
  | Ok () -> ()
  | Error f -> Alcotest.fail ("plan 5001: " ^ f.Campaign.what));
  lines

let on_server_2 l = contains l "\"node\":\"server-2\""
let is_create l = on_server_2 l && contains l "\"dir\":\"create\""
let is_recovered l = on_server_2 l && contains l "{\"t\":\"recovered\""

(* The seq of a record line. *)
let seq_of l =
  let start = String.length "{\"seq\":" in
  int_of_string (String.sub l start (String.index l ',' - start))

let is_commit_apply l =
  on_server_2 l && contains l "{\"t\":\"apply\"" && contains l "\"commit\":true"

(* The indices of server-2's two applies of t3 and of its create record
   between them (the crash reset). *)
let redo_points lines =
  let find from pred =
    let rec go i = if pred lines.(i) then i else go (i + 1) in
    go from
  in
  let t3 l = is_commit_apply l && contains l "\"txn\":\"t3\"" in
  let first = find 0 t3 in
  let restart = find first is_create in
  let second = find restart t3 in
  (first, restart, second)

(* Renumbers the records 1, 2, ... after lines were added or removed. *)
let renumber lines =
  let seq = ref 0 in
  List.map
    (fun l ->
      if String.starts_with ~prefix:"{\"seq\":" l then begin
        incr seq;
        let comma = String.index l ',' in
        Printf.sprintf "{\"seq\":%d%s" !seq
          (String.sub l comma (String.length l - comma))
      end
      else l)
    lines

(* The force mark a participant records before a forced decision,
   stamped like [apply]. *)
let force_mark apply ~txn =
  let cut = index_of apply "\"payload\":" + String.length "\"payload\":" in
  String.sub apply 0 cut
  ^ Printf.sprintf "{\"t\":\"mark\",\"label\":\"log_force:decision:%s\"}}" txn

let expect_rejected what ~reason lines =
  match Audit.run ~lines:(renumber lines) with
  | Ok _ -> Alcotest.failf "%s: the audit accepted it" what
  | Error e ->
    if not (contains e reason) then
      Alcotest.failf "%s: rejected for another reason: %s" what e

let expect_ac3 what lines =
  expect_rejected what ~reason:"AC3 violated: node decides t3 twice" lines

(* The audit must reject [lines] at server-2's recovery record, whose seq
   it names once the lines are renumbered. *)
let expect_bad_recovery what ~got ~journal lines =
  let lines = renumber lines in
  let seq = seq_of (List.find is_recovered lines) in
  expect_rejected what lines
    ~reason:
      (Printf.sprintf
         "seq %d (server-2): recovered in doubt [%s], journal shows [%s]" seq
         got journal)

(* A recovery record's in-doubt list, and the entries it can hold. *)
let in_doubt entries = "\"in_doubt\":[" ^ String.concat "," entries ^ "]"
let t3 = "{\"txn\":\"t3\",\"vote\":true,\"writes\":[\"s2-k2\"]}"
let t4 = "{\"txn\":\"t4\",\"vote\":true,\"writes\":[]}"

let test_redo_audits_clean () =
  let lines = redo_journal () in
  let _, restart, second = redo_points lines in
  Alcotest.(check bool) "the redo is unforced" true
    (contains lines.(second) "\"forced\":false");
  let recovered = lines.(restart + 1) in
  Alcotest.(check bool) "server-2 recovers t3 in doubt" true
    (is_recovered recovered && contains recovered (in_doubt [ t3 ]));
  match Audit.run ~lines:(Array.to_list lines) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

(* [lines] with server-2's recovery record edited by [f]. *)
let edit_recovery lines f =
  List.map (fun l -> if is_recovered l then f l else l) (Array.to_list lines)

(* The recovery forgets t3, whose commit the crash lost. *)
let test_recovery_drops_in_doubt () =
  expect_bad_recovery "t3 dropped" ~got:"" ~journal:"t3"
    (edit_recovery (redo_journal ()) (fun l ->
         replace l ~old_sub:(in_doubt [ t3 ]) ~new_sub:(in_doubt [])))

(* The recovery names a transaction server-2 never prepared. *)
let test_recovery_adds_in_doubt () =
  expect_bad_recovery "t4 added" ~got:"t3, t4" ~journal:"t3"
    (edit_recovery (redo_journal ()) (fun l ->
         replace l ~old_sub:(in_doubt [ t3 ]) ~new_sub:(in_doubt [ t3; t4 ])))

(* [writes] (a JSON array of key/version pairs) with every version one
   higher. *)
let rec bump_versions writes =
  let tag = "\"version\":" in
  match index_of writes tag with
  | exception Not_found -> writes
  | i ->
    let start = i + String.length tag in
    let stop = ref start in
    let n = String.length writes in
    while !stop < n && '0' <= writes.[!stop] && writes.[!stop] <= '9' do
      incr stop
    done;
    let version = int_of_string (String.sub writes start (!stop - start)) in
    String.sub writes 0 start
    ^ string_of_int (version + 1)
    ^ bump_versions (String.sub writes !stop (n - !stop))

(* Without the crash reset, the second apply repeats a decision the node
   still had; its versions continue from the first apply's. *)
let test_redo_same_incarnation () =
  let lines = redo_journal () in
  let first, restart, second = redo_points lines in
  let writes l =
    let i = index_of l "\"writes\":" in
    (String.sub l 0 i, String.sub l i (String.length l - i))
  in
  let redo =
    fst (writes lines.(second)) ^ bump_versions (snd (writes lines.(first)))
  in
  expect_ac3 "same incarnation"
    (List.concat
       (List.mapi
          (fun i l ->
            if i = restart then [] else if i = second then [ redo ] else [ l ])
          (Array.to_list lines)))

(* The recovered node is told to abort what it committed before the
   crash, and logs the abort (forced, as presumed commit does). *)
let test_redo_disagrees () =
  let lines = redo_journal () in
  let _, _, second = redo_points lines in
  let apply = lines.(second) in
  let aborted =
    String.sub apply 0 (index_of apply "\"commit\":true")
    ^ "\"commit\":false,\"forced\":true,\"writes\":[]}}"
  in
  expect_ac3 "disagreeing redo"
    (List.concat
       (List.mapi
          (fun i l ->
            if i = second - 1 then
              [
                replace l ~old_sub:"\"commit\":true"
                  ~new_sub:"\"commit\":false";
              ]
            else if i = second then [ force_mark apply ~txn:"t3"; aborted ]
            else [ l ])
          (Array.to_list lines)))

(* server-2's first incarnation runs Basic 2PC, which forces every
   decision: the record of t3's commit survived the crash, so the recovery
   that still names t3 in doubt is the first record the audit rejects
   (applying t3 again would be a second decision). *)
let test_redo_after_forced () =
  let lines = redo_journal () in
  let _, restart, _ = redo_points lines in
  let first_create = ref true in
  expect_bad_recovery "redo after a forced apply" ~got:"t3" ~journal:""
    (List.concat
       (List.mapi
          (fun i l ->
            if i < restart && is_create l && !first_create then begin
              first_create := false;
              [ replace l ~old_sub:"\"presumed-commit\"" ~new_sub:"\"basic\"" ]
            end
            else if i < restart && is_commit_apply l then
              let tag = "\"txn\":\"" in
              let at = index_of l tag + String.length tag in
              let txn = String.sub l at (String.index_from l at '"' - at) in
              [
                force_mark l ~txn;
                replace l ~old_sub:"\"forced\":false"
                  ~new_sub:"\"forced\":true";
              ]
            else [ l ])
          (Array.to_list lines)))

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
      ( "recording",
        [
          Alcotest.test_case "format invisible to verdicts and journals" `Slow
            test_recording_invisible;
        ] );
      ( "allocation",
        [ Alcotest.test_case "words a gray run" `Quick test_gray_run_words ] );
      ( "late delivery",
        [
          Alcotest.test_case "plan 1163 reaches a finished TM" `Quick
            test_late_deliveries_reach_finished_tm;
        ] );
      ( "variants",
        [
          Alcotest.test_case "every variant audits clean" `Slow
            test_variants_clean;
          Alcotest.test_case "redo after a crash audits" `Quick
            test_redo_audits_clean;
          Alcotest.test_case "redo, same incarnation" `Quick
            test_redo_same_incarnation;
          Alcotest.test_case "redo that disagrees" `Quick test_redo_disagrees;
          Alcotest.test_case "redo after a forced apply" `Quick
            test_redo_after_forced;
          Alcotest.test_case "recovery that forgets a prepared txn" `Quick
            test_recovery_drops_in_doubt;
          Alcotest.test_case "recovery that invents a prepared txn" `Quick
            test_recovery_adds_in_doubt;
        ] );
    ]
