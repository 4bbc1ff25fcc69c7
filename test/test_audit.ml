(* Offline replay auditor over flight-recorder journals.

   Three angles:
   - clean journals from every scheme x consistency-level cell audit with
     zero divergences;
   - the auditor's recomputed Table I counts equal both the live metrics
     registry and the paper's closed forms;
   - each tampering kind (dropped record, reordered delivery, flipped
     vote, stale policy version) is rejected with a diagnostic naming the
     first divergent seq. *)

module Audit = Cloudtx_core.Audit
module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Complexity = Cloudtx_core.Complexity
module Outcome = Cloudtx_protocol.Outcome
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Scenario = Cloudtx_workload.Scenario
module Table1 = Cloudtx_workload.Table1
module Transport = Cloudtx_sim.Transport
module Journal = Cloudtx_obs.Journal
module Registry = Cloudtx_obs.Registry

let all_cells =
  List.concat_map
    (fun scheme ->
      List.map (fun level -> (scheme, level)) [ Consistency.View; Consistency.Global ])
    Scheme.all

let cell_name scheme level =
  Printf.sprintf "%s/%s" (Scheme.name scheme) (Consistency.name level)

let lines_of journal =
  String.split_on_char '\n' (Journal.to_string journal)
  |> List.filter (fun l -> not (String.equal l ""))

(* A Table1-style single-transaction worst-case run with the flight
   recorder and the metric registry both live. *)
let run_cell ?(n_servers = 4) ?(queries = 4) scheme level staleness =
  let scenario = Scenario.retail ~n_servers ~n_subjects:1 () in
  let cluster = scenario.Scenario.cluster in
  let transport = Cluster.transport cluster in
  let journal = Transport.enable_journal transport in
  let registry = Transport.enable_metrics transport in
  (match staleness with
  | Table1.Fresh -> ()
  | Table1.View_worst ->
    ignore
      (Cluster.publish cluster ~domain:"retail"
         ~delay:(`Fixed (fun s -> if String.equal s "server-1" then 0. else infinity))
         (Scenario.clerk_rules_refreshed ()))
  | Table1.Global_worst ->
    ignore
      (Cluster.publish cluster ~domain:"retail"
         ~delay:(`Fixed (fun _ -> infinity))
         (Scenario.clerk_rules_refreshed ())));
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries ()
  in
  let outcome = Manager.run_one cluster (Manager.config scheme level) txn in
  (lines_of journal, outcome, registry)

let audit_ok what lines =
  match Audit.run ~lines with
  | Ok report -> report
  | Error e -> Alcotest.failf "%s: audit rejected a clean journal: %s" what e

(* --- clean journals --------------------------------------------------- *)

let test_every_cell_audits_clean () =
  List.iter
    (fun (scheme, level) ->
      let what = cell_name scheme level in
      let lines, outcome, _ =
        run_cell scheme level (Table1.worst_for scheme level)
      in
      let report = audit_ok what lines in
      Alcotest.(check int) (what ^ ": transactions") 1 report.Audit.transactions;
      Alcotest.(check int)
        (what ^ ": commits")
        (if outcome.Outcome.committed then 1 else 0)
        report.Audit.commits;
      Alcotest.(check bool) (what ^ ": committed") true outcome.Outcome.committed)
    all_cells

(* --- Table I accounting ----------------------------------------------- *)

let test_counts_match_registry_and_closed_forms () =
  let n = 4 and u = 4 in
  List.iter
    (fun (scheme, level) ->
      let what = cell_name scheme level in
      let staleness = Table1.worst_for scheme level in
      let lines, outcome, registry =
        run_cell ~n_servers:n ~queries:u scheme level staleness
      in
      let report = audit_ok what lines in
      (* Recomputed from the journal alone = live registry. *)
      Alcotest.(check int)
        (what ^ ": protocol messages, journal vs registry")
        (Table1.protocol_messages registry)
        report.Audit.protocol_messages;
      Alcotest.(check int)
        (what ^ ": proofs, journal vs registry")
        (Registry.counter_total registry "proofs_total")
        report.Audit.proofs;
      Alcotest.(check int)
        (what ^ ": forced logs, journal vs registry")
        (Registry.counter_total registry "log_force_total")
        report.Audit.forced_logs;
      (* ...and = the paper's closed forms (proofs are exact; the bench
         documents measured messages under-shooting the message form by 2
         in view-worst cells, so only proofs are asserted here). *)
      let r = max 1 outcome.Outcome.commit_rounds in
      Alcotest.(check int)
        (what ^ ": proofs, journal vs closed form")
        (Complexity.proofs scheme level ~n ~u ~r)
        report.Audit.proofs;
      Alcotest.(check int)
        (what ^ ": proofs, journal vs outcome")
        outcome.Outcome.proofs_evaluated report.Audit.proofs)
    all_cells

(* --- tampering -------------------------------------------------------- *)

let index_of_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.equal (String.sub s i m) sub then Some i
    else go (i + 1)
  in
  go 0

let contains s sub = Option.is_some (index_of_sub s sub)

let replace_once line ~old_sub ~new_sub =
  match index_of_sub line old_sub with
  | None -> None
  | Some i ->
      Some
        (String.sub line 0 i ^ new_sub
        ^ String.sub line
            (i + String.length old_sub)
            (String.length line - i - String.length old_sub))

(* [{"seq":..,...,"payload":<p>}] -> (prefix incl. ["payload":], <p> sans
   the final brace). *)
let split_payload line =
  match index_of_sub line "\"payload\":" with
  | None -> Alcotest.failf "record has no payload: %s" line
  | Some i ->
      let cut = i + String.length "\"payload\":" in
      ( String.sub line 0 cut,
        String.sub line cut (String.length line - cut - 1) )

let baseline =
  lazy
    (let lines, _, _ =
       run_cell Scheme.Deferred Consistency.Global Table1.Fresh
     in
     lines)

let expect_rejected what lines =
  match Audit.run ~lines with
  | Ok _ -> Alcotest.failf "%s: tampered journal passed the audit" what
  | Error e ->
      if not (contains e "seq") then
        Alcotest.failf "%s: diagnostic does not name the divergent seq: %s" what e

let test_dropped_record () =
  let lines = Lazy.force baseline in
  let drop = List.length lines / 2 in
  let tampered = List.filteri (fun i _ -> i <> drop) lines in
  expect_rejected "dropped record" tampered

let test_reordered_delivery () =
  let lines = Lazy.force baseline in
  (* Swap the payloads of two TM deliveries carrying different message
     kinds (an execute reply and a commit-round reply), keeping seq and
     timestamps intact — a reordering no seq check can see. *)
  let is_tm_deliver tag l =
    contains l "\"node\":\"tm-t1\""
    && contains l "\"dir\":\"input\""
    && contains l "{\"t\":\"deliver\""
    && contains l ("\"msg\":{\"t\":\"" ^ tag ^ "\"")
  in
  let indexed = List.mapi (fun i l -> (i, l)) lines in
  let find tag =
    match List.find_opt (fun (_, l) -> is_tm_deliver tag l) indexed with
    | Some hit -> hit
    | None -> Alcotest.failf "baseline journal has no TM %s delivery" tag
  in
  let i, li = find "execute-reply" and j, lj = find "commit-reply" in
  let pi, payload_i = split_payload li and pj, payload_j = split_payload lj in
  let tampered =
    List.mapi
      (fun k l ->
        if k = i then pi ^ payload_j ^ "}"
        else if k = j then pj ^ payload_i ^ "}"
        else l)
      lines
  in
  expect_rejected "reordered delivery" tampered

let test_flipped_vote () =
  let lines = Lazy.force baseline in
  let flipped = ref false in
  let tampered =
    List.map
      (fun l ->
        if
          (not !flipped)
          && contains l "\"dir\":\"input\""
          && contains l "{\"t\":\"prepared\""
        then
          match replace_once l ~old_sub:"\"vote\":true" ~new_sub:"\"vote\":false" with
          | Some l' ->
              flipped := true;
              l'
          | None -> l
        else l)
      lines
  in
  Alcotest.(check bool) "found a YES vote to flip" true !flipped;
  expect_rejected "flipped vote" tampered

let test_stale_version () =
  let lines = Lazy.force baseline in
  (* Age the policy copy a participant reports in its first commit-round
     reply: the replayed TM sees a version skew the live one never saw. *)
  let bumped = ref false in
  let tampered =
    List.map
      (fun l ->
        if
          (not !bumped)
          && contains l "\"dir\":\"input\""
          && contains l "\"t\":\"commit-reply\""
        then
          match replace_once l ~old_sub:"\"version\":1" ~new_sub:"\"version\":9" with
          | Some l' ->
              bumped := true;
              l'
          | None -> l
        else l)
      lines
  in
  Alcotest.(check bool) "found a policy version to bump" true !bumped;
  expect_rejected "stale version" tampered

let test_truncated_journal () =
  let lines = Lazy.force baseline in
  (* Cut right before the last action record, so the replayed machine's
     final emissions go unmatched (a tail cut leaves no seq gap to trip
     on — only the pending-action check catches it). *)
  let last_action =
    List.fold_left
      (fun (i, last) l ->
        (i + 1, if contains l "\"dir\":\"action\"" then i else last))
      (0, -1) lines
    |> snd
  in
  Alcotest.(check bool) "journal has an action record" true (last_action >= 0);
  let tampered = List.filteri (fun i _ -> i < last_action) lines in
  expect_rejected "truncated journal" tampered

(* Equality of meaning is equality of bytes: an action record that still
   decodes to the replayed action but is not its canonical rendering (an
   extra field, two fields swapped) is rejected, naming its seq. *)
let test_non_canonical_action () =
  let module Json = Cloudtx_policy.Json in
  let lines = Lazy.force baseline in
  let rewrite what edit =
    let hit = ref None in
    let tampered =
      List.map
        (fun l ->
          if !hit = None && contains l "\"dir\":\"action\"" then
            match Json.parse l with
            | Ok (Json.Obj fields) -> (
              match (List.assoc "payload" fields, List.assoc "seq" fields) with
              | Json.Obj payload, Json.Int seq -> (
                match edit payload with
                | Some payload ->
                  hit := Some seq;
                  let prefix, _ = split_payload l in
                  prefix ^ Json.to_string (Json.Obj payload) ^ "}"
                | None -> l)
              | _ -> l)
            | _ -> l
          else l)
        lines
    in
    match !hit with
    | None -> Alcotest.failf "%s: no action record to tamper with" what
    | Some seq -> (
      match Audit.run ~lines:tampered with
      | Ok _ -> Alcotest.failf "%s: non-canonical action passed the audit" what
      | Error e ->
        if not (contains e (Printf.sprintf "seq %d " seq)) then
          Alcotest.failf "%s: diagnostic does not name seq %d: %s" what seq e)
  in
  rewrite "extra field" (fun payload -> Some (payload @ [ ("extra", Json.Bool true) ]));
  rewrite "swapped fields" (function
    | tag :: a :: b :: rest -> Some (tag :: b :: a :: rest)
    | _ -> None)

(* --- format compatibility --------------------------------------------- *)

(* Journals recorded before codec v3 lack the Apply write stamps; the
   auditor must render replayed actions as that version encoded them and
   still byte-match.  Downgrade a fresh journal: v2 header, Apply action
   payloads re-encoded without the writes field. *)
let test_v2_journal_still_audits () =
  let module Json = Cloudtx_policy.Json in
  let module Codec = Cloudtx_protocol.Codec in
  let module Ps = Cloudtx_protocol.Ps_machine in
  let lines, _, _ =
    run_cell Scheme.Deferred Consistency.Global Table1.Global_worst
  in
  let v3_report = audit_ok "v3 original" lines in
  let downgraded =
    match lines with
    | [] -> []
    | _header :: records ->
      {|{"journal":"cloudtx","version":2}|}
      :: List.map
           (fun line ->
             match Json.parse line with
             | Error _ -> line
             | Ok j -> (
               let get name =
                 match Json.member name j with Ok v -> v | Error _ -> Json.Null
               in
               match (Json.to_str (get "dir"), Json.member "payload" j) with
               | Ok "action", Ok payload -> (
                 match Codec.ps_action_of_json payload with
                 | Ok (Ps.Apply _ as a) ->
                   Json.to_string
                     (Json.Obj
                        [
                          ("seq", get "seq");
                          ("time_ms", get "time_ms");
                          ("node", get "node");
                          ("dir", get "dir");
                          ("payload", Codec.ps_action_to_json_at ~version:2 a);
                        ])
                 | _ -> line)
               | _ -> line))
           records
  in
  let stamped l = contains l "\"t\":\"apply\"" && contains l "\"writes\"" in
  Alcotest.(check bool) "journal carried write stamps" true
    (List.exists stamped lines);
  Alcotest.(check bool) "downgrade removed them" true
    (not (List.exists stamped downgraded));
  let v2_report = audit_ok "v2 downgraded" downgraded in
  Alcotest.(check int) "same record count" v3_report.Audit.records
    v2_report.Audit.records;
  Alcotest.(check int) "same commits" v3_report.Audit.commits
    v2_report.Audit.commits

let () =
  Alcotest.run "audit"
    [
      ( "replay",
        [
          Alcotest.test_case "every cell audits clean" `Quick
            test_every_cell_audits_clean;
          Alcotest.test_case "counts match registry and closed forms" `Quick
            test_counts_match_registry_and_closed_forms;
        ] );
      ( "tampering",
        [
          Alcotest.test_case "dropped record" `Quick test_dropped_record;
          Alcotest.test_case "reordered delivery" `Quick test_reordered_delivery;
          Alcotest.test_case "flipped vote" `Quick test_flipped_vote;
          Alcotest.test_case "stale version" `Quick test_stale_version;
          Alcotest.test_case "truncated journal" `Quick test_truncated_journal;
          Alcotest.test_case "non-canonical action" `Quick
            test_non_canonical_action;
        ] );
      ( "compat",
        [
          Alcotest.test_case "v2 journal still audits" `Quick
            test_v2_journal_still_audits;
        ] );
    ]
