(* Watchtower: the streaming health engine (lib/obs/monitor + slo) and
   its journal bridge (lib/core/health).

   Three angles:
   - unit rule checks: each injected unhealthy scenario (stuck
     transaction, staleness breach, abort storm, livelock, vote anomaly)
     fires exactly the expected alert, with evidence, and resolves when
     health returns;
   - a clean run of every scheme x consistency-level cell fires nothing,
     live and replayed, and the live [--monitor] path sees exactly what
     an offline [watch] replay of the same journal sees;
   - tampered and stalled journals replayed offline fire the matching
     alert naming the transaction and the journal evidence range. *)

module Monitor = Cloudtx_obs.Monitor
module Slo = Cloudtx_obs.Slo
module Journal = Cloudtx_obs.Journal
module Registry = Cloudtx_obs.Registry
module Health = Cloudtx_core.Health
module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Outcome = Cloudtx_protocol.Outcome
module Scenario = Cloudtx_workload.Scenario
module Transport = Cloudtx_sim.Transport

(* Every rule off except what the test under hand switches on. *)
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

let alert_shape what ?(open_ = false) ~rule ~severity ~subject m =
  match Monitor.alerts m with
  | [ a ] ->
    Alcotest.(check string) (what ^ ": rule") rule a.Slo.rule;
    Alcotest.(check string)
      (what ^ ": severity") (Slo.severity_name severity)
      (Slo.severity_name a.Slo.severity);
    Alcotest.(check string) (what ^ ": subject") subject a.Slo.subject;
    Alcotest.(check bool) (what ^ ": open") open_ (Slo.is_open a);
    Alcotest.(check bool)
      (what ^ ": evidence range ordered") true
      (a.Slo.first_seq <= a.Slo.last_seq && a.Slo.first_seq > 0);
    a
  | alerts ->
    Alcotest.failf "%s: expected exactly one alert, got %d" what
      (List.length alerts)

(* --- unit rule checks ------------------------------------------------- *)

let test_stuck_txn () =
  let m = Monitor.create ~rules:{ quiet with Slo.stuck_ms = 100. } () in
  Monitor.observe m ~seq:1 ~time_ms:0.
    (Monitor.Txn_begin
       { txn = "t1"; node = "tm-t1"; scheme = "deferred"; level = "view" });
  Monitor.observe m ~seq:2 ~time_ms:50. (Monitor.Txn_step { txn = "t1" });
  Monitor.observe m ~seq:3 ~time_ms:120. (Monitor.Activity { node = "other" });
  Alcotest.(check int) "within deadline: nothing fires" 0 (Monitor.fired_total m);
  Monitor.observe m ~seq:4 ~time_ms:200. (Monitor.Activity { node = "other" });
  let a =
    alert_shape "stuck" ~open_:true ~rule:"stuck_txn" ~severity:Slo.Critical
      ~subject:"t1" m
  in
  Alcotest.(check string) "stuck: node" "tm-t1" a.Slo.node;
  Alcotest.(check int) "stuck: unresolved critical" 1
    (Monitor.unresolved_critical m);
  (* The machine stepping again is the recovery. *)
  Monitor.observe m ~seq:5 ~time_ms:210. (Monitor.Txn_step { txn = "t1" });
  ignore
    (alert_shape "stuck resolved" ~rule:"stuck_txn" ~severity:Slo.Critical
       ~subject:"t1" m);
  Alcotest.(check int) "stuck: no more critical" 0 (Monitor.unresolved_critical m)

let test_stuck_resolves_on_finish () =
  let m = Monitor.create ~rules:{ quiet with Slo.stuck_ms = 100. } () in
  Monitor.observe m ~seq:1 ~time_ms:0.
    (Monitor.Txn_begin
       { txn = "t1"; node = "tm-t1"; scheme = "deferred"; level = "view" });
  Monitor.observe m ~seq:2 ~time_ms:500. (Monitor.Activity { node = "other" });
  Monitor.observe m ~seq:3 ~time_ms:510.
    (Monitor.Txn_end
       { txn = "t1"; committed = true; reason = "committed"; killed = false });
  ignore
    (alert_shape "stuck-finish" ~rule:"stuck_txn" ~severity:Slo.Critical
       ~subject:"t1" m);
  Alcotest.(check (list string)) "no open transactions" [] (Monitor.open_txns m)

let test_staleness_versions () =
  let m = Monitor.create ~rules:{ quiet with Slo.staleness_versions = 2 } () in
  Monitor.observe m ~seq:1 ~time_ms:0.
    (Monitor.Replica_version { node = "server-1"; domain = "retail"; version = 1 });
  Monitor.observe m ~seq:2 ~time_ms:1.
    (Monitor.Master_version { domain = "retail"; version = 3 });
  Alcotest.(check int) "lag 2 is within bound" 0 (Monitor.fired_total m);
  Monitor.observe m ~seq:3 ~time_ms:2.
    (Monitor.Master_version { domain = "retail"; version = 4 });
  ignore
    (alert_shape "staleness" ~open_:true ~rule:"policy_staleness"
       ~severity:Slo.Warning ~subject:"server-1/retail" m);
  Alcotest.(check (list (pair string (pair int string))))
    "peak lag tracks the worst skew"
    [ ("server-1", (3, "retail")) ]
    (Monitor.staleness_peak m);
  (* Catching up resolves. *)
  Monitor.observe m ~seq:4 ~time_ms:3.
    (Monitor.Replica_version { node = "server-1"; domain = "retail"; version = 4 });
  ignore
    (alert_shape "staleness resolved" ~rule:"policy_staleness"
       ~severity:Slo.Warning ~subject:"server-1/retail" m);
  Alcotest.(check int) "still only one alert ever" 1 (Monitor.fired_total m)

let test_staleness_timed () =
  let m = Monitor.create ~rules:{ quiet with Slo.staleness_ms = 100. } () in
  Monitor.observe m ~seq:1 ~time_ms:0.
    (Monitor.Replica_version { node = "server-2"; domain = "retail"; version = 1 });
  Monitor.observe m ~seq:2 ~time_ms:0.
    (Monitor.Master_version { domain = "retail"; version = 2 });
  Monitor.observe m ~seq:3 ~time_ms:90. (Monitor.Activity { node = "other" });
  Alcotest.(check int) "lag younger than bound" 0 (Monitor.fired_total m);
  Monitor.observe m ~seq:4 ~time_ms:200. (Monitor.Activity { node = "other" });
  ignore
    (alert_shape "timed staleness" ~open_:true ~rule:"policy_staleness"
       ~severity:Slo.Warning ~subject:"server-2/retail" m)

let finish m seq ~txn ~committed ~killed =
  Monitor.observe m ~seq ~time_ms:(float_of_int seq)
    (Monitor.Txn_end
       {
         txn;
         committed;
         reason = (if killed then "wait_die" else "policy");
         killed;
       })

let test_abort_storm () =
  let m =
    Monitor.create
      ~rules:{ quiet with Slo.abort_window = 4; abort_rate = 0.5 }
      ()
  in
  finish m 1 ~txn:"t1" ~committed:false ~killed:false;
  finish m 2 ~txn:"t2" ~committed:false ~killed:false;
  finish m 3 ~txn:"t3" ~committed:false ~killed:false;
  Alcotest.(check int) "window not yet full" 0 (Monitor.fired_total m);
  finish m 4 ~txn:"t4" ~committed:false ~killed:false;
  ignore
    (alert_shape "abort storm" ~open_:true ~rule:"abort_storm"
       ~severity:Slo.Critical ~subject:"cluster" m);
  (* Commits wash the aborts out of the window. *)
  finish m 5 ~txn:"t5" ~committed:true ~killed:false;
  finish m 6 ~txn:"t6" ~committed:true ~killed:false;
  finish m 7 ~txn:"t7" ~committed:true ~killed:false;
  ignore
    (alert_shape "abort storm resolved" ~rule:"abort_storm"
       ~severity:Slo.Critical ~subject:"cluster" m)

let test_livelock () =
  let m = Monitor.create ~rules:{ quiet with Slo.livelock_kills = 3 } () in
  finish m 1 ~txn:"t7" ~committed:false ~killed:true;
  finish m 2 ~txn:"t7-r1" ~committed:false ~killed:true;
  Alcotest.(check int) "two kills is not livelock" 0 (Monitor.fired_total m);
  finish m 3 ~txn:"t7-r2" ~committed:false ~killed:true;
  (* Subject is the logical transaction, restart suffix stripped. *)
  ignore
    (alert_shape "livelock" ~open_:true ~rule:"livelock" ~severity:Slo.Warning
       ~subject:"t7" m);
  finish m 4 ~txn:"t7-r3" ~committed:true ~killed:false;
  ignore
    (alert_shape "livelock resolved" ~rule:"livelock" ~severity:Slo.Warning
       ~subject:"t7" m)

let test_livelock_interrupted_by_other_abort () =
  let m = Monitor.create ~rules:{ quiet with Slo.livelock_kills = 2 } () in
  finish m 1 ~txn:"t7" ~committed:false ~killed:true;
  (* A non-wait-die abort of the same logical txn breaks the streak. *)
  finish m 2 ~txn:"t7-r1" ~committed:false ~killed:false;
  finish m 3 ~txn:"t7-r2" ~committed:false ~killed:true;
  Alcotest.(check int) "streak was reset" 0 (Monitor.fired_total m)

let test_vote_anomaly () =
  let m = Monitor.create ~rules:quiet () in
  Monitor.observe m ~seq:1 ~time_ms:0.
    (Monitor.Txn_begin
       { txn = "t1"; node = "tm-t1"; scheme = "deferred"; level = "view" });
  Monitor.observe m ~seq:7 ~time_ms:1.
    (Monitor.Vote { txn = "t1"; node = "server-1"; vote = true });
  Monitor.observe m ~seq:9 ~time_ms:2.
    (Monitor.Proof_result
       {
         txn = "t1";
         node = "server-1";
         domain = "retail";
         version = 1;
         result = true;
       });
  Alcotest.(check int) "passing proof after YES is fine" 0 (Monitor.fired_total m);
  Monitor.observe m ~seq:12 ~time_ms:3.
    (Monitor.Proof_result
       {
         txn = "t1";
         node = "server-1";
         domain = "retail";
         version = 1;
         result = false;
       });
  let a =
    alert_shape "vote anomaly" ~open_:true ~rule:"vote_anomaly"
      ~severity:Slo.Critical ~subject:"t1" m
  in
  Alcotest.(check string) "names the lying participant" "server-1" a.Slo.node;
  Alcotest.(check int) "evidence is the failing proof" 12 a.Slo.first_seq;
  (* An abort contains the anomaly... *)
  finish m 13 ~txn:"t1" ~committed:false ~killed:false;
  Alcotest.(check bool) "abort resolves it" false (Slo.is_open a)

let test_vote_anomaly_no_vote_no_alert () =
  let m = Monitor.create ~rules:quiet () in
  (* A failing proof with no YES vote on record is a normal abort path. *)
  Monitor.observe m ~seq:2 ~time_ms:1.
    (Monitor.Proof_result
       {
         txn = "t1";
         node = "server-1";
         domain = "retail";
         version = 1;
         result = false;
       });
  Alcotest.(check int) "nothing fires" 0 (Monitor.fired_total m)

(* --- sinks ------------------------------------------------------------ *)

let test_sinks () =
  let registry = Registry.create () in
  let logged = ref [] and printed = ref [] in
  let m =
    Monitor.create
      ~rules:{ quiet with Slo.stuck_ms = 100. }
      ~registry
      ~log:(fun l -> logged := l :: !logged)
      ~console:(fun l -> printed := l :: !printed)
      ()
  in
  Monitor.observe m ~seq:1 ~time_ms:0.
    (Monitor.Txn_begin
       { txn = "t1"; node = "tm-t1"; scheme = "deferred"; level = "view" });
  Monitor.observe m ~seq:2 ~time_ms:500. (Monitor.Activity { node = "x" });
  Alcotest.(check int) "counter: fired once" 1
    (Registry.counter registry "alerts_total"
       [ ("rule", "stuck_txn"); ("severity", "critical") ]);
  Alcotest.(check (option (float 0.))) "gauge: one active" (Some 1.)
    (Registry.gauge registry "alerts_active" [ ("rule", "stuck_txn") ]);
  Monitor.observe m ~seq:3 ~time_ms:510. (Monitor.Txn_step { txn = "t1" });
  Alcotest.(check (option (float 0.))) "gauge: back to zero" (Some 0.)
    (Registry.gauge registry "alerts_active" [ ("rule", "stuck_txn") ]);
  (match List.rev !logged with
  | [ fire_line; resolve_line ] ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i =
        i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "log: fire record" true
      (contains fire_line {|"event":"fire"|}
      && contains fire_line {|"rule":"stuck_txn"|});
    Alcotest.(check bool) "log: resolve record" true
      (contains resolve_line {|"event":"resolve"|})
  | lines -> Alcotest.failf "expected 2 alert-log lines, got %d" (List.length lines));
  Alcotest.(check int) "console: one line per transition" 2
    (List.length !printed)

(* --- full-protocol runs ----------------------------------------------- *)

let all_cells =
  List.concat_map
    (fun scheme ->
      List.map (fun level -> (scheme, level)) [ Consistency.View; Consistency.Global ])
    Scheme.all

(* One worst-case-free cell with the journal live and a monitor tapped in
   — the [run --monitor] wiring, minus the CLI. *)
let run_cell scheme level =
  let scenario = Scenario.retail ~n_servers:4 ~n_subjects:1 () in
  let cluster = scenario.Scenario.cluster in
  let transport = Cluster.transport cluster in
  let journal = Transport.enable_journal transport in
  let monitor = Monitor.create () in
  let health = Health.attach journal monitor in
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:4 ()
  in
  let outcome = Manager.run_one cluster (Manager.config scheme level) txn in
  (journal, monitor, health, outcome)

let with_temp_journal contents f =
  let path = Filename.temp_file "cloudtx_monitor" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let replay_file what contents monitor =
  with_temp_journal contents (fun path ->
      match Health.of_file path monitor with
      | Ok n -> n
      | Error e -> Alcotest.failf "%s: replay rejected the journal: %s" what e)

let test_clean_cells_fire_nothing () =
  List.iter
    (fun (scheme, level) ->
      let what =
        Printf.sprintf "%s/%s" (Scheme.name scheme) (Consistency.name level)
      in
      let journal, live, health, outcome = run_cell scheme level in
      Alcotest.(check bool) (what ^ ": committed") true outcome.Outcome.committed;
      Alcotest.(check int) (what ^ ": live monitor is silent") 0
        (Monitor.fired_total live);
      Alcotest.(check int) (what ^ ": every record decoded") 0
        (Health.decode_errors health);
      Alcotest.(check (list string)) (what ^ ": no open transactions") []
        (Monitor.open_txns live);
      (* The offline replay of the same journal must agree with the live
         tap, alert for alert and peak for peak. *)
      let offline = Monitor.create () in
      let fed = replay_file what (Journal.to_string journal) offline in
      Alcotest.(check int) (what ^ ": replay fed every record")
        (Journal.length journal) fed;
      Alcotest.(check int) (what ^ ": offline monitor is silent") 0
        (Monitor.fired_total offline);
      Alcotest.(check (list (pair string (pair int string))))
        (what ^ ": live and offline staleness peaks agree")
        (Monitor.staleness_peak live)
        (Monitor.staleness_peak offline))
    all_cells

(* --- tampered and stalled journals ------------------------------------ *)

let lines_of journal =
  String.split_on_char '\n' (Journal.to_string journal)
  |> List.filter (fun l -> not (String.equal l ""))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let replace_once line ~old_sub ~new_sub =
  let n = String.length line and m = String.length old_sub in
  let rec go i =
    if i + m > n then None
    else if String.equal (String.sub line i m) old_sub then
      Some (String.sub line 0 i ^ new_sub ^ String.sub line (i + m) (n - i - m))
    else go (i + 1)
  in
  go 0

let baseline = lazy (lines_of (let j, _, _, _ = run_cell Scheme.Deferred Consistency.View in j))

let test_watch_flags_tampered_vote () =
  let lines = Lazy.force baseline in
  (* Flip one proof the TM received in a commit-round reply to FALSE: the
     journal now shows a participant that voted YES whose proof failed. *)
  let flipped = ref false in
  let tampered =
    List.map
      (fun l ->
        if
          (not !flipped)
          && contains l {|"node":"tm-t1"|}
          && contains l {|"dir":"input"|}
          && contains l {|"t":"commit-reply"|}
        then
          match replace_once l ~old_sub:{|"result":true|} ~new_sub:{|"result":false|} with
          | Some l' ->
            flipped := true;
            l'
          | None -> l
        else l)
      lines
  in
  Alcotest.(check bool) "found a commit-round proof to flip" true !flipped;
  let m = Monitor.create () in
  ignore (replay_file "tampered vote" (String.concat "\n" tampered ^ "\n") m);
  let a =
    alert_shape "tampered vote" ~open_:true ~rule:"vote_anomaly"
      ~severity:Slo.Critical ~subject:"t1" m
  in
  Alcotest.(check bool) "evidence names a journal seq" true (a.Slo.first_seq > 1);
  (* ...which is exactly what makes [watch] exit non-zero. *)
  Alcotest.(check int) "unresolved critical" 1 (Monitor.unresolved_critical m)

let test_watch_flags_stalled_journal () =
  let lines = Lazy.force baseline in
  (* Cut the journal right after the TM comes up, then splice in later
     activity from elsewhere in the cluster: the transaction began, the
     clock moved on, and its machine never stepped again. *)
  let rec keep_until_create acc = function
    | [] -> Alcotest.fail "baseline journal has no TM create record"
    | l :: rest ->
      if contains l {|"node":"tm-t1"|} && contains l {|"dir":"create"|} then
        List.rev (l :: acc)
      else keep_until_create (l :: acc) rest
  in
  let prefix = keep_until_create [] lines in
  let ghost i =
    Printf.sprintf
      {|{"seq":%d,"time_ms":%d.0,"node":"server-9","dir":"input","payload":{}}|}
      (9000 + i)
      (4000 + (1000 * i))
  in
  let stalled = prefix @ List.map ghost [ 1; 2; 3 ] in
  let m = Monitor.create () in
  ignore (replay_file "stalled journal" (String.concat "\n" stalled ^ "\n") m);
  let a =
    alert_shape "stalled journal" ~open_:true ~rule:"stuck_txn"
      ~severity:Slo.Critical ~subject:"t1" m
  in
  Alcotest.(check string) "names the stuck TM" "tm-t1" a.Slo.node;
  Alcotest.(check (list string)) "transaction still open" [ "t1" ]
    (Monitor.open_txns m);
  Alcotest.(check int) "unresolved critical" 1 (Monitor.unresolved_critical m)

let () =
  Alcotest.run "monitor"
    [
      ( "rules",
        [
          Alcotest.test_case "stuck transaction fires and resolves" `Quick
            test_stuck_txn;
          Alcotest.test_case "finishing resolves a stuck alert" `Quick
            test_stuck_resolves_on_finish;
          Alcotest.test_case "staleness by versions" `Quick
            test_staleness_versions;
          Alcotest.test_case "staleness by time" `Quick test_staleness_timed;
          Alcotest.test_case "abort storm over the window" `Quick
            test_abort_storm;
          Alcotest.test_case "wait-die livelock" `Quick test_livelock;
          Alcotest.test_case "livelock streak resets" `Quick
            test_livelock_interrupted_by_other_abort;
          Alcotest.test_case "vote anomaly" `Quick test_vote_anomaly;
          Alcotest.test_case "failing proof without a vote is quiet" `Quick
            test_vote_anomaly_no_vote_no_alert;
        ] );
      ( "sinks",
        [ Alcotest.test_case "registry, log and console" `Quick test_sinks ] );
      ( "replay",
        [
          Alcotest.test_case "every clean cell is silent, live = offline"
            `Quick test_clean_cells_fire_nothing;
          Alcotest.test_case "tampered vote fires vote_anomaly" `Quick
            test_watch_flags_tampered_vote;
          Alcotest.test_case "stalled journal fires stuck_txn" `Quick
            test_watch_flags_stalled_journal;
        ] );
    ]
