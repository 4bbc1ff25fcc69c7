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
  Monitor.tick m ~seq:3 ~time_ms:120.;
  Alcotest.(check int) "within deadline: nothing fires" 0 (Monitor.fired_total m);
  Monitor.tick m ~seq:4 ~time_ms:200.;
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
  Monitor.tick m ~seq:2 ~time_ms:500.;
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
  Monitor.tick m ~seq:3 ~time_ms:90.;
  Alcotest.(check int) "lag younger than bound" 0 (Monitor.fired_total m);
  Monitor.tick m ~seq:4 ~time_ms:200.;
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
  Monitor.tick m ~seq:2 ~time_ms:500.;
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

(* ------------------------------------------------------------------ *)
(* Constant-time monitor = the sweep-on-every-event monitor            *)
(* ------------------------------------------------------------------ *)

(* The reference: the monitor as it was before its steps became
   constant-time.  It walks every open transaction on every event,
   renders every resolve detail, and scans all YES votes when a
   transaction ends. *)
module Naive = struct
  module Registry = Cloudtx_obs.Registry

  type event = Monitor.event =
    | Txn_begin of { txn : string; node : string; scheme : string; level : string }
    | Txn_step of { txn : string }
    | Txn_end of { txn : string; committed : bool; reason : string; killed : bool }
    | Master_version of { domain : string; version : int }
    | Replica_version of { node : string; domain : string; version : int }
    | Vote of { txn : string; node : string; vote : bool }
    | Proof_result of {
        txn : string;
        node : string;
        domain : string;
        version : int;
        result : bool;
      }
    | Breaker_transition of { server : string; from_ : string; to_ : string }
    | Admission_reject of { txn : string; reason : string; server : string option }

  type txn_state = {
    tm_node : string;
    mutable last_step_at : float;
    mutable last_step_seq : int;
  }

  type replica_state = {
    mutable held : int;
    mutable lag_since : float option;  (* when the replica started lagging *)
  }

  type t = {
    rules : Slo.rules;
    registry : Registry.t;
    log : string -> unit;
    console : string -> unit;
    notify : [ `Fire | `Resolve ] -> Slo.alert -> unit;
    (* rule state *)
    txns : (string, txn_state) Hashtbl.t;  (* open transactions *)
    master : (string, int) Hashtbl.t;  (* domain -> observed master version *)
    replicas : (string * string, replica_state) Hashtbl.t;  (* node, domain *)
    peak_lag : (string, int * string) Hashtbl.t;  (* node -> worst lag, domain *)
    window : bool Queue.t;  (* last abort_window outcomes; true = abort *)
    mutable window_aborts : int;
    kills : (string, int) Hashtbl.t;  (* base txn -> consecutive wait-die *)
    yes_votes : (string * string, int) Hashtbl.t;  (* txn, node -> vote seq *)
    flips : (string, float Queue.t) Hashtbl.t;
        (* server -> breaker transition times inside the flap window *)
    rejects : float Queue.t;  (* admission rejection times inside the window *)
    (* alert state *)
    active : (string * string, Slo.alert) Hashtbl.t;  (* rule, subject *)
    mutable all : Slo.alert list;  (* reverse firing order *)
    mutable next_id : int;
    active_per_rule : (string, int) Hashtbl.t;
  }

  let create ?(rules = Slo.default) ?(registry = Registry.noop)
      ?(log = ignore) ?(console = ignore) ?(notify = fun _ _ -> ()) () =
    {
      rules;
      registry;
      log;
      console;
      notify;
      txns = Hashtbl.create 16;
      master = Hashtbl.create 4;
      replicas = Hashtbl.create 16;
      peak_lag = Hashtbl.create 16;
      window = Queue.create ();
      window_aborts = 0;
      kills = Hashtbl.create 8;
      yes_votes = Hashtbl.create 16;
      flips = Hashtbl.create 8;
      rejects = Queue.create ();
      active = Hashtbl.create 8;
      all = [];
      next_id = 0;
      active_per_rule = Hashtbl.create 8;
    }

  let alerts t = List.rev t.all
  let open_alerts t = List.filter Slo.is_open (alerts t)
  let fired_total t = List.length t.all

  let unresolved_critical t =
    List.length
      (List.filter (fun (a : Slo.alert) -> a.Slo.severity = Slo.Critical)
         (open_alerts t))

  let staleness_peak t =
    Hashtbl.fold (fun node worst acc -> (node, worst) :: acc) t.peak_lag []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let open_txns t =
    Hashtbl.fold (fun txn _ acc -> txn :: acc) t.txns []
    |> List.sort String.compare

  (* ------------------------------------------------------------------ *)
  (* Alert lifecycle                                                     *)
  (* ------------------------------------------------------------------ *)

  let set_active_gauge t rule =
    if Registry.enabled t.registry then
      Registry.set_gauge t.registry "alerts_active"
        [ ("rule", rule) ]
        (float_of_int
           (Option.value ~default:0 (Hashtbl.find_opt t.active_per_rule rule)))

  let fire t ~seq ~time_ms ~rule ~severity ~subject ~node ~detail =
    match Hashtbl.find_opt t.active (rule, subject) with
    | Some (a : Slo.alert) ->
      (* Already firing: extend the evidence range, refresh the cause. *)
      a.Slo.last_seq <- seq;
      a.Slo.detail <- detail
    | None ->
      t.next_id <- t.next_id + 1;
      let a =
        {
          Slo.id = t.next_id;
          rule;
          severity;
          subject;
          node;
          first_seq = seq;
          last_seq = seq;
          fired_at = time_ms;
          detail;
          resolved_at = None;
        }
      in
      Hashtbl.replace t.active (rule, subject) a;
      t.all <- a :: t.all;
      Hashtbl.replace t.active_per_rule rule
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.active_per_rule rule));
      if Registry.enabled t.registry then begin
        Registry.incr t.registry "alerts_total"
          [ ("rule", rule); ("severity", Slo.severity_name severity) ];
        set_active_gauge t rule
      end;
      t.console (Slo.console_line `Fire a);
      t.log (Slo.log_line `Fire a);
      t.notify `Fire a

  let resolve t ~seq ~time_ms ~rule ~subject ~detail =
    match Hashtbl.find_opt t.active (rule, subject) with
    | None -> ()
    | Some (a : Slo.alert) ->
      Hashtbl.remove t.active (rule, subject);
      a.Slo.last_seq <- seq;
      a.Slo.detail <- detail;
      a.Slo.resolved_at <- Some time_ms;
      Hashtbl.replace t.active_per_rule rule
        (max 0
           (Option.value ~default:1 (Hashtbl.find_opt t.active_per_rule rule) - 1));
      set_active_gauge t rule;
      t.console (Slo.console_line `Resolve a);
      t.log (Slo.log_line `Resolve a);
      t.notify `Resolve a

  (* ------------------------------------------------------------------ *)
  (* Rules                                                               *)
  (* ------------------------------------------------------------------ *)

  (* stuck_txn: no TM machine step for > stuck_ms while unfinished. *)
  let sweep_stuck t ~seq ~time_ms =
    if Float.is_finite t.rules.Slo.stuck_ms then
      Hashtbl.iter
        (fun txn (s : txn_state) ->
          let idle = time_ms -. s.last_step_at in
          if idle > t.rules.Slo.stuck_ms then
            fire t ~seq ~time_ms ~rule:"stuck_txn" ~severity:Slo.Critical
              ~subject:txn ~node:s.tm_node
              ~detail:
                (Printf.sprintf
                   "no machine step for %.1fms (last step seq %d at %.1fms)" idle
                   s.last_step_seq s.last_step_at))
        t.txns

  let staleness_subject node domain = node ^ "/" ^ domain

  (* policy_staleness: replica lags the observed master by more than
     [staleness_versions] versions, or by any amount for longer than
     [staleness_ms]. *)
  let check_staleness t ~seq ~time_ms node domain =
    match Hashtbl.find_opt t.master domain with
    | None -> ()
    | Some master -> (
      match Hashtbl.find_opt t.replicas (node, domain) with
      | None -> ()
      | Some r ->
        let lag = master - r.held in
        (match Hashtbl.find_opt t.peak_lag node with
        | Some (worst, _) when worst >= lag -> ()
        | _ -> if lag > 0 then Hashtbl.replace t.peak_lag node (lag, domain));
        if lag <= 0 then begin
          r.lag_since <- None;
          resolve t ~seq ~time_ms ~rule:"policy_staleness"
            ~subject:(staleness_subject node domain)
            ~detail:(Printf.sprintf "replica caught up to master v%d" master)
        end
        else begin
          if r.lag_since = None then r.lag_since <- Some time_ms;
          let since = Option.value ~default:time_ms r.lag_since in
          if lag > t.rules.Slo.staleness_versions then
            fire t ~seq ~time_ms ~rule:"policy_staleness" ~severity:Slo.Warning
              ~subject:(staleness_subject node domain)
              ~node
              ~detail:
                (Printf.sprintf "replica holds v%d, master at v%d (%d versions)"
                   r.held master lag)
          else if time_ms -. since > t.rules.Slo.staleness_ms then
            fire t ~seq ~time_ms ~rule:"policy_staleness" ~severity:Slo.Warning
              ~subject:(staleness_subject node domain)
              ~node
              ~detail:
                (Printf.sprintf "replica holds v%d, master at v%d for %.1fms"
                   r.held master (time_ms -. since))
        end)

  let sweep_staleness t ~seq ~time_ms =
    (* Only the timed arm needs a clock-driven sweep; the version arm is
       re-checked on every version observation. *)
    if Float.is_finite t.rules.Slo.staleness_ms then
      Hashtbl.iter
        (fun (node, domain) (r : replica_state) ->
          if r.lag_since <> None then check_staleness t ~seq ~time_ms node domain)
        t.replicas

  let note_master t ~seq ~time_ms domain version =
    let prev = Option.value ~default:0 (Hashtbl.find_opt t.master domain) in
    if version > prev then begin
      Hashtbl.replace t.master domain version;
      Hashtbl.iter
        (fun (node, d) _ ->
          if String.equal d domain then check_staleness t ~seq ~time_ms node domain)
        t.replicas
    end

  let note_replica t ~seq ~time_ms node domain version =
    (match Hashtbl.find_opt t.replicas (node, domain) with
    | Some r -> if version > r.held then r.held <- version
    | None ->
      Hashtbl.replace t.replicas (node, domain) { held = version; lag_since = None });
    (* A replica can only have evaluated against a version the master once
       published. *)
    note_master t ~seq ~time_ms domain version;
    check_staleness t ~seq ~time_ms node domain

  (* abort_storm: abort fraction over the sliding outcome window. *)
  let note_outcome t ~seq ~time_ms ~committed =
    let w = t.rules.Slo.abort_window in
    if w > 0 then begin
      Queue.push (not committed) t.window;
      if not committed then t.window_aborts <- t.window_aborts + 1;
      if Queue.length t.window > w then
        if Queue.pop t.window then t.window_aborts <- t.window_aborts - 1;
      let len = Queue.length t.window in
      if len >= w then begin
        let rate = float_of_int t.window_aborts /. float_of_int len in
        if rate >= t.rules.Slo.abort_rate then
          fire t ~seq ~time_ms ~rule:"abort_storm" ~severity:Slo.Critical
            ~subject:"cluster" ~node:"cluster"
            ~detail:
              (Printf.sprintf "%d of the last %d transactions aborted (%.0f%%)"
                 t.window_aborts len (100. *. rate))
        else
          resolve t ~seq ~time_ms ~rule:"abort_storm" ~subject:"cluster"
            ~detail:
              (Printf.sprintf "abort rate back to %.0f%% over the last %d"
                 (100. *. rate) len)
      end
    end

  (* livelock: the same logical transaction killed k consecutive times.
     Restart attempts carry a "-r<N>" suffix (Experiment.run_open). *)
  let base_txn txn =
    match String.rindex_opt txn '-' with
    | Some i
      when i + 1 < String.length txn
           && txn.[i + 1] = 'r'
           && (let rec digits j =
                 j >= String.length txn
                 || (txn.[j] >= '0' && txn.[j] <= '9' && digits (j + 1))
               in
               i + 2 < String.length txn && digits (i + 2)) ->
      String.sub txn 0 i
    | _ -> txn

  let note_kill t ~seq ~time_ms txn ~killed ~committed =
    let base = base_txn txn in
    if killed then begin
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.kills base) in
      Hashtbl.replace t.kills base n;
      if n >= t.rules.Slo.livelock_kills then
        fire t ~seq ~time_ms ~rule:"livelock" ~severity:Slo.Warning ~subject:base
          ~node:("tm-" ^ txn)
          ~detail:
            (Printf.sprintf "wait-die killed %d consecutive times (latest %s)" n
               txn)
    end
    else begin
      Hashtbl.remove t.kills base;
      if committed then
        resolve t ~seq ~time_ms ~rule:"livelock" ~subject:base
          ~detail:(Printf.sprintf "%s committed" txn)
    end

  (* vote_anomaly: a participant that voted YES whose later proof
     evaluation for the same transaction failed. *)
  let note_vote t ~seq txn node vote =
    if vote then Hashtbl.replace t.yes_votes (txn, node) seq
    else Hashtbl.remove t.yes_votes (txn, node)

  let note_proof t ~seq ~time_ms txn node domain ~result =
    if not result then
      match Hashtbl.find_opt t.yes_votes (txn, node) with
      | None -> ()
      | Some vote_seq ->
        fire t ~seq ~time_ms ~rule:"vote_anomaly" ~severity:Slo.Critical
          ~subject:txn ~node
          ~detail:
            (Printf.sprintf
               "%s voted YES at seq %d, then its %s proof evaluated FALSE" node
               vote_seq domain)

  (* breaker_flap: one server's circuit breaker changed state at least
     [flap_transitions] times within the last [flap_window] ms — it is
     oscillating between trip and probe instead of holding a verdict. *)
  let note_breaker t ~seq ~time_ms server ~from_ ~to_ =
    let w = t.rules.Slo.flap_window in
    if Float.is_finite w then begin
      let q =
        match Hashtbl.find_opt t.flips server with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace t.flips server q;
          q
      in
      Queue.push time_ms q;
      while (not (Queue.is_empty q)) && Queue.peek q < time_ms -. w do
        ignore (Queue.pop q)
      done;
      let n = Queue.length q in
      if n >= t.rules.Slo.flap_transitions then
        fire t ~seq ~time_ms ~rule:"breaker_flap" ~severity:Slo.Warning
          ~subject:server ~node:"resilience"
          ~detail:
            (Printf.sprintf
               "breaker changed state %d times within %.0fms (latest %s->%s)" n w
               from_ to_)
      else
        resolve t ~seq ~time_ms ~rule:"breaker_flap" ~subject:server
          ~detail:
            (Printf.sprintf "%d transitions in window (latest %s->%s)" n from_ to_)
    end

  (* admission_storm: [reject_count] admission rejections — bounded
     in-flight or open-breaker fail-fasts — within [reject_window] ms. *)
  let note_reject t ~seq ~time_ms ~txn ~reason ~server =
    let w = t.rules.Slo.reject_window in
    if Float.is_finite w then begin
      Queue.push time_ms t.rejects;
      while
        (not (Queue.is_empty t.rejects)) && Queue.peek t.rejects < time_ms -. w
      do
        ignore (Queue.pop t.rejects)
      done;
      let n = Queue.length t.rejects in
      let where =
        match server with Some s -> " at " ^ s | None -> ""
      in
      if n >= t.rules.Slo.reject_count then
        fire t ~seq ~time_ms ~rule:"admission_storm" ~severity:Slo.Warning
          ~subject:"cluster" ~node:"resilience"
          ~detail:
            (Printf.sprintf "%d rejections within %.0fms (latest %s: %s%s)" n w
               txn reason where)
      else
        resolve t ~seq ~time_ms ~rule:"admission_storm" ~subject:"cluster"
          ~detail:(Printf.sprintf "%d rejections in window" n)
    end

  let forget_txn t txn =
    Hashtbl.remove t.txns txn;
    Hashtbl.filter_map_inplace
      (fun (vt, _) seq -> if String.equal vt txn then None else Some seq)
      t.yes_votes

  (* ------------------------------------------------------------------ *)
  (* Event dispatch                                                      *)
  (* ------------------------------------------------------------------ *)

  let observe t ~seq ~time_ms event =
    (match event with
    | Txn_begin { txn; node; scheme = _; level = _ } ->
      Hashtbl.replace t.txns txn
        { tm_node = node; last_step_at = time_ms; last_step_seq = seq }
    | Txn_step { txn } -> (
      match Hashtbl.find_opt t.txns txn with
      | None -> ()
      | Some s ->
        s.last_step_at <- time_ms;
        s.last_step_seq <- seq;
        resolve t ~seq ~time_ms ~rule:"stuck_txn" ~subject:txn
          ~detail:"machine stepped again")
    | Txn_end { txn; committed; reason; killed } ->
      resolve t ~seq ~time_ms ~rule:"stuck_txn" ~subject:txn
        ~detail:
          (Printf.sprintf "transaction finished (%s)"
             (if committed then "commit" else "abort: " ^ reason));
      if not committed then
        (* The abort contained whatever the YES vote would have admitted. *)
        resolve t ~seq ~time_ms ~rule:"vote_anomaly" ~subject:txn
          ~detail:(Printf.sprintf "transaction aborted (%s)" reason);
      forget_txn t txn;
      note_outcome t ~seq ~time_ms ~committed;
      note_kill t ~seq ~time_ms txn ~killed ~committed
    | Master_version { domain; version } -> note_master t ~seq ~time_ms domain version
    | Replica_version { node; domain; version } ->
      note_replica t ~seq ~time_ms node domain version
    | Vote { txn; node; vote } -> note_vote t ~seq txn node vote
    | Proof_result { txn; node; domain; version; result } ->
      note_replica t ~seq ~time_ms node domain version;
      note_proof t ~seq ~time_ms txn node domain ~result
    | Breaker_transition { server; from_; to_ } ->
      note_breaker t ~seq ~time_ms server ~from_ ~to_
    | Admission_reject { txn; reason; server } ->
      note_reject t ~seq ~time_ms ~txn ~reason ~server);
    sweep_stuck t ~seq ~time_ms;
    sweep_staleness t ~seq ~time_ms

  (* A record without an event: the sweeps alone. *)
  let tick t ~seq ~time_ms =
    sweep_stuck t ~seq ~time_ms;
    sweep_staleness t ~seq ~time_ms
end

(* Everything a monitor shows the outside world, as text: each sink call
   (the notify record rendered at call time) and the alert list after
   every event. *)
type trace = { mutable calls : string list; mutable states : string list }

let render_alert (a : Slo.alert) =
  Printf.sprintf "#%d %s %s %s %s %d..%d at %h [%s] %s" a.Slo.id a.Slo.rule
    (Slo.severity_name a.Slo.severity)
    a.Slo.subject a.Slo.node a.Slo.first_seq a.Slo.last_seq a.Slo.fired_at
    a.Slo.detail
    (match a.Slo.resolved_at with
    | Some t -> Printf.sprintf "%h" t
    | None -> "open")

let sinks () =
  let tr = { calls = []; states = [] } in
  let call s = tr.calls <- s :: tr.calls in
  ( tr,
    Registry.create (),
    (fun l -> call ("log " ^ l)),
    (fun l -> call ("console " ^ l)),
    fun transition a ->
      call
        ((match transition with `Fire -> "fire " | `Resolve -> "resolve ")
        ^ render_alert a) )

(* One record's worth of input: an event, or a record that carries
   none. *)
type step = Event of Monitor.event | Tick

(* Equal to the pool's string but not physically shared with it, as
   each record of a replayed journal decodes its own copy. *)
let fresh s = Bytes.to_string (Bytes.of_string s)

let gen_event =
  let open QCheck.Gen in
  let txn = map fresh (oneofl [ "t1"; "t2"; "t3"; "t1-r1"; "t1-r2"; "t2-r1" ]) in
  let node = map fresh (oneofl [ "server-1"; "server-2"; "server-3" ]) in
  let domain = map fresh (oneofl [ "d1"; "d2" ]) in
  let version = int_range (-1) 6 in
  let breaker = oneofl [ "closed"; "open"; "half-open" ] in
  let event g = map (fun ev -> Event ev) g in
  frequency
    [
      ( 3,
        event
          (map2
             (fun txn node ->
               Monitor.Txn_begin
                 { txn; node = "tm-" ^ node; scheme = "s"; level = "l" })
             txn node) );
      (6, event (map (fun txn -> Monitor.Txn_step { txn }) txn));
      ( 3,
        event
          (map3
             (fun txn committed (reason, killed) ->
               Monitor.Txn_end { txn; committed; reason; killed })
             txn bool
             (oneofl
                [ ("wait-die", true); ("integrity", false); ("commit", false) ]))
      );
      ( 2,
        event
          (map2
             (fun domain version -> Monitor.Master_version { domain; version })
             domain version) );
      ( 2,
        event
          (map3
             (fun node domain version ->
               Monitor.Replica_version { node; domain; version })
             node domain version) );
      ( 3,
        event
          (map3
             (fun txn node vote -> Monitor.Vote { txn; node; vote })
             txn node bool) );
      ( 3,
        event
          (map3
             (fun (txn, node) (domain, version) result ->
               Monitor.Proof_result { txn; node; domain; version; result })
             (pair txn node) (pair domain version) bool) );
      ( 2,
        event
          (map3
             (fun server from_ to_ ->
               Monitor.Breaker_transition { server; from_; to_ })
             node breaker breaker) );
      ( 2,
        event
          (map3
             (fun txn reason server ->
               Monitor.Admission_reject { txn; reason; server })
             txn
             (oneofl [ "admission-rejected"; "breaker-open" ])
             (opt node)) );
      (3, return Tick);
    ]

(* Thresholds small enough that every rule fires and resolves within a
   short stream; the clock advances 0-3 ms per event, so open
   transactions cross [stuck_ms] and leave it again.  Now and then it
   steps back, as a hand-edited journal replayed by [watch] can.  With
   [via_handles] the fast monitor is fed as the journal bridge feeds it:
   each transaction steps through the state its latest begin returned,
   ended or not. *)
let gen_stream =
  let open QCheck.Gen in
  let* stuck_ms = oneofl [ 2.; 5.; 12.; infinity ] in
  let* staleness_ms = oneofl [ 3.; infinity ] in
  let* staleness_versions = int_range 1 3 in
  let* via_handles = bool in
  let rules =
    {
      Slo.stuck_ms;
      staleness_versions;
      staleness_ms;
      abort_window = 4;
      abort_rate = 0.5;
      livelock_kills = 2;
      flap_window = 10.;
      flap_transitions = 3;
      reject_window = 10.;
      reject_count = 3;
    }
  in
  let dt =
    frequency [ (9, float_bound_inclusive 3.); (1, float_range (-3.) 0.) ]
  in
  let* events = list_size (int_range 1 200) (pair dt gen_event) in
  return (rules, via_handles, events)

let print_stream (rules, via_handles, events) =
  Printf.sprintf "stuck_ms=%g staleness_ms=%g versions=%d%s, %d events"
    rules.Slo.stuck_ms rules.Slo.staleness_ms rules.Slo.staleness_versions
    (if via_handles then " via handles" else "")
    (List.length events)

let prop_monitor_matches_naive (rules, via_handles, events) =
  let fast_tr, fast_reg, log, console, notify = sinks () in
  let fast =
    Monitor.create ~rules ~registry:fast_reg ~log ~console ~notify ()
  in
  let naive_tr, naive_reg, log, console, notify = sinks () in
  let naive =
    Naive.create ~rules ~registry:naive_reg ~log ~console ~notify ()
  in
  let note tr alerts =
    tr.states <- String.concat "\n" (List.map render_alert alerts) :: tr.states
  in
  let handles = Hashtbl.create 8 in
  let feed_fast ~seq ~time_ms ev =
    match ev with
    | Monitor.Txn_begin { txn; node; _ } when via_handles ->
      Hashtbl.replace handles txn (Monitor.txn_begin fast ~seq ~time_ms ~txn ~node)
    | Monitor.Txn_step { txn } when via_handles -> (
      match Hashtbl.find_opt handles txn with
      | Some h -> Monitor.txn_step fast ~seq ~time_ms h
      | None -> Monitor.tick fast ~seq ~time_ms)
    | ev -> Monitor.observe fast ~seq ~time_ms ev
  in
  let time = ref 0. in
  List.iteri
    (fun i (dt, step) ->
      time := !time +. (Float.round (dt *. 4.) /. 4.);
      let seq = i + 1 and time_ms = !time in
      (match step with
      | Event ev ->
        feed_fast ~seq ~time_ms ev;
        Naive.observe naive ~seq ~time_ms ev
      | Tick ->
        Monitor.tick fast ~seq ~time_ms;
        Naive.tick naive ~seq ~time_ms);
      note fast_tr (Monitor.alerts fast);
      note naive_tr (Naive.alerts naive))
    events;
  fast_tr.calls = naive_tr.calls
  && fast_tr.states = naive_tr.states
  && Monitor.fired_total fast = Naive.fired_total naive
  && Monitor.unresolved_critical fast = Naive.unresolved_critical naive
  && Monitor.staleness_peak fast = Naive.staleness_peak naive
  && Monitor.open_txns fast = Naive.open_txns naive
  && String.equal
       (Registry.to_prometheus fast_reg)
       (Registry.to_prometheus naive_reg)

let test_monitor_matches_naive =
  QCheck.Test.make ~name:"constant-time = sweep-every-event monitor"
    ~count:500
    (QCheck.make ~print:print_stream gen_stream)
    prop_monitor_matches_naive

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
      ( "oracle",
        [ QCheck_alcotest.to_alcotest test_monitor_matches_naive ] );
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
