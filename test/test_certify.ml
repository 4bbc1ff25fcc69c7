(* Serializability certifier over flight-recorder journals.

   Three angles:
   - hand-crafted anomaly journals (lost update, write skew,
     non-repeatable read, dirty read) are each rejected naming the right
     anomaly with journal-seq evidence;
   - clean journals from every scheme x consistency-level cell — and a
     24-plan chaos sweep across all 8 cells — certify serializable;
   - the DSG exports and the pre-v3 fallback (version order from journal
     order) behave. *)

module Certify = Cloudtx_core.Certify
module Audit = Cloudtx_core.Audit
module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Outcome = Cloudtx_protocol.Outcome
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Scenario = Cloudtx_workload.Scenario
module Table1 = Cloudtx_workload.Table1
module Transport = Cloudtx_sim.Transport
module Journal = Cloudtx_obs.Journal
module Dsg = Cloudtx_obs.Dsg
module Campaign = Cloudtx_chaos.Campaign
module Codec = Cloudtx_protocol.Codec
module Ps = Cloudtx_protocol.Ps_machine
module Query = Cloudtx_txn.Query
module Value = Cloudtx_store.Value

(* ------------------------------------------------------------------ *)
(* Hand-crafted journals                                               *)
(* ------------------------------------------------------------------ *)

(* The certifier reads history events, it does not replay machines, so a
   journal of just the history-bearing records (creates, Exec_result
   inputs, Apply actions) is enough to exercise it. *)
let mk_journal records =
  let header = Printf.sprintf {|{"journal":"cloudtx","version":%d}|} Codec.version in
  let lines =
    List.mapi
      (fun i (dir, payload) ->
        let seq = i + 1 in
        Printf.sprintf
          {|{"seq":%d,"time_ms":%d,"node":"s1","dir":"%s","payload":%s}|} seq
          seq dir payload)
      records
  in
  header :: lines

let create_ps = ("create", {|{"kind":"ps"}|})

let exec_result ~txn ~qid ?(reads = []) ?(writes = []) ~returns () =
  let query = Query.make ~id:qid ~server:"s1" ~reads ~writes () in
  ( "input",
    Codec.to_string
      (Codec.ps_input_to_json
         (Ps.Exec_result
            {
              txn;
              query;
              evaluate = false;
              reply_to = "tm-" ^ txn;
              result = Ps.Executed returns;
            })) )

let apply ~txn ~commit ~writes =
  ( "action",
    Codec.to_string
      (Codec.ps_action_to_json (Ps.Apply { txn; commit; forced = true; writes }))
  )

let set n = Value.Set (Value.Int n)
let v n = Some (Value.Int n)

let certify what lines =
  match Certify.run ~lines with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: certify errored: %s" what e

let expect_anomaly what lines kind =
  let r = certify what lines in
  match r.Certify.verdict with
  | Certify.Serializable _ ->
    Alcotest.failf "%s: certified serializable, expected %s" what
      (Certify.anomaly_name kind)
  | Certify.Anomalous a ->
    Alcotest.(check string)
      (what ^ ": anomaly kind") (Certify.anomaly_name kind)
      (Certify.anomaly_name a.Certify.anomaly);
    a

(* T1 and T2 both read x's initial version, then both commit a blind
   overwrite: T1's install loses T2's.  rw+ww 2-cycle on one key. *)
let lost_update_journal () =
  mk_journal
    [
      create_ps;
      exec_result ~txn:"t1" ~qid:"q1" ~reads:[ "x" ] ~returns:[ ("x", v 0) ] ();
      exec_result ~txn:"t2" ~qid:"q2" ~reads:[ "x" ] ~returns:[ ("x", v 0) ] ();
      exec_result ~txn:"t2" ~qid:"q3" ~writes:[ ("x", set 2) ] ~returns:[] ();
      apply ~txn:"t2" ~commit:true ~writes:[ ("x", 1) ];
      exec_result ~txn:"t1" ~qid:"q4" ~writes:[ ("x", set 1) ] ~returns:[] ();
      apply ~txn:"t1" ~commit:true ~writes:[ ("x", 2) ];
    ]

let test_lost_update () =
  let a = expect_anomaly "lost update" (lost_update_journal ()) Certify.Lost_update in
  Alcotest.(check (list string))
    "implicated txns" [ "t1"; "t2" ]
    (List.sort String.compare a.Certify.txns);
  (* Evidence spans t1's stale read (seq 2) through t1's install (seq 7). *)
  Alcotest.(check (pair int int)) "seq range" (2, 7) a.Certify.seq_range;
  Alcotest.(check int) "2-cycle" 2 (List.length a.Certify.cycle)

(* T1 reads {x,y} writes y; T2 reads {x,y} writes x.  Each rw-depends on
   the other, no write conflict: the classic SI anomaly. *)
let write_skew_journal () =
  mk_journal
    [
      create_ps;
      exec_result ~txn:"t1" ~qid:"q1" ~reads:[ "x"; "y" ]
        ~returns:[ ("x", v 0); ("y", v 0) ]
        ();
      exec_result ~txn:"t2" ~qid:"q2" ~reads:[ "x"; "y" ]
        ~returns:[ ("x", v 0); ("y", v 0) ]
        ();
      exec_result ~txn:"t1" ~qid:"q3" ~writes:[ ("y", set 1) ] ~returns:[] ();
      exec_result ~txn:"t2" ~qid:"q4" ~writes:[ ("x", set 1) ] ~returns:[] ();
      apply ~txn:"t1" ~commit:true ~writes:[ ("y", 1) ];
      apply ~txn:"t2" ~commit:true ~writes:[ ("x", 1) ];
    ]

let test_write_skew () =
  let a = expect_anomaly "write skew" (write_skew_journal ()) Certify.Write_skew in
  Alcotest.(check (list string))
    "implicated txns" [ "t1"; "t2" ]
    (List.sort String.compare a.Certify.txns);
  let lo, hi = a.Certify.seq_range in
  Alcotest.(check bool) "evidence covers the reads" true (lo <= 3 && hi >= 6);
  List.iter
    (fun e -> Alcotest.(check string) "both edges rw" "rw" (Certify.kind_name e.Certify.kind))
    a.Certify.cycle

(* T1 reads x before and after T2 commits a new x: the two reads cannot
   sit in one serial position.  rw+wr 2-cycle on one key. *)
let non_repeatable_read_journal () =
  mk_journal
    [
      create_ps;
      exec_result ~txn:"t1" ~qid:"q1" ~reads:[ "x" ] ~returns:[ ("x", v 0) ] ();
      exec_result ~txn:"t2" ~qid:"q2" ~writes:[ ("x", set 5) ] ~returns:[] ();
      apply ~txn:"t2" ~commit:true ~writes:[ ("x", 1) ];
      exec_result ~txn:"t1" ~qid:"q3" ~reads:[ "x" ] ~returns:[ ("x", v 5) ] ();
      exec_result ~txn:"t1" ~qid:"q4" ~writes:[ ("z", set 1) ] ~returns:[] ();
      apply ~txn:"t1" ~commit:true ~writes:[ ("z", 1) ];
    ]

let test_non_repeatable_read () =
  let a =
    expect_anomaly "non-repeatable read"
      (non_repeatable_read_journal ())
      Certify.Non_repeatable_read
  in
  Alcotest.(check (pair int int)) "seq range" (2, 5) a.Certify.seq_range

(* T2 buffers x=99 but never commits it; T1 reads 99 anyway.  No DSG
   edge exists — the value-level check attributes the read to T2's
   uncommitted workspace. *)
let dirty_read_journal () =
  mk_journal
    [
      create_ps;
      exec_result ~txn:"t0" ~qid:"q1" ~writes:[ ("x", set 1) ] ~returns:[] ();
      apply ~txn:"t0" ~commit:true ~writes:[ ("x", 1) ];
      exec_result ~txn:"t2" ~qid:"q2" ~writes:[ ("x", set 99) ] ~returns:[] ();
      exec_result ~txn:"t1" ~qid:"q3" ~reads:[ "x" ] ~returns:[ ("x", v 99) ] ();
      apply ~txn:"t2" ~commit:false ~writes:[];
      exec_result ~txn:"t1" ~qid:"q4" ~writes:[ ("z", set 1) ] ~returns:[] ();
      apply ~txn:"t1" ~commit:true ~writes:[ ("z", 1) ];
    ]

let test_dirty_read () =
  let a = expect_anomaly "dirty read" (dirty_read_journal ()) Certify.Dirty_read in
  Alcotest.(check (list string))
    "reader and uncommitted writer" [ "t1"; "t2" ]
    (List.sort String.compare a.Certify.txns);
  (* Evidence: T2's buffered write (seq 4) to T1's read (seq 5). *)
  Alcotest.(check (pair int int)) "seq range" (4, 5) a.Certify.seq_range

let test_verdict_deterministic () =
  let lines = lost_update_journal () in
  let s1 = Certify.summary (certify "run 1" lines) in
  let s2 = Certify.summary (certify "run 2" lines) in
  Alcotest.(check string) "bit-identical summary" s1 s2;
  Alcotest.(check bool) "names the anomaly" true
    (String.length s1 > 0
    &&
    match String.index_opt s1 'A' with Some _ -> true | None -> false)

(* ------------------------------------------------------------------ *)
(* Clean journals: every cell, then a chaos sweep                      *)
(* ------------------------------------------------------------------ *)

let all_cells =
  List.concat_map
    (fun scheme ->
      List.map (fun level -> (scheme, level)) [ Consistency.View; Consistency.Global ])
    Scheme.all

let lines_of journal =
  String.split_on_char '\n' (Journal.to_string journal)
  |> List.filter (fun l -> not (String.equal l ""))

let run_cell scheme level staleness =
  let scenario = Scenario.retail ~n_servers:4 ~n_subjects:1 () in
  let cluster = scenario.Scenario.cluster in
  let transport = Cluster.transport cluster in
  let journal = Transport.enable_journal transport in
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
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:4 ()
  in
  let outcome = Manager.run_one cluster (Manager.config scheme level) txn in
  (lines_of journal, outcome)

let test_every_cell_certifies_serializable () =
  List.iter
    (fun (scheme, level) ->
      let what =
        Printf.sprintf "%s/%s" (Scheme.name scheme) (Consistency.name level)
      in
      let lines, outcome = run_cell scheme level (Table1.worst_for scheme level) in
      Alcotest.(check bool) (what ^ ": committed") true outcome.Outcome.committed;
      let r = certify what lines in
      match r.Certify.verdict with
      | Certify.Serializable { order; si } ->
        Alcotest.(check (list string)) (what ^ ": witness order") [ "t1" ] order;
        Alcotest.(check bool) (what ^ ": si") true si;
        Alcotest.(check int) (what ^ ": decode errors") 0 r.Certify.decode_errors
      | Certify.Anomalous a ->
        Alcotest.failf "%s: clean run flagged: %s" what (Certify.describe_anomaly a))
    all_cells

(* The fourth assertion layer: 3 plans x 8 cells = 24 chaos runs, each
   journal certified after liveness/safety/audit. *)
let test_chaos_sweep_certifies () =
  let verdict = Campaign.run ~certify:true ~plans:3 () in
  Alcotest.(check int) "24 runs" 24 verdict.Campaign.plans_run;
  match verdict.Campaign.failures with
  | [] -> ()
  | { Campaign.failure; _ } :: _ ->
    Alcotest.failf "chaos+certify failed: %s" failure.Campaign.what

(* ------------------------------------------------------------------ *)
(* Pre-v3 journals and exports                                         *)
(* ------------------------------------------------------------------ *)

(* Strip the v3 write stamps (rewrite Apply payloads as v2, downgrade
   the header): the certifier must fall back to journal order and the
   buffered write keys and still certify the clean run. *)
let downgrade_to_v2 lines =
  let module Json = Cloudtx_policy.Json in
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

let test_v2_journal_certifies () =
  let lines, _ = run_cell Scheme.Deferred Consistency.View Table1.Fresh in
  let r = certify "v2 fallback" (downgrade_to_v2 lines) in
  match r.Certify.verdict with
  | Certify.Serializable { order; _ } ->
    Alcotest.(check (list string)) "witness" [ "t1" ] order
  | Certify.Anomalous a ->
    Alcotest.failf "v2 journal flagged: %s" (Certify.describe_anomaly a)

let test_dsg_exports () =
  let r = certify "export" (lost_update_journal ()) in
  let g = Certify.to_dsg r in
  let dot = Dsg.to_dot ~name:"history" g in
  let json = Dsg.to_json g in
  Alcotest.(check bool) "dot digraph" true
    (String.length dot > 0 && String.sub dot 0 16 = "digraph history ");
  List.iter
    (fun needle ->
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) (needle ^ " in dot") true (contains dot needle);
      Alcotest.(check bool) (needle ^ " in json") true (contains json needle))
    [ "t1"; "t2"; "rw"; "ww"; "red" ]

let () =
  Alcotest.run "certify"
    [
      ( "anomalies",
        [
          Alcotest.test_case "lost update" `Quick test_lost_update;
          Alcotest.test_case "write skew" `Quick test_write_skew;
          Alcotest.test_case "non-repeatable read" `Quick test_non_repeatable_read;
          Alcotest.test_case "dirty read" `Quick test_dirty_read;
          Alcotest.test_case "deterministic verdict" `Quick test_verdict_deterministic;
        ] );
      ( "clean",
        [
          Alcotest.test_case "every cell serializable" `Quick
            test_every_cell_certifies_serializable;
          Alcotest.test_case "chaos sweep certifies" `Quick test_chaos_sweep_certifies;
        ] );
      ( "formats",
        [
          Alcotest.test_case "v2 fallback" `Quick test_v2_journal_certifies;
          Alcotest.test_case "dsg exports" `Quick test_dsg_exports;
        ] );
    ]
