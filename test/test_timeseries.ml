(* Tests for the windowed time series and the flight-deck report:
   window-assignment semantics, sketch accuracy against exact
   percentiles, and — the load-bearing property — online/offline
   agreement: the report built live through the journal observer equals
   the one rebuilt by replaying the journal file, byte for byte, for
   every scheme x level cell. *)

module Sketch = Cloudtx_obs.Sketch
module Timeseries = Cloudtx_obs.Timeseries
module Report = Cloudtx_obs.Report
module Monitor = Cloudtx_obs.Monitor
module Slo = Cloudtx_obs.Slo
module Journal = Cloudtx_obs.Journal
module Health = Cloudtx_core.Health
module Report_io = Cloudtx_core.Report_io
module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Outcome = Cloudtx_protocol.Outcome
module Scenario = Cloudtx_workload.Scenario
module Transport = Cloudtx_sim.Transport
module Sample_set = Cloudtx_metrics.Sample_set

(* ------------------------------------------------------------------ *)
(* Sketch vs exact percentiles                                         *)
(* ------------------------------------------------------------------ *)

let sketch_of values =
  let s = Sketch.create () in
  List.iter (Sketch.observe s) values;
  s

let exact_of values =
  let e = Sample_set.create () in
  List.iter (Sample_set.add e) values;
  e

let check_within_bound what values p =
  let s = sketch_of values and e = exact_of values in
  let got = Sketch.percentile s p and want = Sample_set.percentile e p in
  let eb = Sketch.error_bound s in
  if Float.abs (got -. want) > (eb *. Float.abs want) +. 1e-9 then
    Alcotest.failf "%s: p%.1f sketch %.6f vs exact %.6f exceeds bound %.4f"
      what p got want eb

let test_sketch_error_bound_units () =
  let cases =
    [
      ("singleton", [ 42. ]);
      ("two", [ 1.; 1000. ]);
      ("uniform", List.init 500 (fun i -> float_of_int (i + 1)));
      ("powers of two", List.init 20 (fun i -> Float.ldexp 1. i));
      ("tiny", List.init 50 (fun i -> 1e-4 *. float_of_int (i + 1)));
      ("mixed magnitudes", [ 0.001; 0.5; 3.; 700.; 1e6 ]);
    ]
  in
  List.iter
    (fun (what, values) ->
      List.iter (check_within_bound what values) [ 0.; 50.; 90.; 99.; 100. ])
    cases

let test_sketch_error_bound_property =
  QCheck.Test.make ~count:200 ~name:"sketch quantiles within error bound"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 200) (make Gen.(float_range 1e-3 1e6)))
        (make Gen.(float_range 0. 100.)))
    (fun (values, p) ->
      let s = sketch_of values and e = exact_of values in
      let got = Sketch.percentile s p and want = Sample_set.percentile e p in
      Float.abs (got -. want) <= (Sketch.error_bound s *. Float.abs want) +. 1e-9)

let test_sketch_merge_exact () =
  let a = List.init 100 (fun i -> float_of_int (i + 1))
  and b = List.init 57 (fun i -> 3.7 *. float_of_int (i + 1)) in
  let merged = sketch_of a in
  Sketch.merge_into merged (sketch_of b);
  let whole = sketch_of (a @ b) in
  Alcotest.(check int) "count" (Sketch.count whole) (Sketch.count merged);
  Alcotest.(check (float 1e-9)) "sum" (Sketch.sum whole) (Sketch.sum merged);
  Alcotest.(check (list (pair (float 0.) int)))
    "bins identical" (Sketch.bins whole) (Sketch.bins merged);
  List.iter
    (fun p ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "p%.0f" p)
        (Sketch.percentile whole p) (Sketch.percentile merged p))
    [ 0.; 50.; 99.; 100. ]

let test_sketch_merge_sub_bits_mismatch () =
  let a = Sketch.create ~sub_bits:5 () and b = Sketch.create ~sub_bits:6 () in
  Alcotest.check_raises "sub_bits must match"
    (Invalid_argument "Sketch.merge_into: sub_bits differ") (fun () ->
      Sketch.merge_into a b)

let test_sketch_zero_and_memory () =
  let s = Sketch.create () in
  List.iter (Sketch.observe s) [ -3.; 0.; Float.nan; 5. ];
  Alcotest.(check int) "all counted" 4 (Sketch.count s);
  Alcotest.(check (float 0.)) "p0 is the zero bin" 0. (Sketch.percentile s 0.);
  Alcotest.(check (float 0.)) "max tracked exactly" 5. (Sketch.max s);
  (* Bounded memory: more observations over the same range must not grow
     the footprint. *)
  let bounded = Sketch.create () in
  List.iter (Sketch.observe bounded) (List.init 100 (fun i -> float_of_int (i + 1)));
  let before = Sketch.memory_words bounded in
  List.iter (Sketch.observe bounded) (List.init 10_000 (fun i -> float_of_int ((i mod 100) + 1)));
  Alcotest.(check int) "memory flat over same range" before
    (Sketch.memory_words bounded)

(* ------------------------------------------------------------------ *)
(* Window semantics                                                    *)
(* ------------------------------------------------------------------ *)

let begin_ev txn = Monitor.Txn_begin { txn; node = "tm"; scheme = "s"; level = "l" }
let end_ev txn = Monitor.Txn_end { txn; committed = true; reason = ""; killed = false }

let test_edge_observation_starts_window () =
  let ts = Timeseries.create ~width_ms:100. () in
  Timeseries.observe ts ~seq:1 ~time_ms:99.999 (begin_ev "a");
  Timeseries.observe ts ~seq:2 ~time_ms:100. (begin_ev "b");
  match Timeseries.cells ts with
  | [ w0; w1 ] ->
    Alcotest.(check int) "99.999 in window 0" 1 w0.Timeseries.begun;
    Alcotest.(check int) "edge observation in the window it starts" 1
      w1.Timeseries.begun;
    Alcotest.(check (float 0.)) "window 1 starts at 100" 100.
      w1.Timeseries.start_ms
  | cells -> Alcotest.failf "expected 2 windows, got %d" (List.length cells)

let test_empty_windows_rendered () =
  let ts = Timeseries.create ~width_ms:100. () in
  Timeseries.observe ts ~seq:1 ~time_ms:10. (begin_ev "a");
  Timeseries.observe ts ~seq:2 ~time_ms:350. (end_ev "a");
  let cells = Timeseries.cells ts in
  Alcotest.(check int) "dense to the max index" 4 (List.length cells);
  List.iteri
    (fun i (c : Timeseries.cell) ->
      Alcotest.(check int) "indices dense" i c.Timeseries.index)
    cells;
  let middle = List.nth cells 1 in
  Alcotest.(check int) "gap window all zero" 0
    (middle.Timeseries.begun + middle.Timeseries.commits
   + middle.Timeseries.aborts)

let test_out_of_order_time () =
  let ts = Timeseries.create ~width_ms:100. () in
  Timeseries.observe ts ~seq:5 ~time_ms:250. (begin_ev "late");
  Timeseries.observe ts ~seq:6 ~time_ms:50. (begin_ev "early");
  let cells = Timeseries.cells ts in
  Alcotest.(check int) "three windows" 3 (List.length cells);
  Alcotest.(check int) "early landed in window 0" 1
    (List.nth cells 0).Timeseries.begun;
  Alcotest.(check int) "late landed in window 2" 1
    (List.nth cells 2).Timeseries.begun;
  (* Negative time clamps to window 0 rather than crashing. *)
  Timeseries.observe ts ~seq:7 ~time_ms:(-3.) (begin_ev "clamped");
  Alcotest.(check int) "negative time clamps into window 0" 2
    (List.nth (Timeseries.cells ts) 0).Timeseries.begun

let mk_alert ~fired_at ~resolved_at =
  {
    Slo.id = 1;
    rule = "stuck_txn";
    severity = Slo.Critical;
    subject = "t1";
    node = "tm-t1";
    first_seq = 1;
    last_seq = 2;
    fired_at;
    detail = "test";
    resolved_at;
  }

let test_alert_gauges_cumulative () =
  let ts = Timeseries.create ~width_ms:100. () in
  Timeseries.observe ts ~seq:1 ~time_ms:250. (begin_ev "pad");
  let a = mk_alert ~fired_at:10. ~resolved_at:None in
  Timeseries.note_alert ts `Fire a;
  a.Slo.resolved_at <- Some 230.;
  Timeseries.note_alert ts `Resolve a;
  match Timeseries.cells ts with
  | [ w0; w1; w2 ] ->
    Alcotest.(check int) "fired in window 0" 1 w0.Timeseries.alerts_fired;
    Alcotest.(check int) "open at end of window 0" 1 w0.Timeseries.alerts_open;
    Alcotest.(check int) "still open through window 1" 1
      w1.Timeseries.alerts_open;
    Alcotest.(check int) "resolved in window 2" 1 w2.Timeseries.alerts_resolved;
    Alcotest.(check int) "closed at end of window 2" 0
      w2.Timeseries.alerts_open
  | cells -> Alcotest.failf "expected 3 windows, got %d" (List.length cells)

let test_latency_feeds_phase_sketches () =
  let ts = Timeseries.create ~width_ms:100. () in
  Timeseries.observe ts ~seq:1 ~time_ms:20.
    (Monitor.Txn_latency
       {
         txn = "t1";
         total_ms = 10.;
         execute_ms = Some 6.;
         commit_ms = Some 3.;
         decide_ms = Some 1.;
       });
  let w = List.hd (Timeseries.cells ts) in
  let phase name = List.assoc name w.Timeseries.phases in
  Alcotest.(check int) "total count" 1 (phase "total").Timeseries.count;
  (* Sketch quantiles report bin midpoints: within the relative error
     bound of the exact value, not equal to it. *)
  Alcotest.(check (float 0.1)) "execute p50" 6. (phase "execute").Timeseries.p50;
  Alcotest.(check (float 0.01)) "commit max" 3. (phase "commit").Timeseries.max;
  let t = Timeseries.totals ts in
  Alcotest.(check int) "totals merged" 1
    (List.assoc "total" t.Timeseries.phases).Timeseries.count

(* ------------------------------------------------------------------ *)
(* Knee detection                                                      *)
(* ------------------------------------------------------------------ *)

let mk_window ~index ~commits ~p99 =
  {
    Report.index;
    start_ms = 100. *. float_of_int index;
    begun = commits;
    commits;
    aborts = 0;
    killed = 0;
    staleness = 0;
    alerts_fired = 0;
    alerts_resolved = 0;
    alerts_open = 0;
    phases =
      [ ("total", { Report.count = commits; p50 = p99; p99; p999 = p99; max = p99 }) ];
  }

let mk_totals commits =
  {
    Report.begun = commits;
    commits;
    aborts = 0;
    killed = 0;
    staleness = 0;
    alerts_fired = 0;
    alerts_resolved = 0;
    alerts_open = 0;
    phases = [];
  }

let test_knee_detected () =
  (* Latency jumps 2x while throughput stays flat: the saturation
     signature. *)
  let windows =
    [
      mk_window ~index:0 ~commits:10 ~p99:10.;
      mk_window ~index:1 ~commits:10 ~p99:11.;
      mk_window ~index:2 ~commits:10 ~p99:22.;
    ]
  in
  let r = Report.make ~width_ms:100. ~windows ~totals:(mk_totals 30) in
  Alcotest.(check (option int)) "knee at window 2" (Some 2) r.Report.knee

let test_knee_absent_when_throughput_grows () =
  (* Latency rises but throughput rises with it: load growth, not
     saturation. *)
  let windows =
    [
      mk_window ~index:0 ~commits:10 ~p99:10.;
      mk_window ~index:1 ~commits:20 ~p99:22.;
      mk_window ~index:2 ~commits:40 ~p99:50.;
    ]
  in
  let r = Report.make ~width_ms:100. ~windows ~totals:(mk_totals 70) in
  Alcotest.(check (option int)) "no knee" None r.Report.knee

(* ------------------------------------------------------------------ *)
(* Online = offline, all 8 cells                                       *)
(* ------------------------------------------------------------------ *)

let all_cells =
  List.concat_map
    (fun scheme ->
      List.map (fun level -> (scheme, level)) [ Consistency.View; Consistency.Global ])
    Scheme.all

(* The [run --metrics-interval] wiring, minus the CLI: one journal, one
   Health bridge feeding a monitor and the fabric's timeseries. *)
let run_cell scheme level =
  let scenario = Scenario.retail ~n_servers:4 ~n_subjects:1 () in
  let cluster = scenario.Scenario.cluster in
  let transport = Cluster.transport cluster in
  let journal = Transport.enable_journal transport in
  let ts = Transport.enable_timeseries ~width_ms:20. transport in
  let monitor = Monitor.create ~notify:(Timeseries.note_alert ts) () in
  ignore (Health.attach ~timeseries:ts journal monitor);
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:4 ()
  in
  let outcome = Manager.run_one cluster (Manager.config scheme level) txn in
  (journal, ts, outcome)

let with_temp_journal contents f =
  let path = Filename.temp_file "cloudtx_timeseries" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let test_online_equals_offline_all_cells () =
  List.iter
    (fun (scheme, level) ->
      let what =
        Printf.sprintf "%s/%s" (Scheme.name scheme) (Consistency.name level)
      in
      let journal, ts, outcome = run_cell scheme level in
      Alcotest.(check bool) (what ^ ": committed") true outcome.Outcome.committed;
      let live = Report.to_json (Report.of_timeseries ts) in
      (* Offline: replay the journal file through a fresh bridge. *)
      let offline =
        with_temp_journal (Journal.to_string journal) (fun path ->
            match Report_io.of_journal ~width_ms:20. path with
            | Ok (r, _monitor) -> Report.to_json r
            | Error why -> Alcotest.failf "%s: offline replay failed: %s" what why)
      in
      Alcotest.(check string) (what ^ ": online = offline report JSON") live
        offline;
      (* Live snapshot artifact: parsing --metrics-out JSONL rebuilds the
         same report too. *)
      match Report_io.of_snapshot (Timeseries.to_jsonl ts) with
      | Error why -> Alcotest.failf "%s: snapshot rejected: %s" what why
      | Ok r ->
        Alcotest.(check string)
          (what ^ ": snapshot round-trips to the same JSON")
          live (Report.to_json r))
    all_cells

let test_snapshot_rejects_garbage () =
  (match Report_io.of_snapshot "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty snapshot accepted");
  (match Report_io.of_snapshot {|{"metrics":"cloudtx","version":1,"width_ms":100}|} with
  | Error why ->
    Alcotest.(check bool) "names the missing totals" true
      (String.length why > 0)
  | Ok _ -> Alcotest.fail "headerless body accepted");
  match
    Report_io.of_snapshot
      {|{"metrics":"cloudtx","version":999,"width_ms":100}
{"totals":{}}|}
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future version accepted"

let () =
  Alcotest.run "timeseries"
    [
      ( "sketch",
        [
          Alcotest.test_case "error bound units" `Quick
            test_sketch_error_bound_units;
          QCheck_alcotest.to_alcotest test_sketch_error_bound_property;
          Alcotest.test_case "merge is exact" `Quick test_sketch_merge_exact;
          Alcotest.test_case "merge rejects sub_bits mismatch" `Quick
            test_sketch_merge_sub_bits_mismatch;
          Alcotest.test_case "zero bin and bounded memory" `Quick
            test_sketch_zero_and_memory;
        ] );
      ( "windows",
        [
          Alcotest.test_case "edge observation starts its window" `Quick
            test_edge_observation_starts_window;
          Alcotest.test_case "empty windows rendered" `Quick
            test_empty_windows_rendered;
          Alcotest.test_case "out-of-order and negative time" `Quick
            test_out_of_order_time;
          Alcotest.test_case "alert gauges cumulative" `Quick
            test_alert_gauges_cumulative;
          Alcotest.test_case "latency feeds phase sketches" `Quick
            test_latency_feeds_phase_sketches;
        ] );
      ( "report",
        [
          Alcotest.test_case "knee detected" `Quick test_knee_detected;
          Alcotest.test_case "knee absent under load growth" `Quick
            test_knee_absent_when_throughput_grows;
          Alcotest.test_case "snapshot rejects garbage" `Quick
            test_snapshot_rejects_garbage;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "online = offline, all 8 cells" `Quick
            test_online_equals_offline_all_cells;
        ] );
    ]
