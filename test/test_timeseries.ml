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
module Churn = Cloudtx_workload.Churn
module Experiment = Cloudtx_workload.Experiment
module Generator = Cloudtx_workload.Generator
module Splitmix = Cloudtx_sim.Splitmix

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

(* The bin a sketch (32 sub-buckets by default, [sub_bits] of them as a
   power of two) put a positive value in when it located it through
   frexp: octave k = e - 1 for v = m * 2^e, sub-bucket
   floor((v / 2^k - 1) * sub), clamped to octaves -16..47 — reported as
   the bin's upper edge, as [Sketch.bins] reports it. *)
let frexp_edge ~sub_bits v =
  let sub = 1 lsl sub_bits in
  let _, e = Float.frexp v in
  let k = e - 1 in
  let o, s =
    if k < -16 then (0, 0)
    else if k > 47 then (63, sub - 1)
    else
      let frac = Float.ldexp v (-k) -. 1. in
      (k + 16, min (sub - 1) (int_of_float (frac *. float_of_int sub)))
  in
  Float.ldexp (1. +. (float_of_int (s + 1) /. float_of_int sub)) (o - 16)

let gen_positive =
  let open QCheck.Gen in
  let scaled lo hi =
    map2 (fun f e -> Float.ldexp (1. +. f) e) (float_bound_exclusive 1.)
      (int_range lo hi)
  in
  frequency
    [
      (2, map (fun e -> Float.ldexp 1. e) (int_range (-1074) 1023));
      (* subnormals: a zero exponent and any non-zero mantissa *)
      ( 2,
        map
          (fun m -> Int64.float_of_bits (Int64.of_int m))
          (int_range 1 ((1 lsl 52) - 1)) );
      (2, scaled 48 1023);
      (2, scaled (-1022) (-17));
      (3, scaled (-16) 47);
      (* any positive finite double *)
      ( 2,
        map
          (fun (e, m) ->
            Int64.(float_of_bits (logor (shift_left (of_int e) 52) (of_int m))))
          (pair (int_range 0 2046) (int_range 0 ((1 lsl 52) - 1))) );
      (1, float_range 1e-3 1e6);
    ]

let test_sketch_bins_match_frexp =
  QCheck.Test.make ~count:2000 ~name:"sketch bins = the frexp formula's"
    QCheck.(
      pair
        (make ~print:(Printf.sprintf "%h") gen_positive)
        (make ~print:string_of_int Gen.(int_range 0 12)))
    (fun (v, sub_bits) ->
      let s = Sketch.create ~sub_bits () in
      Sketch.observe s v;
      Sketch.bins s = [ (frexp_edge ~sub_bits v, 1) ])

let test_sketch_infinity_top_bin () =
  let s = Sketch.create () in
  Sketch.observe s Float.infinity;
  Sketch.observe s 1e300;
  Alcotest.(check (list (pair (float 0.) int)))
    "+infinity and 1e300 share the top bin, below 2^48"
    [ (Float.ldexp 1. 48, 2) ]
    (Sketch.bins s);
  Alcotest.(check (float 0.)) "max is exact" Float.infinity (Sketch.max s)

let test_sketch_observe_allocates_nothing () =
  let s = Sketch.create () in
  let values = [ 1e-9; 0.37; 1.; 5.5; 1e3; 2e9; 1e30; -1.; Float.nan ] in
  let observe = Sketch.observe s in
  (* The first pass allocates the rows these values land in. *)
  List.iter observe values;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    List.iter observe values
  done;
  let words = Gc.minor_words () -. before in
  if words > 0. then
    Alcotest.failf "90 000 observations allocated %.0f minor words" words

(* ------------------------------------------------------------------ *)
(* Window semantics                                                    *)
(* ------------------------------------------------------------------ *)

let test_edge_observation_starts_window () =
  let ts = Timeseries.create ~width_ms:100. () in
  Timeseries.txn_begin ts ~time_ms:99.999;
  Timeseries.txn_begin ts ~time_ms:100.;
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
  Timeseries.txn_begin ts ~time_ms:10.;
  Timeseries.txn_end ts ~time_ms:350. ~committed:true ~killed:false;
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
  Timeseries.txn_begin ts ~time_ms:250.;
  Timeseries.txn_begin ts ~time_ms:50.;
  let cells = Timeseries.cells ts in
  Alcotest.(check int) "three windows" 3 (List.length cells);
  Alcotest.(check int) "early landed in window 0" 1
    (List.nth cells 0).Timeseries.begun;
  Alcotest.(check int) "late landed in window 2" 1
    (List.nth cells 2).Timeseries.begun;
  (* Negative time clamps to window 0 rather than crashing. *)
  Timeseries.txn_begin ts ~time_ms:(-3.);
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
  Timeseries.txn_begin ts ~time_ms:250.;
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
  Timeseries.latency ts ~time_ms:20. ~total_ms:10. ~execute_ms:(Some 6.)
    ~commit_ms:(Some 3.) ~decide_ms:(Some 1.);
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
(* Staleness = the series' own version tracking                        *)
(* ------------------------------------------------------------------ *)

(* The reference: the staleness a series tracked with master and replica
   tables of its own, before it took the lags the monitor computes.
   [window] stands for the series window of the observation's time. *)
module Own_versions = struct
  type window = { mutable w_staleness : int }

  type t = {
    mutable staleness_peak : int;
    master : (string, int) Hashtbl.t;
    replicas : (string * string, int) Hashtbl.t;
  }

  let create () =
    { staleness_peak = 0; master = Hashtbl.create 4; replicas = Hashtbl.create 16 }

  let note_lag t w node domain =
    match Hashtbl.find_opt t.master domain with
    | None -> ()
    | Some master -> (
      match Hashtbl.find_opt t.replicas (node, domain) with
      | None -> ()
      | Some held ->
        let lag = master - held in
        if lag > w.w_staleness then w.w_staleness <- lag;
        if lag > t.staleness_peak then t.staleness_peak <- lag)

  let note_master t w domain version =
    let prev = Option.value ~default:0 (Hashtbl.find_opt t.master domain) in
    if version > prev then begin
      Hashtbl.replace t.master domain version;
      Hashtbl.iter
        (fun (node, d) _ -> if String.equal d domain then note_lag t w node domain)
        t.replicas
    end

  let note_replica t w node domain version =
    let prev = Option.value ~default:0 (Hashtbl.find_opt t.replicas (node, domain)) in
    if version > prev then Hashtbl.replace t.replicas (node, domain) version;
    (* A replica can only hold a version the master once published. *)
    note_master t w domain version;
    note_lag t w node domain
end

type version_step =
  | Master of string * int
  | Replica of string * string * int
  | Proof of string * string * int
  | Tick

(* Equal to the pool's string but not physically shared with it. *)
let fresh s = Bytes.to_string (Bytes.of_string s)

(* Servers and domains interleaved at random, versions from -1 (below
   anything a master publishes) to 6, and a clock that crosses windows
   and now and then steps back. *)
let gen_version_stream =
  let open QCheck.Gen in
  let node = map fresh (oneofl [ "server-1"; "server-2"; "server-3" ]) in
  let domain = map fresh (oneofl [ "retail"; "bank"; "hr" ]) in
  let version = int_range (-1) 6 in
  let step =
    frequency
      [
        (2, map2 (fun d v -> Master (d, v)) domain version);
        (3, map3 (fun n d v -> Replica (n, d, v)) node domain version);
        (3, map3 (fun n d v -> Proof (n, d, v)) node domain version);
        (1, return Tick);
      ]
  in
  let dt = frequency [ (9, float_bound_inclusive 4.); (1, float_range (-6.) 0.) ] in
  let* staleness_ms = oneofl [ 1.; infinity ] in
  let* staleness_versions = int_range 0 3 in
  let* steps = list_size (int_range 1 150) (pair dt step) in
  return ({ Slo.default with Slo.staleness_ms; staleness_versions }, steps)

let prop_staleness_matches_own_versions (rules, steps) =
  let ts = Timeseries.create ~width_ms:10. () in
  let monitor = Monitor.create ~rules () in
  let own = Own_versions.create () in
  let windows = Hashtbl.create 16 in
  let max_index = ref (-1) in
  let time = ref 0. in
  List.iteri
    (fun i (dt, step) ->
      time := !time +. dt;
      let seq = i + 1 and time_ms = !time in
      let index = Int.max 0 (int_of_float (Float.floor (time_ms /. 10.))) in
      max_index := Int.max !max_index index;
      let w =
        match Hashtbl.find_opt windows index with
        | Some w -> w
        | None ->
          let w = { Own_versions.w_staleness = 0 } in
          Hashtbl.replace windows index w;
          w
      in
      match step with
      | Master (domain, version) ->
        Own_versions.note_master own w domain version;
        Timeseries.staleness ts ~time_ms
          (Monitor.master_version monitor ~seq ~time_ms ~domain ~version)
      | Replica (node, domain, version) ->
        Own_versions.note_replica own w node domain version;
        Timeseries.staleness ts ~time_ms
          (Monitor.replica_version monitor ~seq ~time_ms ~node ~domain ~version)
      | Proof (node, domain, version) ->
        Own_versions.note_replica own w node domain version;
        Timeseries.staleness ts ~time_ms
          (Monitor.proof_result monitor ~seq ~time_ms ~txn:"t" ~node ~domain
             ~version ~result:true)
      | Tick ->
        Monitor.tick monitor ~seq ~time_ms;
        Timeseries.tick ts ~time_ms)
    steps;
  let expected =
    List.init (!max_index + 1) (fun i ->
        match Hashtbl.find_opt windows i with
        | Some w -> w.Own_versions.w_staleness
        | None -> 0)
  in
  List.map (fun (c : Timeseries.cell) -> c.Timeseries.staleness) (Timeseries.cells ts)
  = expected
  && (Timeseries.totals ts).Timeseries.staleness = own.Own_versions.staleness_peak

let test_staleness_matches_own_versions =
  QCheck.Test.make ~name:"staleness = the series' own version tracking"
    ~count:500
    (QCheck.make
       ~print:(fun (rules, steps) ->
         Printf.sprintf "staleness_ms=%g versions=%d, %d steps"
           rules.Slo.staleness_ms rules.Slo.staleness_versions (List.length steps))
       gen_version_stream)
    prop_staleness_matches_own_versions

(* ------------------------------------------------------------------ *)
(* Knee detection                                                      *)
(* ------------------------------------------------------------------ *)

let mk_window ~index ~commits ~p99 =
  {
    Timeseries.index;
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
      [
        ( "total",
          { Timeseries.count = commits; p50 = p99; p99; p999 = p99; max = p99 }
        );
      ];
  }

let mk_totals commits =
  {
    Timeseries.begun = commits;
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
      let live = Report.of_timeseries ts in
      (* Offline: replay the journal file through a fresh bridge. *)
      let offline =
        with_temp_journal (Journal.to_string journal) (fun path ->
            match Report_io.of_journal ~width_ms:20. path with
            | Ok (r, _monitor) -> r
            | Error why -> Alcotest.failf "%s: offline replay failed: %s" what why)
      in
      Alcotest.(check string) (what ^ ": online = offline report JSON")
        (Report.to_json live) (Report.to_json offline);
      (* The live --metrics-out artifact is the offline replay's snapshot,
         byte for byte: what `report JOURNAL --metrics` checks. *)
      Alcotest.(check string) (what ^ ": online = offline snapshot")
        (Report.to_snapshot live) (Report.to_snapshot offline))
    all_cells

(* A run under policy churn, journaled: replicas lag the master between
   refreshes, so a zero-version staleness bound fires and resolves
   alerts over and over. *)
let churn_journal () =
  let scenario = Scenario.retail ~seed:1L ~n_servers:4 ~n_subjects:4 () in
  let journal =
    Transport.enable_journal (Cluster.transport scenario.Scenario.cluster)
  in
  Churn.policy_refresh scenario ~period:10. ~propagation:(0.5, 8.) ~count:50;
  let rng = Splitmix.create 2L in
  ignore
    (Experiment.run_sequential scenario
       (Manager.config Scheme.Continuous Consistency.Global)
       ~n:10
       (fun ~i ->
         Generator.generate scenario rng Generator.default
           ~id:(Printf.sprintf "t%d" i)));
  Journal.to_string journal

(* The report's alert timeline is what `watch` prints: each transition's
   console line as it was emitted, not re-rendered from the alert record
   after a resolve has rewritten its evidence. *)
let test_alert_timeline_is_console () =
  let rules = { Slo.default with Slo.staleness_versions = 0 } in
  with_temp_journal (churn_journal ()) (fun path ->
      let printed = ref [] in
      let watch =
        Monitor.create ~rules ~console:(fun l -> printed := l :: !printed) ()
      in
      (match Health.of_file path watch with
      | Ok _ -> ()
      | Error why -> Alcotest.failf "watch replay failed: %s" why);
      match Report_io.of_journal ~rules path with
      | Error why -> Alcotest.failf "report replay failed: %s" why
      | Ok (_, monitor) ->
        let timeline = Report_io.alert_lines_of_monitor monitor in
        Alcotest.(check bool) "an alert resolved" true
          (List.exists (String.starts_with ~prefix:"RESOLVED") timeline);
        Alcotest.(check (list string)) "timeline = watch console"
          (List.rev !printed) timeline)

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
          QCheck_alcotest.to_alcotest test_sketch_bins_match_frexp;
          Alcotest.test_case "+infinity in the top bin" `Quick
            test_sketch_infinity_top_bin;
          Alcotest.test_case "observe allocates nothing" `Quick
            test_sketch_observe_allocates_nothing;
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
          QCheck_alcotest.to_alcotest test_staleness_matches_own_versions;
          Alcotest.test_case "latency feeds phase sketches" `Quick
            test_latency_feeds_phase_sketches;
        ] );
      ( "report",
        [
          Alcotest.test_case "knee detected" `Quick test_knee_detected;
          Alcotest.test_case "knee absent under load growth" `Quick
            test_knee_absent_when_throughput_grows;
          Alcotest.test_case "alert timeline is the console transcript"
            `Quick test_alert_timeline_is_console;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "online = offline, all 8 cells" `Quick
            test_online_equals_offline_all_cells;
        ] );
    ]
