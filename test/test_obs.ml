(* Unit tests for cloudtx_obs: span tracing, the metrics registry, the
   log2 histogram and the Chrome/JSONL exporters.  Exported JSON is
   validated with the policy wire codec's parser, which is a full JSON
   reader. *)

module Tracer = Cloudtx_obs.Tracer
module Registry = Cloudtx_obs.Registry
module Histogram = Cloudtx_obs.Histogram
module Export = Cloudtx_obs.Export
module Obs_json = Cloudtx_obs.Json
module Json = Cloudtx_policy.Json

(* A hand-cranked clock makes span timestamps deterministic. *)
let make_tracer () =
  let now = ref 0. in
  let t = Tracer.create ~clock:(fun () -> !now) () in
  (t, now)

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let t, now = make_tracer () in
  let root = Tracer.start t ~track:"tm" "txn" in
  now := 1.;
  let child = Tracer.start t ~parent:root ~track:"tm" "query" in
  now := 3.;
  Tracer.finish t child;
  now := 5.;
  Tracer.finish t ~attrs:[ ("outcome", "commit") ] root;
  match Tracer.spans t with
  | [ r; c ] ->
    Alcotest.(check string) "root name" "txn" r.Tracer.name;
    Alcotest.(check int) "root has no parent" Tracer.no_span r.Tracer.parent;
    Alcotest.(check int) "child links to root" root c.Tracer.parent;
    Alcotest.(check (float 0.)) "root start" 0. r.Tracer.start;
    Alcotest.(check (float 0.)) "root finish" 5. r.Tracer.finish;
    Alcotest.(check (float 0.)) "child start" 1. c.Tracer.start;
    Alcotest.(check (float 0.)) "child finish" 3. c.Tracer.finish;
    Alcotest.(check (list (pair string string)))
      "finish attrs" [ ("outcome", "commit") ] r.Tracer.attrs
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_ordering () =
  let t, now = make_tracer () in
  now := 2.;
  let b = Tracer.start t "b" in
  now := 1.;
  let a = Tracer.start t "a" in
  Tracer.finish t a;
  Tracer.finish t b;
  Alcotest.(check (list string))
    "sorted by start time" [ "a"; "b" ]
    (List.map (fun s -> s.Tracer.name) (Tracer.spans t));
  (* Same start: creation (id) order breaks the tie. *)
  let t, _now = make_tracer () in
  ignore (Tracer.start t "first");
  ignore (Tracer.start t "second");
  Alcotest.(check (list string))
    "ties by id" [ "first"; "second" ]
    (List.map (fun s -> s.Tracer.name) (Tracer.spans t))

let test_finish_idempotent () =
  let t, now = make_tracer () in
  let s = Tracer.start t "x" in
  now := 2.;
  Tracer.finish t s;
  now := 9.;
  Tracer.finish t s;
  (* second finish ignored *)
  Tracer.finish t 424242;
  (* unknown id ignored *)
  let span = List.hd (Tracer.spans t) in
  Alcotest.(check (float 0.)) "first finish wins" 2. span.Tracer.finish

let test_instant_and_open () =
  let t, now = make_tracer () in
  let s = Tracer.start t "open-span" in
  ignore s;
  now := 4.;
  Tracer.instant t ~track:"net" ~attrs:[ ("dst", "p1") ] "send";
  Alcotest.(check int) "two spans" 2 (Tracer.length t);
  let by_name name = List.find (fun x -> x.Tracer.name = name) (Tracer.spans t) in
  Alcotest.(check bool) "instant flagged" true (by_name "send").Tracer.instant;
  Alcotest.(check bool)
    "open span has nan finish" true
    (Float.is_nan (by_name "open-span").Tracer.finish)

let test_disabled_tracer () =
  Alcotest.(check bool) "noop disabled" false (Tracer.enabled Tracer.noop);
  let id = Tracer.start Tracer.noop ~track:"x" "txn" in
  Alcotest.(check int) "start yields no_span" Tracer.no_span id;
  Tracer.set_attr Tracer.noop id "k" "v";
  Tracer.finish Tracer.noop id;
  Tracer.instant Tracer.noop "i";
  Alcotest.(check int) "nothing recorded" 0 (Tracer.length Tracer.noop)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_label_canonicalization () =
  let r = Registry.create () in
  Registry.incr r "msgs" [ ("b", "2"); ("a", "1") ];
  Registry.incr r "msgs" [ ("a", "1"); ("b", "2") ];
  Alcotest.(check int)
    "order-insensitive identity" 2
    (Registry.counter r "msgs" [ ("b", "2"); ("a", "1") ]);
  Registry.incr r "msgs" [ ("a", "1") ];
  Alcotest.(check int) "different set is a new series" 1
    (Registry.counter r "msgs" [ ("a", "1") ]);
  Alcotest.(check int) "total sums label sets" 3 (Registry.counter_total r "msgs")

let test_registry_cells () =
  let r = Registry.create () in
  Registry.set_gauge r "depth" [] 3.5;
  Registry.set_gauge r "depth" [] 1.5;
  Alcotest.(check (option (float 0.))) "gauge overwrites" (Some 1.5)
    (Registry.gauge r "depth" []);
  Registry.observe r "lat" [ ("s", "a") ] 10.;
  Registry.observe r "lat" [ ("s", "a") ] 30.;
  (match Registry.histogram r "lat" [ ("s", "a") ] with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "count" 2 (Histogram.count h);
    Alcotest.(check (float 1e-9)) "mean" 20. (Histogram.mean h);
    Alcotest.(check (float 0.)) "exact running sum" 40. (Histogram.sum h));
  Alcotest.check_raises "type mismatch"
    (Invalid_argument "Registry: depth is a gauge, not a counter") (fun () ->
      Registry.incr r "depth" [])

let test_registry_series_sorted () =
  let r = Registry.create () in
  Registry.incr r "z" [];
  Registry.incr r "a" [ ("k", "2") ];
  Registry.incr r "a" [ ("k", "1") ];
  Alcotest.(check (list string))
    "sorted by name then labels" [ "a/k=1"; "a/k=2"; "z/" ]
    (List.map
       (fun (name, labels, _) ->
         name ^ "/" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels))
       (Registry.series r))

let test_disabled_registry () =
  Alcotest.(check bool) "noop disabled" false (Registry.enabled Registry.noop);
  Registry.incr Registry.noop "c" [];
  Registry.set_gauge Registry.noop "g" [] 1.;
  Registry.observe Registry.noop "h" [] 1.;
  Alcotest.(check int) "no cells" 0 (List.length (Registry.series Registry.noop));
  Alcotest.(check int) "counter reads zero" 0 (Registry.counter Registry.noop "c" [])

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_histogram_bucket_boundaries () =
  let h = Histogram.create () in
  (* Exact powers of two sit on bucket boundaries; each must land in the
     bucket whose upper bound equals the value. *)
  List.iter (Histogram.observe h) [ 0.5; 1.; 2.; 4. ];
  Alcotest.(check (list (pair (float 1e-12) int)))
    "one per boundary bucket"
    [ (0.5, 1); (1., 1); (2., 1); (4., 1) ]
    (Histogram.buckets h);
  (* Just above a boundary moves up one bucket. *)
  let h2 = Histogram.create () in
  Histogram.observe h2 2.0001;
  Alcotest.(check (list (pair (float 1e-12) int)))
    "above boundary" [ (4., 1) ] (Histogram.buckets h2)

let test_histogram_percentiles_exact () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.observe h (float_of_int i)
  done;
  (* Percentiles come from the exact sample store (linear interpolation
     over n-1 intervals), not from bucket edges. *)
  Alcotest.(check (float 1e-9)) "p50" 50.5 (Histogram.percentile h 50.);
  Alcotest.(check (float 1e-9)) "p95" 95.05 (Histogram.percentile h 95.);
  Alcotest.(check (float 1e-9)) "p99" 99.01 (Histogram.percentile h 99.);
  Alcotest.(check (float 1e-9)) "p100" 100. (Histogram.percentile h 100.);
  Alcotest.(check (float 1e-9)) "min" 1. (Histogram.min h);
  Alcotest.(check (float 1e-9)) "max" 100. (Histogram.max h)

let test_histogram_extremes () =
  let h = Histogram.create () in
  Histogram.observe h 0.;
  Histogram.observe h (-5.);
  Histogram.observe h 1e30;
  Alcotest.(check int) "count" 3 (Histogram.count h);
  (* 0 and -5 share the lowest bucket; 1e30 gets its own. *)
  Alcotest.(check int) "two buckets" 2 (List.length (Histogram.buckets h));
  Alcotest.(check (float 0.)) "min tracks negatives" (-5.) (Histogram.min h)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let sample_tracer () =
  let t, now = make_tracer () in
  let root = Tracer.start t ~track:"tm" "txn" in
  Tracer.set_attr t root "scheme" "deferred";
  now := 1.5;
  let q = Tracer.start t ~parent:root ~track:"tm" "query" in
  now := 2.25;
  Tracer.instant t ~track:"server-1" ~attrs:[ ("record", "prepared") ] "wal.force";
  now := 3.;
  Tracer.finish t q;
  now := 4.;
  Tracer.finish t root;
  (* One deliberately open span, and a name needing JSON escaping. *)
  ignore (Tracer.start t ~track:"tm" "odd \"name\"\n");
  t

let test_chrome_export_well_formed () =
  let t = sample_tracer () in
  let rendered = Export.to_chrome t in
  match Json.parse rendered with
  | Error e -> Alcotest.failf "chrome export does not parse: %s" e
  | Ok doc ->
    let events =
      match Json.(member "traceEvents" doc) with
      | Ok (Json.List l) -> l
      | _ -> Alcotest.fail "traceEvents missing"
    in
    (* 4 spans (one open, one instant) + thread_name metadata per track. *)
    let phase e =
      match Json.(member "ph" e) with Ok (Json.String s) -> s | _ -> "?"
    in
    let count p = List.length (List.filter (fun e -> phase e = p) events) in
    Alcotest.(check int) "complete spans" 3 (count "X");
    Alcotest.(check int) "instants" 1 (count "i");
    Alcotest.(check int) "track metadata" 2 (count "M");
    (* Timestamps are microseconds: the query span starts at 1.5ms. *)
    let query_ts =
      List.find_map
        (fun e ->
          match (Json.member "name" e, Json.member "ts" e) with
          | Ok (Json.String "query"), Ok (Json.Int ts) -> Some ts
          | _ -> None)
        events
    in
    Alcotest.(check (option int)) "ts in us" (Some 1500) query_ts

let test_jsonl_export () =
  let t = sample_tracer () in
  let lines =
    Export.to_jsonl t |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per span" 4 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Error e -> Alcotest.failf "jsonl line does not parse: %s (%s)" e line
      | Ok _ -> ())
    lines;
  (* The open span must carry a null end_ms. *)
  let has_null_end =
    List.exists
      (fun line ->
        match Json.parse line with
        | Ok doc -> Json.member "end_ms" doc = Ok Json.Null
        | Error _ -> false)
      lines
  in
  Alcotest.(check bool) "open span end_ms is null" true has_null_end

let test_sim_trace_jsonl () =
  let module Trace = Cloudtx_sim.Trace in
  let entries =
    [
      {
        Trace.time = 1.;
        kind = Send { src = "a"; dst = "b"; label = "m \"x\"" };
      };
      { Trace.time = 1.; kind = Recv { src = "a"; dst = "b"; label = "m" } };
      { Trace.time = 2.; kind = Drop { src = "b"; dst = "a"; label = "n" } };
      { Trace.time = 2.; kind = Mark { node = "a"; label = "sync" } };
    ]
  in
  (* The wire view survives its encoding as tracer instants. *)
  let now = ref 0. in
  let tracer = Tracer.create ~clock:(fun () -> !now) () in
  List.iter
    (fun (e : Trace.entry) ->
      now := e.time;
      Trace.emit tracer e.kind)
    entries;
  Alcotest.(check bool) "tracer round-trip" true
    (Trace.of_tracer tracer = entries);
  let lines =
    Trace.to_jsonl entries
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per entry" 4 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Error e -> Alcotest.failf "trace jsonl does not parse: %s (%s)" e line
      | Ok _ -> ())
    lines

let test_registry_json () =
  let r = Registry.create () in
  Registry.incr r "txn_total" [ ("outcome", "commit") ];
  Registry.set_gauge r "depth" [] 2.;
  Registry.observe r "lat \"ms\"" [ ("s", "a") ] 3.;
  match Json.parse (Registry.to_json r) with
  | Error e -> Alcotest.failf "metrics json does not parse: %s" e
  | Ok (Json.List series) ->
    Alcotest.(check int) "three series" 3 (List.length series)
  | Ok _ -> Alcotest.fail "expected a JSON array"

let test_json_number_rendering () =
  Alcotest.(check string) "integral floats stay short" "42" (Obs_json.number 42.);
  Alcotest.(check string) "nan is null" "null" (Obs_json.number Float.nan);
  Alcotest.(check string) "inf is null" "null" (Obs_json.number Float.infinity);
  Alcotest.(check string) "escaping" "\"a\\\"b\\n\"" (Obs_json.quote "a\"b\n")

let test_prometheus_export () =
  let r = Registry.create () in
  Registry.incr r "txn_total" [ ("outcome", "commit") ];
  Registry.set_gauge r "sim.pending_events" [] 3.;
  Registry.observe r "lat" [ ("s", "a\"b") ] 0.5;
  Registry.observe r "lat" [ ("s", "a\"b") ] 3.;
  let expected =
    String.concat "\n"
      [
        (* Histograms render cumulative buckets, +Inf, _sum and _count;
           label values are escaped, metric names sanitised to the
           Prometheus charset, HELP emitted for the known vocabulary. *)
        "# TYPE lat histogram";
        "lat_bucket{s=\"a\\\"b\",le=\"0.5\"} 1";
        "lat_bucket{s=\"a\\\"b\",le=\"4\"} 2";
        "lat_bucket{s=\"a\\\"b\",le=\"+Inf\"} 2";
        "lat_sum{s=\"a\\\"b\"} 3.5";
        "lat_count{s=\"a\\\"b\"} 2";
        "# HELP sim_pending_events Discrete-event engine queue depth.";
        "# TYPE sim_pending_events gauge";
        "sim_pending_events 3";
        "# HELP txn_total Finished transactions, by outcome, scheme and consistency.";
        "# TYPE txn_total counter";
        "txn_total{outcome=\"commit\"} 1";
        "";
      ]
  in
  Alcotest.(check string) "text exposition format" expected
    (Registry.to_prometheus r)

let test_prometheus_empty_histogram_sum () =
  let r = Registry.create () in
  Registry.set_gauge r "g" [] 0.25;
  Alcotest.(check string) "non-integral gauge" "# TYPE g gauge\ng 0.25\n"
    (Registry.to_prometheus r);
  Alcotest.(check string) "empty registry" "" (Registry.to_prometheus (Registry.create ()))

(* Whatever the backend, the Prometheus rendering must be internally
   consistent: cumulative non-decreasing _bucket series, +Inf == _count,
   and _sum the exact running sum (both backends track it exactly). *)
let test_prometheus_backend_consistency () =
  List.iter
    (fun backend ->
      let what =
        match backend with
        | Histogram.Exact -> "exact"
        | Histogram.Sketch -> "sketch"
      in
      let r = Registry.create ~histogram:backend () in
      let values = List.init 200 (fun i -> 0.25 *. float_of_int (i + 1)) in
      List.iter (Registry.observe r "lat" []) values;
      let lines =
        Registry.to_prometheus r |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "" && l.[0] <> '#')
      in
      let value_of line =
        match String.rindex_opt line ' ' with
        | Some i ->
          String.sub line (i + 1) (String.length line - i - 1)
          |> float_of_string
        | None -> Alcotest.failf "%s: unparsable line %s" what line
      in
      let starts p l = String.length l >= String.length p
                       && String.sub l 0 (String.length p) = p in
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i =
          i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
        in
        go 0
      in
      let buckets = List.filter (starts "lat_bucket") lines in
      Alcotest.(check bool) (what ^ ": has buckets") true (buckets <> []);
      let counts = List.map value_of buckets in
      ignore
        (List.fold_left
           (fun prev c ->
             if c < prev then
               Alcotest.failf "%s: cumulative buckets decreased" what;
             c)
           0. counts);
      let count = value_of (List.find (starts "lat_count") lines) in
      let sum = value_of (List.find (starts "lat_sum") lines) in
      let inf =
        List.find (fun l -> starts "lat_bucket" l && contains l "+Inf") lines
        |> value_of
      in
      Alcotest.(check (float 0.)) (what ^ ": +Inf bucket = count") count inf;
      Alcotest.(check (float 0.))
        (what ^ ": every observation below some finite bucket")
        count
        (List.nth counts (List.length counts - 2));
      Alcotest.(check (float 1e-6)) (what ^ ": sum exact")
        (List.fold_left ( +. ) 0. values)
        sum;
      Alcotest.(check int) (what ^ ": count") (List.length values)
        (int_of_float count))
    [ Histogram.Exact; Histogram.Sketch ]

(* The sketch backend answers the same questions as the exact one, at
   bounded memory. *)
let test_histogram_sketch_backend () =
  let h = Histogram.create ~backend:Histogram.Sketch () in
  let values = List.init 1000 (fun i -> float_of_int (i + 1)) in
  List.iter (Histogram.observe h) values;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  Alcotest.(check (float 1e-6)) "sum exact" 500_500. (Histogram.sum h);
  Alcotest.(check (float 0.)) "max exact" 1000. (Histogram.max h);
  let p50 = Histogram.percentile h 50. in
  Alcotest.(check bool) "p50 within sketch bound" true
    (Float.abs (p50 -. 500.5) <= 500.5 /. 64.);
  Alcotest.(check bool) "samples absent" true (Histogram.samples h = None);
  Alcotest.(check bool) "sketch exposed" true (Histogram.sketch h <> None);
  (* Bounded retention vs the exact backend's linear growth. *)
  let words_at n =
    let h = Histogram.create ~backend:Histogram.Sketch () in
    for i = 1 to n do
      Histogram.observe h (float_of_int (i mod 1000) +. 0.5)
    done;
    Histogram.retained_words h
  in
  Alcotest.(check int) "retention flat from 10k to 50k" (words_at 10_000)
    (words_at 50_000);
  let exact = Histogram.create () in
  List.iter (Histogram.observe exact) values;
  Alcotest.(check bool) "exact backend retains every sample" true
    (Histogram.retained_words exact > 1000)

(* ------------------------------------------------------------------ *)
(* Wiring: simulator clock feeds spans                                 *)
(* ------------------------------------------------------------------ *)

let test_transport_tracing () =
  let transport =
    Cloudtx_sim.Transport.create
      ~latency:(Cloudtx_sim.Latency.Constant 2.) ~label_of:(fun l -> l) ()
  in
  Alcotest.(check bool) "off by default" false
    (Tracer.enabled (Cloudtx_sim.Transport.tracer transport));
  let tracer = Cloudtx_sim.Transport.enable_tracing transport in
  let tracer' = Cloudtx_sim.Transport.enable_tracing transport in
  Alcotest.(check bool) "enable is idempotent" true (tracer == tracer');
  Cloudtx_sim.Transport.register transport "b" (fun ~src:_ _ -> ());
  Cloudtx_sim.Transport.send transport ~src:"a" ~dst:"b" "hello";
  ignore (Cloudtx_sim.Transport.run transport);
  let names = List.map (fun s -> (s.Tracer.name, s.Tracer.start)) (Tracer.spans tracer) in
  Alcotest.(check bool) "send instant at t=0" true (List.mem ("send", 0.) names);
  Alcotest.(check bool) "recv instant at sim time 2" true (List.mem ("recv", 2.) names)

(* ------------------------------------------------------------------ *)
(* Wiring: staleness gauges and wait-die span links                    *)
(* ------------------------------------------------------------------ *)

module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Transport = Cloudtx_sim.Transport
module Latency = Cloudtx_sim.Latency
module Query = Cloudtx_txn.Query
module Transaction = Cloudtx_txn.Transaction
module Value = Cloudtx_store.Value

let test_policy_staleness_gauges () =
  (* One publication, propagated to s1 immediately and never to s2: the
     master-version gauge records the new version, the per-server
     staleness gauge resets to 0 where the propagation lands and keeps
     the lag where it does not. *)
  let cluster =
    Cluster.create
      ~servers:
        [
          Cluster.server_spec ~name:"s1" ~items:[ ("k", Value.Int 0) ] ();
          Cluster.server_spec ~name:"s2" ~items:[ ("j", Value.Int 0) ] ();
        ]
      ~domains:[ ("d", []) ] ()
  in
  let reg = Transport.enable_metrics (Cluster.transport cluster) in
  ignore
    (Cluster.publish cluster ~domain:"d"
       ~delay:(`Fixed (fun name -> if name = "s1" then 0. else Float.infinity))
       []);
  ignore (Cluster.run cluster);
  Alcotest.(check (option (float 0.)))
    "master version" (Some 2.)
    (Registry.gauge reg "policy_master_version" [ ("domain", "d") ]);
  Alcotest.(check (option (float 0.)))
    "updated replica is current" (Some 0.)
    (Registry.gauge reg "policy_staleness" [ ("server", "s1"); ("domain", "d") ]);
  Alcotest.(check (option (float 0.)))
    "unreached replica trails by one" (Some 1.)
    (Registry.gauge reg "policy_staleness" [ ("server", "s2"); ("domain", "d") ])

let test_wait_die_kill_links_spans () =
  (* Three transactions contend on key [k]: [y] (youngest) grabs it while
     the two older ones are busy on server-2, so both park behind it.
     When [y] releases, the oldest waiter is promoted and the other —
     younger than the new holder — is killed by wait-die.  Its
     [lock.wait] span must close with outcome "die" and a [killed_by]
     attribute linking it to the releasing transaction's [txn] span. *)
  let cluster =
    Cluster.create
      ~latency:(Latency.Constant 1.)
      ~servers:
        [
          Cluster.server_spec ~name:"server-1" ~items:[ ("k", Value.Int 0) ] ();
          Cluster.server_spec ~name:"server-2"
            ~items:[ ("j1", Value.Int 0); ("j2", Value.Int 0) ]
            ();
        ]
      ~domains:[ ("d", []) ] ()
  in
  let transport = Cluster.transport cluster in
  let tracer = Transport.enable_tracing transport in
  let config =
    Manager.config Cloudtx_protocol.Scheme.Deferred
      Cloudtx_protocol.Consistency.View
  in
  let two_step id warmup =
    Transaction.make ~id ~subject:"s"
      [
        Query.make ~id:(id ^ "-q1") ~server:"server-2"
          ~writes:[ (warmup, Value.Set (Value.Int 1)) ]
          ();
        Query.make ~id:(id ^ "-q2") ~server:"server-1"
          ~writes:[ ("k", Value.Set (Value.Int 2)) ]
          ();
      ]
  in
  let direct id =
    Transaction.make ~id ~subject:"s"
      [
        Query.make ~id:(id ^ "-q1") ~server:"server-1"
          ~writes:[ ("k", Value.Set (Value.Int 3)) ]
          ();
      ]
  in
  let submit delay txn =
    Transport.at transport ~delay (fun () ->
        Manager.submit cluster config txn ~on_done:(fun _ -> ()))
  in
  submit 0. (two_step "o1" "j1");
  submit 0.3 (two_step "o2" "j2");
  submit 0.9 (direct "y");
  ignore (Cluster.run cluster);
  let spans = Tracer.spans tracer in
  let killed =
    List.filter
      (fun s ->
        s.Tracer.name = "lock.wait"
        && List.assoc_opt "outcome" s.Tracer.attrs = Some "die")
      spans
  in
  Alcotest.(check bool) "a parked waiter was killed" true (killed <> []);
  List.iter
    (fun s ->
      match List.assoc_opt "killed_by" s.Tracer.attrs with
      | None -> Alcotest.fail "killed lock.wait span lacks killed_by"
      | Some killer ->
        Alcotest.(check string) "killed by the releasing transaction" "y" killer;
        Alcotest.(check bool) "killer has a txn span" true
          (List.exists
             (fun t ->
               t.Tracer.name = "txn"
               && List.assoc_opt "txn" t.Tracer.attrs = Some killer)
             spans))
    killed;
  (* The Chrome export draws the same link as a flow-event pair. *)
  match Json.parse (Export.to_chrome tracer) with
  | Error e -> Alcotest.failf "chrome export does not parse: %s" e
  | Ok doc ->
    let events =
      match Json.(member "traceEvents" doc) with
      | Ok (Json.List l) -> l
      | _ -> Alcotest.fail "traceEvents missing"
    in
    let flows ph =
      List.filter_map
        (fun e ->
          match (Json.member "name" e, Json.member "ph" e, Json.member "id" e)
          with
          | Ok (Json.String "killed_by"), Ok (Json.String p), Ok id when p = ph
            ->
            Some id
          | _ -> None)
        events
    in
    let starts = flows "s" and finishes = flows "f" in
    Alcotest.(check int)
      "one flow start per kill" (List.length killed) (List.length starts);
    Alcotest.(check bool) "flow ids pair up" true
      (List.sort compare starts = List.sort compare finishes)

(* ------------------------------------------------------------------ *)
(* Journal buffer cap                                                  *)
(* ------------------------------------------------------------------ *)

module Journal = Cloudtx_obs.Journal

let test_journal_buffer_cap () =
  let journal = Journal.create ~clock:(fun () -> 0.) ~max_buffer_bytes:512 () in
  let observed = ref 0 and last_seq = ref 0 and drop_calls = ref 0 in
  Journal.add_observer journal (fun ~seq ~time_ms:_ ~node:_ ~dir:_ ~payload:_ ->
      incr observed;
      last_seq := seq);
  Journal.set_on_drop journal (fun n -> drop_calls := !drop_calls + n);
  for i = 1 to 100 do
    Journal.record journal ~node:"n" ~dir:"input"
      ~payload:(Printf.sprintf {|{"i":%d}|} i)
  done;
  Alcotest.(check int) "every record was appended" 100 (Journal.length journal);
  Alcotest.(check bool) "the cap evicted records" true (Journal.dropped journal > 0);
  Alcotest.(check int) "on_drop accounts for every eviction"
    (Journal.dropped journal) !drop_calls;
  (* Eviction never touches the observer stream... *)
  Alcotest.(check int) "observer saw every record" 100 !observed;
  Alcotest.(check int) "in order" 100 !last_seq;
  (* ...only the in-memory buffer: the oldest records are gone, the
     newest and the header survive, and the seq gap is visible. *)
  let dump = Journal.to_string journal in
  let lines =
    String.split_on_char '\n' dump |> List.filter (fun l -> l <> "")
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "header survives" true
    (contains (List.hd lines) {|"journal":"cloudtx"|});
  Alcotest.(check bool) "oldest record evicted" false (contains dump {|"seq":1,|});
  Alcotest.(check bool) "newest record kept" true (contains dump {|"seq":100,|});
  Alcotest.(check int) "buffer holds what the cap allows"
    (100 - Journal.dropped journal)
    (List.length lines - 1)

let test_journal_cap_never_affects_file () =
  let path = Filename.temp_file "cloudtx_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let journal =
        Journal.create ~clock:(fun () -> 0.) ~max_buffer_bytes:256 ~path ()
      in
      for i = 1 to 50 do
        Journal.record journal ~node:"n" ~dir:"input"
          ~payload:(Printf.sprintf {|{"i":%d}|} i)
      done;
      Journal.close journal;
      Alcotest.(check bool) "records were evicted in memory" true
        (Journal.dropped journal > 0);
      let ic = open_in path in
      let n = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr n
         done
       with End_of_file -> close_in ic);
      Alcotest.(check int) "write-through file keeps every line" 51 !n)

let test_binary_cap_charges_encoded_bytes () =
  (* The byte cap charges the actual encoded frame bytes, so eviction
     must leave exactly the maximal suffix of frames whose encoded
     sizes fit the cap. *)
  let cap = 600 in
  let journal =
    Journal.create ~clock:(fun () -> 0.) ~format:Journal.Binary
      ~max_buffer_bytes:cap ()
  in
  let payload i = String.make ((i mod 17) + 3) 'x' in
  for i = 1 to 100 do
    Journal.record journal ~node:"n" ~dir:"input" ~payload:(payload i)
  done;
  Alcotest.(check bool) "the cap evicted frames" true (Journal.dropped journal > 0);
  (* Re-encode every record standalone to learn its exact frame size,
     then compute the expected survivor suffix. *)
  let size i =
    let buf = Buffer.create 64 in
    Journal.encode_frame buf ~seq:i ~time_ms:0. ~node:"n" ~dir:"input"
      ~emit:(fun w -> Cloudtx_obs.Wbuf.str w (payload i));
    Buffer.length buf
  in
  let expected_dropped = ref 0 and total = ref 0 in
  for i = 100 downto 1 do
    total := !total + size i;
    if !total > cap && !expected_dropped = 0 then expected_dropped := i
  done;
  Alcotest.(check int) "dropped is exact for encoded bytes" !expected_dropped
    (Journal.dropped journal);
  let dump = Journal.to_string journal in
  (match Journal.decode_binary dump with
  | Error why -> Alcotest.failf "buffered journal undecodable: %s" why
  | Ok d ->
    Alcotest.(check int) "survivors are the contiguous tail"
      (!expected_dropped + 1)
      (List.hd d.Journal.frames).Journal.seq;
    let buffered =
      String.length dump
      - String.length (Journal.binary_header ~version:Journal.format_version)
    in
    Alcotest.(check bool) "buffered frame bytes fit the cap" true
      (buffered <= cap))

let test_record_frame_needs_binary () =
  (* record_frame is the binary fast path; a JSONL journal must reject
     raw frame bytes loudly rather than journal garbage. *)
  let journal = Journal.create ~clock:(fun () -> 0.) () in
  Alcotest.check_raises "JSONL journal rejects record_frame"
    (Invalid_argument "Journal.record_frame: JSONL journal") (fun () ->
      Journal.record_frame journal ~node:"n" ~dir:"input" ~emit:(fun _ -> ()));
  (* Disabled journal: no dispatch, no emit. *)
  Journal.record_frame Journal.noop ~node:"n" ~dir:"input" ~emit:(fun _ ->
      Alcotest.fail "emit ran on a disabled journal")

let test_journal_dropped_counter_wired () =
  (* Through the transport: evictions land on the registry's
     journal.dropped counter. *)
  let cluster =
    Cluster.create
      ~servers:[ Cluster.server_spec ~name:"s1" ~items:[ ("k", Value.Int 0) ] () ]
      ~domains:[ ("d", []) ] ()
  in
  let transport = Cluster.transport cluster in
  let reg = Transport.enable_metrics transport in
  let journal = Transport.enable_journal ~max_buffer_bytes:512 transport in
  let config =
    Manager.config Cloudtx_protocol.Scheme.Deferred
      Cloudtx_protocol.Consistency.View
  in
  let txn =
    Transaction.make ~id:"t1" ~subject:"s"
      [
        Query.make ~id:"q1" ~server:"s1"
          ~writes:[ ("k", Value.Set (Value.Int 1)) ]
          ();
      ]
  in
  ignore (Manager.run_one cluster config txn);
  Alcotest.(check bool) "the run overflowed the cap" true
    (Journal.dropped journal > 0);
  Alcotest.(check int) "journal.dropped counter tracks evictions"
    (Journal.dropped journal)
    (Registry.counter_total reg "journal.dropped")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "tracer",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span ordering" `Quick test_span_ordering;
          Alcotest.test_case "finish idempotent" `Quick test_finish_idempotent;
          Alcotest.test_case "instants and open spans" `Quick test_instant_and_open;
          Alcotest.test_case "disabled fast path" `Quick test_disabled_tracer;
        ] );
      ( "registry",
        [
          Alcotest.test_case "label canonicalization" `Quick
            test_label_canonicalization;
          Alcotest.test_case "cells" `Quick test_registry_cells;
          Alcotest.test_case "series sorted" `Quick test_registry_series_sorted;
          Alcotest.test_case "disabled fast path" `Quick test_disabled_registry;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick
            test_histogram_bucket_boundaries;
          Alcotest.test_case "exact percentiles" `Quick
            test_histogram_percentiles_exact;
          Alcotest.test_case "extremes" `Quick test_histogram_extremes;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome well-formed" `Quick
            test_chrome_export_well_formed;
          Alcotest.test_case "jsonl" `Quick test_jsonl_export;
          Alcotest.test_case "sim trace jsonl" `Quick test_sim_trace_jsonl;
          Alcotest.test_case "registry json" `Quick test_registry_json;
          Alcotest.test_case "number rendering" `Quick test_json_number_rendering;
          Alcotest.test_case "prometheus text format" `Quick
            test_prometheus_export;
          Alcotest.test_case "prometheus corner cases" `Quick
            test_prometheus_empty_histogram_sum;
          Alcotest.test_case "prometheus backend consistency" `Quick
            test_prometheus_backend_consistency;
          Alcotest.test_case "sketch histogram backend" `Quick
            test_histogram_sketch_backend;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "transport tracing" `Quick test_transport_tracing;
          Alcotest.test_case "policy staleness gauges" `Quick
            test_policy_staleness_gauges;
          Alcotest.test_case "wait-die kill links spans" `Quick
            test_wait_die_kill_links_spans;
        ] );
      ( "journal",
        [
          Alcotest.test_case "buffer cap drops oldest" `Quick
            test_journal_buffer_cap;
          Alcotest.test_case "cap never affects the file" `Quick
            test_journal_cap_never_affects_file;
          Alcotest.test_case "binary cap charges encoded bytes" `Quick
            test_binary_cap_charges_encoded_bytes;
          Alcotest.test_case "record_frame needs a binary journal" `Quick
            test_record_frame_needs_binary;
          Alcotest.test_case "dropped counter wired" `Quick
            test_journal_dropped_counter_wired;
        ] );
    ]
