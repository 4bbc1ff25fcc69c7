(* Unit tests for cloudtx_obs: span tracing, the metrics registry, its
   sketch histograms and the Chrome/JSONL exporters.  Exported JSON is
   validated with the policy wire codec's parser, which is a full JSON
   reader. *)

module Tracer = Cloudtx_obs.Tracer
module Registry = Cloudtx_obs.Registry
module Sketch = Cloudtx_obs.Sketch
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
    Alcotest.(check int) "count" 2 (Sketch.count h);
    Alcotest.(check (float 1e-9)) "mean" 20. (Sketch.mean h);
    Alcotest.(check (float 0.)) "exact running sum" 40. (Sketch.sum h));
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

(* A resolved cell is the series itself: writes through it and through
   [incr]/[set_gauge] land in the same place and export the same way. *)
let test_registry_resolved_cells () =
  let by_name = Registry.create () and by_cell = Registry.create () in
  let labels = [ ("type", "commit-request") ] in
  Registry.incr by_name "messages_total" labels;
  Registry.incr by_name "messages_total" labels;
  Registry.set_gauge by_name "sim.pending_events" [] 3.;
  let sent = Registry.counter_cell by_cell "messages_total" labels in
  Registry.incr_cell sent;
  Registry.incr by_cell "messages_total" labels;
  Registry.set_cell (Registry.gauge_cell by_cell "sim.pending_events" []) 3.;
  Alcotest.(check string) "same Prometheus exposition"
    (Registry.to_prometheus by_name) (Registry.to_prometheus by_cell);
  Alcotest.(check string) "same JSON snapshot" (Registry.to_json by_name)
    (Registry.to_json by_cell);
  Alcotest.check_raises "a gauge is not a counter"
    (Invalid_argument
       "Registry: sim.pending_events is a gauge, not a counter") (fun () ->
      ignore (Registry.counter_cell by_cell "sim.pending_events" []));
  Registry.incr_cell (Registry.counter_cell Registry.noop "c" []);
  Alcotest.(check int) "noop keeps no series" 0
    (List.length (Registry.series Registry.noop))

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_histogram_extremes () =
  let h = Sketch.create () in
  Sketch.observe h 0.;
  Sketch.observe h (-5.);
  Sketch.observe h 1e30;
  Alcotest.(check int) "count" 3 (Sketch.count h);
  (* 0 and -5 share the zero bin; 1e30 clamps to the top bin. *)
  Alcotest.(check int) "two bins" 2 (List.length (Sketch.bins h));
  Alcotest.(check (float 0.)) "min tracks negatives" (-5.) (Sketch.min h)

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
        "lat_bucket{s=\"a\\\"b\",le=\"0.515625\"} 1";
        "lat_bucket{s=\"a\\\"b\",le=\"3.0625\"} 2";
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

(* The Prometheus rendering of a histogram must be internally
   consistent: cumulative non-decreasing _bucket series, +Inf == _count,
   and _sum the exact running sum (the sketch tracks it beside its
   bins). *)
let test_prometheus_backend_consistency () =
  let r = Registry.create () in
  let values = List.init 200 (fun i -> 0.25 *. float_of_int (i + 1)) in
  List.iter (Registry.observe r "lat" []) values;
  let lines =
    Registry.to_prometheus r |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let value_of line =
    match String.rindex_opt line ' ' with
    | Some i ->
      String.sub line (i + 1) (String.length line - i - 1) |> float_of_string
    | None -> Alcotest.failf "unparsable line %s" line
  in
  let starts prefix = String.starts_with ~prefix in
  let buckets = List.filter (starts "lat_bucket") lines in
  Alcotest.(check bool) "has buckets" true (buckets <> []);
  let counts = List.map value_of buckets in
  ignore
    (List.fold_left
       (fun prev c ->
         if c < prev then Alcotest.fail "cumulative buckets decreased";
         c)
       0. counts);
  let count = value_of (List.find (starts "lat_count") lines) in
  let sum = value_of (List.find (starts "lat_sum") lines) in
  let inf = value_of (List.find (starts {|lat_bucket{le="+Inf"}|}) lines) in
  Alcotest.(check (float 0.)) "+Inf bucket = count" count inf;
  Alcotest.(check (float 0.)) "every observation below some finite bucket"
    count
    (List.nth counts (List.length counts - 2));
  Alcotest.(check (float 1e-6)) "sum exact" (List.fold_left ( +. ) 0. values) sum;
  Alcotest.(check int) "count" (List.length values) (int_of_float count)

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
      Journal.record_frame journal ~node:"n" ~dir:"input"
        ~emit:(fun _ () -> ()) ());
  (* Disabled journal: no dispatch, no emit. *)
  Journal.record_frame Journal.noop ~node:"n" ~dir:"input"
    ~emit:(fun _ () -> Alcotest.fail "emit ran on a disabled journal")
    ()

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
(* Chunked buffer = the string-queue buffer it replaced                *)
(* ------------------------------------------------------------------ *)

(* The reference: the buffer journals kept before the chunked one — one
   string per encoded entry in a queue, the cap charged in encoded bytes
   (a JSONL line pays for its newline), evicting oldest first after each
   push. *)
module Queue_buffer = struct
  type t = {
    format : Journal.format;
    cap : int;
    entries : string Queue.t;
    mutable bytes : int;
    mutable dropped : int;
    mutable drops : int list;  (** on_drop calls, most recent first *)
    file : Buffer.t;  (** what the write-through file receives *)
  }

  let header = function
    | Journal.Jsonl -> Journal.header ^ "\n"
    | Journal.Binary -> Journal.binary_header ~version:Journal.format_version

  let create format cap =
    let file = Buffer.create 256 in
    Buffer.add_string file (header format);
    {
      format;
      cap = max 0 cap;
      entries = Queue.create ();
      bytes = 0;
      dropped = 0;
      drops = [];
      file;
    }

  let cost t entry =
    String.length entry + (match t.format with Journal.Jsonl -> 1 | Binary -> 0)

  let record t ~seq ~time_ms ~node ~dir ~payload =
    let entry =
      match t.format with
      | Journal.Jsonl -> Journal.render_jsonl ~seq ~time_ms ~node ~dir ~payload
      | Journal.Binary ->
        let buf = Buffer.create 64 in
        Journal.encode_frame buf ~seq ~time_ms ~node ~dir ~emit:(fun w ->
            Cloudtx_obs.Wbuf.str w payload);
        Buffer.contents buf
    in
    Queue.push entry t.entries;
    t.bytes <- t.bytes + cost t entry;
    let n = ref 0 in
    while t.bytes > t.cap && not (Queue.is_empty t.entries) do
      t.bytes <- t.bytes - cost t (Queue.pop t.entries);
      incr n
    done;
    if !n > 0 then begin
      t.dropped <- t.dropped + !n;
      t.drops <- !n :: t.drops
    end;
    Buffer.add_string t.file entry;
    if t.format = Journal.Jsonl then Buffer.add_char t.file '\n'

  let to_string t =
    let buf = Buffer.create (t.bytes + 16) in
    Buffer.add_string buf (header t.format);
    Queue.iter
      (fun e ->
        Buffer.add_string buf e;
        if t.format = Journal.Jsonl then Buffer.add_char buf '\n')
      t.entries;
    Buffer.contents buf
end

let chunk = 65536

(* Payload sizes from empty to over two chunks; JSONL payloads hold no
   newline, as rendered JSON never does. *)
let gen_payload =
  let open QCheck.Gen in
  let* n =
    frequency
      [
        (12, int_bound 300);
        (3, int_range 300 5_000);
        (2, int_range (chunk - 200) (chunk + 200));
        (1, int_range (2 * chunk) ((2 * chunk) + 10_000));
      ]
  in
  let* c = char_range 'a' 'z' in
  return (String.make n c)

(* How each record enters the journal: through [record] or (binary
   only) [record_frame] — both must store the same entry. *)
type via = Record | Frame

let gen_case =
  let open QCheck.Gen in
  let* format = oneofl [ Journal.Jsonl; Journal.Binary ] in
  let* cap =
    oneof
      [
        return 0;
        int_range 1 40 (* below one record *);
        int_range (chunk - 1_000) (chunk + 1_000);
        int_range 1_000 (3 * chunk);
        return max_int;
      ]
  in
  let* records =
    list_size (int_range 1 40)
      (triple
         (oneofl [ "n"; "tm-t1"; "server-12" ])
         (oneofl [ "create"; "input"; "action"; "event"; "other" ])
         (pair gen_payload (oneofl [ Record; Frame ])))
  in
  return (format, cap, records)

let print_case (format, cap, records) =
  Printf.sprintf "%s cap=%d records=[%s]" (Journal.format_name format) cap
    (String.concat "; "
       (List.map
          (fun (node, dir, (p, _)) ->
            Printf.sprintf "%s/%s/%dB" node dir (String.length p))
          records))

let prop_chunked_buffer_matches_queue (format, cap, records) =
  let path = Filename.temp_file "cloudtx_chunked" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let now = ref 0. in
      let j =
        Journal.create
          ~clock:(fun () -> !now)
          ~format ~max_buffer_bytes:cap ~path ()
      in
      let drops = ref [] in
      Journal.set_on_drop j (fun n -> drops := n :: !drops);
      let r = Queue_buffer.create format cap in
      List.iteri
        (fun i (node, dir, (payload, via)) ->
          now := float_of_int i *. 0.25;
          Queue_buffer.record r ~seq:(i + 1) ~time_ms:!now ~node ~dir ~payload;
          match (via, format) with
          | Frame, Journal.Binary ->
            Journal.record_frame j ~node ~dir ~emit:Cloudtx_obs.Wbuf.str
              payload
          | (Record | Frame), _ -> Journal.record j ~node ~dir ~payload)
        records;
      Journal.close j;
      let file = In_channel.with_open_bin path In_channel.input_all in
      String.equal (Journal.to_string j) (Queue_buffer.to_string r)
      && Journal.length j = List.length records
      && Journal.dropped j = r.Queue_buffer.dropped
      && !drops = r.Queue_buffer.drops
      && String.equal file (Buffer.contents r.Queue_buffer.file))

let test_chunked_buffer_matches_queue =
  QCheck.Test.make ~name:"chunked buffer = string-queue buffer" ~count:150
    (QCheck.make ~print:print_case gen_case)
    prop_chunked_buffer_matches_queue

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
          Alcotest.test_case "resolved cells" `Quick test_registry_resolved_cells;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "extremes" `Quick test_histogram_extremes;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome well-formed" `Quick
            test_chrome_export_well_formed;
          Alcotest.test_case "sim trace jsonl" `Quick test_sim_trace_jsonl;
          Alcotest.test_case "registry json" `Quick test_registry_json;
          Alcotest.test_case "number rendering" `Quick test_json_number_rendering;
          Alcotest.test_case "prometheus text format" `Quick
            test_prometheus_export;
          Alcotest.test_case "prometheus corner cases" `Quick
            test_prometheus_empty_histogram_sum;
          Alcotest.test_case "prometheus backend consistency" `Quick
            test_prometheus_backend_consistency;
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
          QCheck_alcotest.to_alcotest test_chunked_buffer_matches_queue;
        ] );
    ]
