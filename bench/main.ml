(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation, plus the simulation study its conclusion announces.

     dune exec bench/main.exe            -- all paper sections + micro benches
     dune exec bench/main.exe -- table1  -- a single section
     dune exec bench/main.exe -- micro   -- Bechamel micro-benchmarks only

   Sections:
     table1   Table I    worst-case messages and proofs per scheme
     figure1  Figure 1   Bob's anomalous interaction
     figure2  Figure 2   component interaction (message sequence)
     figures  Figures 3-6 proof-evaluation timelines per scheme
     figure7  Figure 7   basic 2PC sequence and log complexity
     tradeoff Section VI-B  txn length vs policy-update interval
     logging  Section V/VI-A  forced-log counts, 2PC variants vs 2PVC
     ablations design knobs beyond the paper (read-only opt, master modes,
              OCSP pricing, gossip, master placement, MVCC snapshot reads,
              contention + wait-die aging)
     micro    Bechamel wall-clock micro-benchmarks *)

module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Complexity = Cloudtx_core.Complexity
module Outcome = Cloudtx_protocol.Outcome
module Message = Cloudtx_protocol.Message
module Participant = Cloudtx_core.Participant
module Table = Cloudtx_metrics.Table
module Timeline = Cloudtx_metrics.Timeline
module Sample_set = Cloudtx_metrics.Sample_set
module Running_stats = Cloudtx_metrics.Running_stats
module Transport = Cloudtx_sim.Transport
module Trace = Cloudtx_sim.Trace
module Latency = Cloudtx_sim.Latency
module Splitmix = Cloudtx_sim.Splitmix
module Scenario = Cloudtx_workload.Scenario
module Generator = Cloudtx_workload.Generator
module Churn = Cloudtx_workload.Churn
module Experiment = Cloudtx_workload.Experiment
module Tpc = Cloudtx_txn.Tpc
module Tpc_run = Cloudtx_txn.Tpc_run
module Server = Cloudtx_store.Server
module Wal = Cloudtx_store.Wal
module Tracer = Cloudtx_obs.Tracer
module Registry = Cloudtx_obs.Registry
module Obs_export = Cloudtx_obs.Export
module Obs_json = Cloudtx_obs.Json
module Journal = Cloudtx_obs.Journal
module Wbuf = Cloudtx_obs.Wbuf
module Journal_io = Cloudtx_core.Journal_io
module Codec_bin = Cloudtx_protocol.Codec_bin
module Pcodec = Cloudtx_protocol.Codec
module Campaign = Cloudtx_chaos.Campaign
module Certify = Cloudtx_core.Certify
module Blame = Cloudtx_core.Blame
module Critical_path = Cloudtx_obs.Critical_path
module Sketch = Cloudtx_obs.Sketch

(* Optional artifact destinations, set by command-line flags (parsed at
   the bottom of this file). *)
let obs_trace_out = ref None
let obs_metrics_json = ref None
let obs_journal_out = ref None

(* --json FILE: machine-readable per-cell results for the section(s) that
   support it (table1, tradeoff), so the perf trajectory is tracked across
   changes; CI uploads them as artifacts. *)
let json_out = ref None

(* --check BASELINE: regression gate.  After the section(s) run, the
   produced cells are compared field-by-field against the committed
   baseline JSON (BENCH_table1.json / BENCH_tradeoff.json) — latency
   fields excepted, since those are the trajectory being tracked, while
   counts (messages, proofs, commit ratios) are deterministic under the
   fixed seeds and must not drift silently.  Cells carrying analytic
   bounds are additionally checked against them (measured <= closed
   form). *)
let check_baseline = ref None
let produced_cells : string list ref = ref []

let write_json_file ~what objs =
  if !check_baseline <> None then produced_cells := !produced_cells @ objs;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc "[\n  ";
      output_string oc (String.concat ",\n  " objs);
      output_string oc "\n]\n";
      close_out oc;
      Printf.printf "  wrote %s (%s, %d cells)\n" path what (List.length objs))
    !json_out

(* Latency is machine-independent here (simulated ms) but remains the
   tracked trajectory, not a gate. *)
let check_skip_fields =
  [
    "latency_ms"; "latency_ms_mean"; "latency_ms_p95"; "journals_per_sec";
    "edges_per_sec"; "jsonl_records_per_sec"; "bin_records_per_sec";
    "jsonl_mb_per_sec"; "bin_mb_per_sec"; "encode_speedup"; "decode_speedup";
    "jsonl_decode_records_per_sec"; "bin_decode_records_per_sec"; "wall_s";
    "sketch_ns_per_observe"; "exact_ns_per_observe"; "delay_ns_per_call";
  ]

module Pjson = Cloudtx_policy.Json

let cell_id fields i =
  let get k =
    match List.assoc_opt k fields with
    | Some (Pjson.String s) -> Some s
    | _ -> None
  in
  match (get "workload", get "scheme", get "level") with
  | None, Some s, Some l -> Printf.sprintf "cell %d (%s/%s)" i s l
  | Some w, Some s, Some l -> Printf.sprintf "cell %d (%s: %s/%s)" i w s l
  | _ -> Printf.sprintf "cell %d" i

let run_check path =
  let fail = ref 0 in
  let failf fmt =
    incr fail;
    Printf.ksprintf (fun m -> Printf.printf "  CHECK FAILED: %s\n" m) fmt
  in
  let produced =
    List.filter_map
      (fun s ->
        match Pjson.parse s with
        | Ok (Pjson.Obj fields) -> Some fields
        | Ok _ | Error _ ->
          failf "a produced cell is not a JSON object";
          None)
      !produced_cells
  in
  (* Closed forms: measured must sit at or below the analytic bound,
     baseline or not. *)
  List.iteri
    (fun i p ->
      let name = cell_id p (i + 1) in
      let int_field k =
        match List.assoc_opt k p with Some (Pjson.Int n) -> Some n | _ -> None
      in
      let num_field k =
        match List.assoc_opt k p with
        | Some (Pjson.Int n) -> Some (float_of_int n)
        | Some (Pjson.Float f) -> Some f
        | _ -> None
      in
      (match (int_field "measured_messages", int_field "analytic_messages") with
      | Some m, Some a when m > a ->
        failf "%s: measured messages %d exceed the closed form %d" name m a
      | _ -> ());
      (* Journal encoding: the measured binary/JSONL speedup is a
         trajectory field, but it must never fall below the committed
         floor. *)
      (match (num_field "encode_speedup", num_field "min_encode_speedup") with
      | Some s, Some m when s < m ->
        failf "%s: binary encode speedup %.1fx below the required %.0fx" name s m
      | _ -> ());
      match (int_field "measured_proofs", int_field "analytic_proofs") with
      | Some m, Some a when m > a ->
        failf "%s: measured proofs %d exceed the closed form %d" name m a
      | _ -> ())
    produced;
  let contents =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (match Pjson.parse contents with
  | Error m -> failf "%s: unparseable baseline: %s" path m
  | Ok (Pjson.List baseline) ->
    if List.length baseline <> List.length produced then
      failf "%s has %d cell(s), this run produced %d" path
        (List.length baseline) (List.length produced)
    else
      List.iteri
        (fun i (b, p) ->
          let name = cell_id p (i + 1) in
          match b with
          | Pjson.Obj bf ->
            List.iter
              (fun (k, bv) ->
                if not (List.mem k check_skip_fields) then
                  match List.assoc_opt k p with
                  | None -> failf "%s: field %s missing from this run" name k
                  | Some pv ->
                    if not (String.equal (Pjson.to_string bv) (Pjson.to_string pv))
                    then
                      failf "%s: %s diverged -- baseline %s, this run %s" name k
                        (Pjson.to_string bv) (Pjson.to_string pv))
              bf
          | _ -> failf "%s: baseline cell is not an object" name)
        (List.combine baseline produced)
  | Ok _ -> failf "%s: baseline is not a JSON array" path);
  if !fail = 0 then
    Printf.printf "  check: %d cell(s) match %s (latency fields excepted)\n"
      (List.length produced) path
  else begin
    Printf.printf "  check: %d failure(s) against %s\n" !fail path;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

module Table1 = Cloudtx_workload.Table1

let section_table1 () =
  let n = 4 and u = 4 in
  let rows = Table1.matrix_rows ~n ~u in
  Table.print
    ~title:
      (Printf.sprintf
         "Table I -- worst-case complexity, measured on the simulator (n=%d, u=%d)"
         n u)
    ~headers:
      [
        "scheme"; "level"; "staleness"; "msgs formula"; "analytic"; "measured";
        "proofs formula"; "analytic"; "measured";
      ]
    rows;
  print_endline
    "  note: under view consistency the paper's 2n+2nr message bound assumes all n";
  print_endline
    "  participants are re-polled in round 2; the participant that already holds";
  print_endline
    "  the freshest policy is not, so the measured value is the bound minus 2.";
  print_endline
    "  Master-version *requests* are not counted (the paper counts r retrievals);";
  print_endline "  every other protocol message is.";
  write_json_file ~what:"Table I"
    (List.concat_map
       (fun scheme ->
         List.map
           (fun level ->
             let staleness = Table1.worst_for scheme level in
             let m = Table1.run_case ~n_servers:n ~queries:u scheme level staleness in
             let o = m.Table1.outcome in
             let r = max 1 o.Outcome.commit_rounds in
             Obs_json.obj
               [
                 ("scheme", Obs_json.quote (Scheme.name scheme));
                 ("level", Obs_json.quote (Consistency.name level));
                 ("staleness", Obs_json.quote (Table1.staleness_name staleness));
                 ("n", string_of_int n);
                 ("u", string_of_int u);
                 ("r", string_of_int r);
                 ( "analytic_messages",
                   string_of_int (Complexity.messages scheme level ~n ~u ~r) );
                 ("measured_messages", string_of_int m.Table1.messages);
                 ( "analytic_proofs",
                   string_of_int (Complexity.proofs scheme level ~n ~u ~r) );
                 ("measured_proofs", string_of_int m.Table1.proofs);
                 ("committed", if o.Outcome.committed then "true" else "false");
                 ( "latency_ms",
                   Obs_json.number (o.Outcome.finished_at -. o.Outcome.submitted_at)
                 );
               ])
           [ Consistency.View; Consistency.Global ])
       Scheme.all)

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let section_figure1 () =
  print_newline ();
  print_endline "== Figure 1 -- Bob's anomalous interaction ==";
  print_endline
    "  (full narrative: dune exec examples/bob_scenario.exe; summarized here)";
  (* Summary matrix: stale capability access per scheme x level. *)
  let module Rule = Cloudtx_policy.Rule in
  let module Ca = Cloudtx_policy.Ca in
  let module Credential = Cloudtx_policy.Credential in
  let module Query = Cloudtx_txn.Query in
  let module Transaction = Cloudtx_txn.Transaction in
  let run_once scheme level =
    let ca = Ca.create "compume-ca" in
    let req_atoms =
      [ Rule.atom "req_action" [ Rule.v "a" ]; Rule.atom "req_item" [ Rule.v "i" ] ]
    in
    let policy_p =
      [
        Rule.rule
          (Rule.atom "permit" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ])
          (Rule.atom "role" [ Rule.v "s"; Rule.c "sales_rep" ] :: req_atoms);
      ]
    in
    let policy_p' =
      [
        Rule.rule
          (Rule.atom "permit" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ])
          (Rule.atom "role" [ Rule.v "s"; Rule.c "director" ] :: req_atoms);
      ]
    in
    let cluster =
      Cluster.create ~seed:5L ~latency:(Latency.Constant 1.) ~cas:[ ca ]
        ~servers:
          [
            Cluster.server_spec ~name:"customers-db"
              ~items:[ ("customer-recs", Cloudtx_store.Value.Int 1) ]
              ();
            Cluster.server_spec ~name:"inventory-db"
              ~items:[ ("inventory-recs", Cloudtx_store.Value.Int 1) ]
              ();
          ]
        ~domains:[ ("compume", policy_p) ]
        ()
    in
    (* Bob's capability predates the policy change; P' never reaches the
       inventory replica. *)
    let cap =
      Credential.make ~id:"bob-read-cap" ~subject:"bob" ~issuer:"customers-db"
        ~kind:(Credential.Access { action = "read"; item = "inventory-recs" })
        ~facts:[] ~issued_at:0. ~expires_at:1e9
    in
    ignore
      (Cluster.publish cluster ~domain:"compume" ~accept_capabilities:false
         ~delay:(`Fixed (fun s -> if String.equal s "customers-db" then 0. else infinity))
         policy_p');
    ignore (Cluster.run cluster);
    let txn =
      Transaction.make ~id:"t-bob" ~subject:"bob" ~credentials:[ cap ]
        [
          Query.make ~id:"t-bob-q1" ~server:"inventory-db"
            ~reads:[ "inventory-recs" ] ();
        ]
    in
    Manager.run_one cluster (Manager.config scheme level) txn
  in
  let rows =
    List.concat_map
      (fun scheme ->
        List.map
          (fun level ->
            let o = run_once scheme level in
            [
              Scheme.name scheme;
              Consistency.name level;
              (if o.Outcome.committed then "COMMIT (unsafe!)" else "ABORT (safe)");
              Outcome.reason_name o.Outcome.reason;
            ])
          [ Consistency.View; Consistency.Global ])
      Scheme.all
  in
  Table.print
    ~title:
      "stale-capability access against a replica that never saw policy P'"
    ~headers:[ "scheme"; "level"; "outcome"; "reason" ]
    rows;
  print_endline
    "  paper's shape: view consistency admits the anomaly (stale participants";
  print_endline
    "  agree with each other); global consistency blocks it for every scheme";
  print_endline "  that validates or version-checks against the master."

(* The wire view of a traced run, as the figures below chart it. *)
let sends tracer =
  List.filter_map
    (fun { Trace.time; kind } ->
      match kind with
      | Trace.Send { src; dst; label } -> Some (time, src, dst, label)
      | Trace.Recv _ | Trace.Drop _ | Trace.Mark _ -> None)
    (Trace.of_tracer tracer)

let marks tracer =
  List.filter_map
    (fun { Trace.time; kind } ->
      match kind with
      | Trace.Mark { node; label } -> Some (time, node, label)
      | Trace.Send _ | Trace.Recv _ | Trace.Drop _ -> None)
    (Trace.of_tracer tracer)

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

let section_figure2 () =
  print_newline ();
  print_endline
    "== Figure 2 -- interaction among system components (message sequence) ==";
  let scenario =
    Scenario.retail ~latency:(Latency.Constant 1.) ~n_servers:2 ~n_subjects:1 ()
  in
  let cluster = scenario.Scenario.cluster in
  let tracer = Transport.enable_tracing (Cluster.transport cluster) in
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:2 ()
  in
  let outcome =
    Manager.run_one cluster (Manager.config Scheme.Deferred Consistency.Global) txn
  in
  ignore outcome;
  List.iter
    (fun (time, src, dst, label) ->
      Printf.printf "  %7.2fms  %-14s -> %-14s  %s\n" time src dst label)
    (sends tracer)

(* ------------------------------------------------------------------ *)
(* Figures 3-6                                                         *)
(* ------------------------------------------------------------------ *)

let section_figures_3_to_6 () =
  print_newline ();
  print_endline
    "== Figures 3-6 -- proof-of-authorization timelines (3 servers, u=3) ==";
  print_endline Timeline.legend;
  List.iter
    (fun (scheme, figure) ->
      let scenario =
        Scenario.retail ~latency:(Latency.Constant 1.) ~n_servers:3
          ~n_subjects:1 ()
      in
      let cluster = scenario.Scenario.cluster in
      let tracer = Transport.enable_tracing (Cluster.transport cluster) in
      let txn =
        Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1"
          ~queries:3 ()
      in
      let outcome =
        Manager.run_one cluster (Manager.config scheme Consistency.View) txn
      in
      let marks = marks tracer in
      let t_start = outcome.Outcome.submitted_at in
      let t_end = outcome.Outcome.finished_at in
      let starts_with prefix s =
        String.length s >= String.length prefix
        && String.sub s 0 (String.length prefix) = prefix
      in
      let events_of server =
        List.filter_map
          (fun (time, node, label) ->
            if node <> server then None
            else if starts_with "query_start:" label then Some (time, `Query)
            else if starts_with "proof_eval:" label then Some (time, `Proof)
            else None)
          marks
      in
      let syncs =
        List.filter_map
          (fun (time, node, label) ->
            if node = "tm-t1" && starts_with "sync:" label then
              Some (time, `Sync)
            else None)
          marks
      in
      let rows =
        List.map
          (fun server ->
            { Timeline.label = server; events = events_of server @ syncs })
          scenario.Scenario.servers
      in
      Printf.printf "\n%s -- %s proofs of authorization\n" figure
        (Scheme.name scheme);
      print_string (Timeline.render ~width:60 ~t_start ~t_end rows))
    [
      (Scheme.Deferred, "Figure 3");
      (Scheme.Punctual, "Figure 4");
      (Scheme.Incremental_punctual, "Figure 5");
      (Scheme.Continuous, "Figure 6");
    ]

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)
(* ------------------------------------------------------------------ *)

let section_figure7 () =
  print_newline ();
  print_endline "== Figure 7 -- the basic two-phase commit protocol ==";
  let stats = Tpc_run.run Tpc.Basic ~votes:[ ("p1", true); ("p2", true) ] in
  Printf.printf
    "  all-YES run, n=2: outcome=%s, messages=%d, forced log writes=%d (2n+1=%d)\n"
    (if stats.Tpc_run.outcome then "COMMIT" else "ABORT")
    stats.Tpc_run.messages
    (stats.Tpc_run.coordinator_forced + stats.Tpc_run.participants_forced)
    ((2 * 2) + 1);
  Printf.printf "  coordinator log: %s\n"
    (String.concat " -> " stats.Tpc_run.coordinator_log);
  List.iter
    (fun (name, log) ->
      Printf.printf "  %s log: %s\n" name (String.concat " -> " log))
    stats.Tpc_run.participant_logs;
  (* The same phases over the simulated network, as a sequence chart. *)
  let scenario =
    Scenario.retail ~latency:(Latency.Constant 1.) ~n_servers:2 ~n_subjects:1 ()
  in
  let cluster = scenario.Scenario.cluster in
  let tracer = Transport.enable_tracing (Cluster.transport cluster) in
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:2 ()
  in
  (* Incremental punctual commits through 2PVC-without-validation = 2PC. *)
  ignore
    (Manager.run_one cluster
       (Manager.config Scheme.Incremental_punctual Consistency.View)
       txn);
  print_endline "  voting and decision phases on the wire:";
  List.iter
    (fun (time, src, dst, label) ->
      match label with
      | "commit-request" | "commit-reply" | "decision-commit" | "decision-abort"
      | "decision-ack" ->
        Printf.printf "  %7.2fms  %-12s -> %-12s  %s\n" time src dst label
      | _ -> ())
    (sends tracer)

(* ------------------------------------------------------------------ *)
(* Section VI-B trade-off (the announced simulation study)             *)
(* ------------------------------------------------------------------ *)

let tradeoff_cell ~scheme ~level ~queries ~update_period ~n =
  let scenario = Scenario.retail ~seed:11L ~n_servers:6 ~n_subjects:4 () in
  if Float.is_finite update_period then
    Churn.policy_refresh scenario ~period:update_period ~propagation:(0.5, 8.)
      ~count:2000;
  let rng = Splitmix.create 77L in
  let params =
    { Generator.default with queries_per_txn = queries; write_ratio = 0.3 }
  in
  Experiment.run_sequential scenario (Manager.config scheme level) ~n
    (fun ~i -> Generator.generate scenario rng params ~id:(Printf.sprintf "t%d" i))

let section_tradeoff () =
  print_newline ();
  print_endline
    "== Section VI-B -- scheme choice vs transaction length and update interval ==";
  print_endline
    "  (the simulation study the paper's conclusion announces; view consistency)";
  let json_cells = ref [] in
  List.iter
    (fun (label, queries, update_period) ->
      let rows =
        List.map
          (fun scheme ->
            let stats =
              tradeoff_cell ~scheme ~level:Consistency.View ~queries
                ~update_period ~n:40
            in
            json_cells :=
              Obs_json.obj
                [
                  ("workload", Obs_json.quote label);
                  ("queries", string_of_int queries);
                  ( "update_period_ms",
                    if Float.is_finite update_period then
                      Obs_json.number update_period
                    else "null" );
                  ("scheme", Obs_json.quote (Scheme.name scheme));
                  ("level", Obs_json.quote (Consistency.name Consistency.View));
                  ("commit_ratio", Obs_json.number (Experiment.commit_ratio stats));
                  ( "latency_ms_mean",
                    Obs_json.number (Sample_set.mean stats.Experiment.latency_ms)
                  );
                  ( "latency_ms_p95",
                    Obs_json.number
                      (Sample_set.percentile stats.Experiment.latency_ms 95.) );
                  ( "proofs_mean",
                    Obs_json.number (Running_stats.mean stats.Experiment.proofs)
                  );
                  ( "messages_mean",
                    Obs_json.number
                      (Running_stats.mean stats.Experiment.protocol_messages) );
                ]
              :: !json_cells;
            [
              Scheme.name scheme;
              Printf.sprintf "%.0f%%" (100. *. Experiment.commit_ratio stats);
              Printf.sprintf "%.2f" (Sample_set.mean stats.Experiment.latency_ms);
              Printf.sprintf "%.2f"
                (Sample_set.percentile stats.Experiment.latency_ms 95.);
              Printf.sprintf "%.1f" (Running_stats.mean stats.Experiment.proofs);
              Printf.sprintf "%.1f"
                (Running_stats.mean stats.Experiment.protocol_messages);
            ])
          Scheme.all
      in
      Table.print
        ~title:
          (Printf.sprintf "%s (u=%d, update period %s)" label queries
             (if Float.is_finite update_period then
                Printf.sprintf "%.0fms" update_period
              else "none"))
        ~headers:[ "scheme"; "commit"; "lat ms"; "p95 ms"; "proofs"; "messages" ]
        rows)
    [
      ("short txns, no churn", 3, infinity);
      ("short txns, rare updates", 3, 400.);
      ("long txns, rare updates", 10, 400.);
      ("short txns, frequent updates", 3, 8.);
      ("long txns, frequent updates", 10, 8.);
    ];
  print_endline "";
  print_endline
    "  expected shape (paper, VI-B): txn length < update interval -> Deferred /";
  print_endline
    "  Punctual are cheapest; txn length > update interval -> Incremental aborts";
  print_endline
    "  pervasively while Continuous keeps committing at quadratic proof cost.";
  write_json_file ~what:"trade-off" (List.rev !json_cells)

(* ------------------------------------------------------------------ *)
(* Logging / 2PC-optimization compatibility                            *)
(* ------------------------------------------------------------------ *)

let section_logging () =
  print_newline ();
  print_endline
    "== Section V recovery / VI-A -- forced-log complexity and 2PC variants ==";
  let n = 3 in
  let votes = List.init n (fun i -> (Printf.sprintf "p%d" i, true)) in
  let veto = ("p0", false) :: List.tl votes in
  let rows =
    List.concat_map
      (fun variant ->
        List.map
          (fun (case, vs) ->
            let stats = Tpc_run.run variant ~votes:vs in
            [
              Tpc.variant_name variant;
              case;
              (if stats.Tpc_run.outcome then "commit" else "abort");
              string_of_int stats.Tpc_run.messages;
              string_of_int
                (stats.Tpc_run.coordinator_forced
                + stats.Tpc_run.participants_forced);
            ])
          [ ("all yes", votes); ("one no", veto) ])
      [ Tpc.Basic; Tpc.Presumed_abort; Tpc.Presumed_commit ]
  in
  Table.print
    ~title:(Printf.sprintf "pure 2PC state machines (n=%d)" n)
    ~headers:[ "variant"; "votes"; "outcome"; "messages"; "forced writes" ]
    rows;
  (* 2PVC on the simulator: participants force prepared + decision, the
     TM forces its decision: 2n + 1, exactly 2PC's log complexity. *)
  let scenario = Scenario.retail ~n_servers:n ~n_subjects:1 () in
  let cluster = scenario.Scenario.cluster in
  let registry = Transport.enable_metrics (Cluster.transport cluster) in
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:n ()
  in
  ignore (Manager.run_one cluster (Manager.config Scheme.Deferred Consistency.View) txn);
  let participant_forces =
    List.fold_left
      (fun acc name ->
        acc
        + Wal.force_count (Server.wal (Participant.server (Cluster.participant cluster name))))
      0 scenario.Scenario.servers
  in
  let tm_forces =
    Registry.counter registry "log_force_total" [ ("site", "tm") ]
  in
  Printf.printf
    "  2PVC (deferred/view, n=%d): participants forced %d, TM forced %d -- total %d = 2n+1\n"
    n participant_forces tm_forces
    (participant_forces + tm_forces)

(* ------------------------------------------------------------------ *)
(* Ablations: design knobs beyond the paper's core                     *)
(* ------------------------------------------------------------------ *)

module Gossip = Cloudtx_workload.Gossip

let ablation_read_only () =
  (* Read-heavy workload: how much does the classic read-only
     optimization save on the plain-2PC commit path? *)
  let run ~optimize =
    let scenario = Scenario.retail ~seed:13L ~n_servers:4 ~n_subjects:3 () in
    let rng = Splitmix.create 5L in
    let params =
      { Generator.default with queries_per_txn = 4; write_ratio = 0.25 }
    in
    Experiment.run_sequential scenario
      (Manager.config ~read_only_optimization:optimize
         Scheme.Incremental_punctual Consistency.View)
      ~n:40
      (fun ~i -> Generator.generate scenario rng params ~id:(Printf.sprintf "t%d" i))
  in
  let base = run ~optimize:false in
  let opt = run ~optimize:true in
  Table.print ~title:"read-only optimization (incremental/view, 25% writes)"
    ~headers:[ "config"; "commit"; "lat ms"; "messages/txn" ]
    [
      [
        "baseline";
        Printf.sprintf "%.0f%%" (100. *. Experiment.commit_ratio base);
        Printf.sprintf "%.2f" (Sample_set.mean base.Experiment.latency_ms);
        Printf.sprintf "%.1f" (Running_stats.mean base.Experiment.protocol_messages);
      ];
      [
        "read-only opt";
        Printf.sprintf "%.0f%%" (100. *. Experiment.commit_ratio opt);
        Printf.sprintf "%.2f" (Sample_set.mean opt.Experiment.latency_ms);
        Printf.sprintf "%.1f" (Running_stats.mean opt.Experiment.protocol_messages);
      ];
    ]

let ablation_master_mode () =
  (* Once vs Every_round master retrieval under global-worst staleness. *)
  let run mode =
    let scenario = Scenario.retail ~n_servers:4 ~n_subjects:1 () in
    let cluster = scenario.Scenario.cluster in
    ignore
      (Cluster.publish cluster ~domain:"retail"
         ~delay:(`Fixed (fun _ -> infinity))
         (Scenario.clerk_rules_refreshed ()));
    let txn =
      Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:4 ()
    in
    let registry = Transport.enable_metrics (Cluster.transport cluster) in
    let before = Table1.protocol_messages registry in
    let o =
      Manager.run_one cluster
        (Manager.config ~master_mode:mode Scheme.Deferred Consistency.Global)
        txn
    in
    (o, Table1.protocol_messages registry - before,
     Registry.counter registry "messages_total"
       [ ("type", "master-version-reply") ])
  in
  let o1, m1, f1 = run `Every_round in
  let o2, m2, f2 = run `Once in
  Table.print ~title:"master-version retrieval (deferred/global, master ahead)"
    ~headers:[ "mode"; "rounds"; "messages"; "master fetches" ]
    [
      [ "every-round"; string_of_int o1.Outcome.commit_rounds; string_of_int m1; string_of_int f1 ];
      [ "once"; string_of_int o2.Outcome.commit_rounds; string_of_int m2; string_of_int f2 ];
    ];
  print_endline
    "  once saves r-1 retrievals; under churn between rounds it risks extra";
  print_endline "  rounds because the target version is frozen (paper, Section V-A)."

let ablation_ocsp () =
  (* Pricing the paper's "online method" of credential status checking:
     commit latency per scheme when every CA check costs a round trip. *)
  let run scheme ocsp =
    let scenario =
      Scenario.retail ?ocsp_latency:ocsp ~latency:(Latency.Constant 1.)
        ~seed:23L ~n_servers:4 ~n_subjects:1 ()
    in
    Manager.run_one scenario.Scenario.cluster
      (Manager.config scheme Consistency.View)
      (Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1"
         ~queries:4 ())
  in
  let rows =
    List.map
      (fun scheme ->
        let free = run scheme None in
        let priced = run scheme (Some (Latency.Constant 2.)) in
        [
          Scheme.name scheme;
          Printf.sprintf "%.1f" (Outcome.latency free);
          Printf.sprintf "%.1f" (Outcome.latency priced);
          Printf.sprintf "+%.1f" (Outcome.latency priced -. Outcome.latency free);
        ])
      Scheme.all
  in
  Table.print
    ~title:"OCSP status checks priced at 2ms each (u=4, view consistency)"
    ~headers:[ "scheme"; "free ms"; "priced ms"; "delta" ]
    rows;
  print_endline
    "  deferred pays one parallel wave at commit; punctual/incremental pay a";
  print_endline
    "  serial check per query; continuous adds a check wave per 2PV invocation";
  print_endline
    "  (and quadratic total checker load, though waves parallelize across";
  print_endline "  servers on the latency path)."

let ablation_gossip () =
  (* A master push that reaches one server out of five; how fast does the
     deployment converge with gossip, and what do global transactions see
     meanwhile? *)
  let scenario = Scenario.retail ~seed:31L ~n_servers:5 ~n_subjects:1 () in
  let cluster = scenario.Scenario.cluster in
  ignore
    (Cluster.publish cluster ~domain:"retail"
       ~delay:(`Fixed (fun s -> if String.equal s "server-3" then 0. else infinity))
       (Scenario.clerk_rules_refreshed ()));
  Gossip.start scenario ~period:10. ~rounds:100;
  (* Sample convergence over time. *)
  let checkpoints = [ 0.; 20.; 40.; 80.; 160.; 320. ] in
  let rows = ref [] in
  List.iter
    (fun t ->
      Transport.at (Cluster.transport cluster) ~delay:t (fun () ->
          let fresh =
            List.length
              (List.filter
                 (fun (_, v) -> v = Some 2)
                 (Gossip.versions scenario ~domain:"retail"))
          in
          rows :=
            [ Printf.sprintf "%.0fms" t; Printf.sprintf "%d / 5" fresh ] :: !rows))
    checkpoints;
  ignore (Cluster.run cluster);
  Table.print ~title:"gossip anti-entropy: replicas holding v2 over time"
    ~headers:[ "time"; "fresh replicas" ]
    (List.rev !rows)

let ablation_master_distance () =
  (* The price of global consistency grows with the master's distance:
     view consistency never contacts it, Deferred/global fetches once per
     round, Continuous/global once per query. *)
  let run scheme level ~master_rtt =
    let scenario =
      Scenario.retail ~latency:(Latency.Constant 1.) ~seed:3L ~n_servers:4
        ~n_subjects:1 ()
    in
    let cluster = scenario.Scenario.cluster in
    let network = Transport.network (Cluster.transport cluster) in
    Cloudtx_sim.Network.set_link network "master" "tm-t1"
      (Latency.Constant master_rtt);
    let txn =
      Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries:4 ()
    in
    Outcome.latency (Manager.run_one cluster (Manager.config scheme level) txn)
  in
  let rows =
    List.map
      (fun rtt ->
        [
          Printf.sprintf "%.0fms" rtt;
          Printf.sprintf "%.1f" (run Scheme.Deferred Consistency.View ~master_rtt:rtt);
          Printf.sprintf "%.1f" (run Scheme.Deferred Consistency.Global ~master_rtt:rtt);
          Printf.sprintf "%.1f" (run Scheme.Continuous Consistency.Global ~master_rtt:rtt);
        ])
      [ 1.; 5.; 25.; 100. ]
  in
  Table.print
    ~title:"master placement: one-way TM<->master latency vs commit latency"
    ~headers:
      [ "master link"; "deferred/view"; "deferred/global"; "continuous/global" ]
    rows;
  print_endline
    "  view consistency is immune to master distance; global pays one fetch";
  print_endline
    "  round-trip per 2PVC round (deferred) or per query (continuous)."

let ablation_contention () =
  (* Open-loop runs with increasingly skewed key access: wait-die abort
     rate under lock contention, with and without restart-and-age. *)
  let run zipf ~max_restarts =
    let scenario = Scenario.retail ~seed:47L ~n_servers:3 ~n_subjects:4 () in
    let rng = Splitmix.create 9L in
    let params =
      { Generator.default with queries_per_txn = 3; write_ratio = 1.; zipf_s = zipf }
    in
    let arrivals = List.init 40 (fun i -> float_of_int i *. 1.5) in
    Experiment.run_open ~max_restarts scenario
      (Manager.config Scheme.Deferred Consistency.View)
      ~arrivals
      (fun ~i -> Generator.generate scenario rng params ~id:(Printf.sprintf "t%d" i))
  in
  let rows =
    List.map
      (fun zipf ->
        let base = run zipf ~max_restarts:0 in
        let aged = run zipf ~max_restarts:20 in
        [
          Printf.sprintf "%.1f" zipf;
          Printf.sprintf "%.0f%%" (100. *. Experiment.commit_ratio base);
          Printf.sprintf "%.2f" (Sample_set.mean base.Experiment.latency_ms);
          Printf.sprintf "%.0f%%" (100. *. Experiment.commit_ratio aged);
          string_of_int aged.Experiment.restarts;
        ])
      [ 0.; 0.8; 1.5; 2.5 ]
  in
  Table.print
    ~title:"contention: key skew vs wait-die (open loop, all writes, 40 txns)"
    ~headers:[ "zipf s"; "commit"; "lat ms"; "commit w/ aging"; "restarts" ]
    rows;
  print_endline
    "  restart-and-age resubmits wait-die victims with their original";
  print_endline "  timestamps; they grow relatively older and eventually win."

let ablation_snapshot_reads () =
  (* Mixed readers/writers on hot keys: MVCC snapshot reads take the
     readers out of the lock table entirely. *)
  let run ~snapshot =
    let scenario =
      Scenario.retail ~seed:5L ~n_servers:2 ~items_per_server:2 ~n_subjects:4 ()
    in
    let rng = Splitmix.create 11L in
    let writer =
      { Generator.default with queries_per_txn = 2; write_ratio = 1.; zipf_s = 3. }
    in
    let reader = { writer with write_ratio = 0. } in
    let arrivals = List.init 80 (fun i -> float_of_int i *. 0.3) in
    Experiment.run_open scenario
      (Manager.config ~snapshot_reads:snapshot Scheme.Incremental_punctual
         Consistency.View)
      ~arrivals
      (fun ~i ->
        let params = if i mod 2 = 0 then writer else reader in
        Generator.generate scenario rng params ~id:(Printf.sprintf "t%d" i))
  in
  let rows =
    List.map
      (fun (label, snapshot) ->
        let stats = run ~snapshot in
        [
          label;
          Printf.sprintf "%.0f%%" (100. *. Experiment.commit_ratio stats);
          string_of_int stats.Experiment.aborted;
          Printf.sprintf "%.2f" (Sample_set.mean stats.Experiment.latency_ms);
        ])
      [ ("locked reads", false); ("snapshot reads", true) ]
  in
  Table.print
    ~title:"MVCC snapshot reads (50% pure readers, hot keys, open loop)"
    ~headers:[ "config"; "commit"; "aborts"; "lat ms" ]
    rows;
  print_endline
    "  snapshot readers hold no shared locks: they cannot die, and writers";
  print_endline "  never queue behind them."

let section_ablations () =
  print_newline ();
  print_endline "== Ablations -- design knobs beyond the paper's core ==";
  ablation_read_only ();
  ablation_master_mode ();
  ablation_ocsp ();
  ablation_gossip ();
  ablation_master_distance ();
  ablation_snapshot_reads ();
  ablation_contention ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  (* Table I / proof machinery: one proof evaluation. *)
  let proof_eval =
    let module Rule = Cloudtx_policy.Rule in
    let module Ca = Cloudtx_policy.Ca in
    let module Policy = Cloudtx_policy.Policy in
    let module Proof = Cloudtx_policy.Proof in
    let ca = Ca.create "ca" in
    let cred =
      Ca.issue ca ~id:"c" ~subject:"bob"
        ~facts:[ Rule.fact "role" [ "bob"; "clerk" ] ]
        ~now:0. ~ttl:1e9
    in
    let policy =
      Policy.create ~domain:"d"
        [
          Rule.rule
            (Rule.atom "permit" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ])
            [
              Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ];
              Rule.atom "req_action" [ Rule.v "a" ];
              Rule.atom "req_item" [ Rule.v "i" ];
            ];
        ]
    in
    let env =
      {
        Proof.find_ca = (fun _ -> Some ca);
        trusted_server = (fun _ -> false);
        context = (fun () -> []);
      }
    in
    let request = { Proof.subject = "bob"; action = "read"; items = [ "x" ] } in
    Test.make ~name:"proof_evaluation"
      (Staged.stage (fun () ->
           ignore
             (Proof.evaluate ~query_id:"q" ~server:"s" ~policy ~creds:[ cred ]
                ~env ~at:1. request)))
  in
  (* One full simulated transaction per scheme (n = u = 4). *)
  let txn_bench ?(proof_cache = false) ?suffix scheme level =
    let name =
      Printf.sprintf "txn_%s_%s%s" (Scheme.name scheme) (Consistency.name level)
        (Option.value ~default:"" suffix)
    in
    Test.make ~name
      (Staged.stage (fun () ->
           let scenario =
             Scenario.retail ~proof_cache ~n_servers:4 ~n_subjects:1 ()
           in
           let txn =
             Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1"
               ~queries:4 ()
           in
           ignore
             (Manager.run_one scenario.Scenario.cluster
                (Manager.config scheme level)
                txn)))
  in
  (* A policy whose derivation is genuinely expensive (transitive closure
     over a 12-node chain): here memoizing the inference step pays. *)
  let heavy_proof_eval ~cached =
    let module Rule = Cloudtx_policy.Rule in
    let module Ca = Cloudtx_policy.Ca in
    let module Policy = Cloudtx_policy.Policy in
    let module Proof = Cloudtx_policy.Proof in
    let ca = Ca.create "ca" in
    let cred =
      Ca.issue ca ~id:"c" ~subject:"bob"
        ~facts:
          (Rule.fact "role" [ "bob"; "clerk" ]
          :: List.init 11 (fun i ->
                 Rule.fact "grants"
                   [ Printf.sprintf "g%d" i; Printf.sprintf "g%d" (i + 1) ]))
        ~now:0. ~ttl:1e9
    in
    let policy =
      Policy.create ~domain:"d"
        [
          Rule.rule
            (Rule.atom "reach" [ Rule.v "x"; Rule.v "y" ])
            [ Rule.atom "grants" [ Rule.v "x"; Rule.v "y" ] ];
          Rule.rule
            (Rule.atom "reach" [ Rule.v "x"; Rule.v "z" ])
            [
              Rule.atom "reach" [ Rule.v "x"; Rule.v "y" ];
              Rule.atom "grants" [ Rule.v "y"; Rule.v "z" ];
            ];
          Rule.rule
            (Rule.atom "permit" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ])
            [
              Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ];
              Rule.atom "reach" [ Rule.c "g0"; Rule.c "g11" ];
              Rule.atom "req_action" [ Rule.v "a" ];
              Rule.atom "req_item" [ Rule.v "i" ];
            ];
        ]
    in
    let env =
      {
        Proof.find_ca = (fun _ -> Some ca);
        trusted_server = (fun _ -> false);
        context = (fun () -> []);
      }
    in
    let request = { Proof.subject = "bob"; action = "read"; items = [ "x" ] } in
    let cache = if cached then Some (Hashtbl.create 16) else None in
    Test.make
      ~name:
        (if cached then "proof_eval_heavy_cached" else "proof_eval_heavy")
      (Staged.stage (fun () ->
           ignore
             (Proof.evaluate ?cache ~query_id:"q" ~server:"s" ~policy
                ~creds:[ cred ] ~env ~at:1. request)))
  in
  let tpc_bench =
    Test.make ~name:"pure_2pc_n4"
      (Staged.stage (fun () ->
           ignore
             (Tpc_run.run Tpc.Basic
                ~votes:[ ("a", true); ("b", true); ("c", true); ("d", true) ])))
  in
  let infer_bench =
    let module Rule = Cloudtx_policy.Rule in
    let module Infer = Cloudtx_policy.Infer in
    let rules =
      [
        Rule.rule
          (Rule.atom "reach" [ Rule.v "x"; Rule.v "y" ])
          [ Rule.atom "edge" [ Rule.v "x"; Rule.v "y" ] ];
        Rule.rule
          (Rule.atom "reach" [ Rule.v "x"; Rule.v "z" ])
          [
            Rule.atom "reach" [ Rule.v "x"; Rule.v "y" ];
            Rule.atom "edge" [ Rule.v "y"; Rule.v "z" ];
          ];
        Rule.rule_literals
          (Rule.atom "ok" [ Rule.v "x"; Rule.v "y" ])
          [
            Rule.Pos (Rule.atom "reach" [ Rule.v "x"; Rule.v "y" ]);
            Rule.Neg (Rule.atom "blocked" [ Rule.v "y" ]);
          ];
      ]
    in
    let facts =
      Rule.fact "blocked" [ "n7" ]
      :: List.init 9 (fun i ->
             Rule.fact "edge" [ Printf.sprintf "n%d" i; Printf.sprintf "n%d" (i + 1) ])
    in
    Test.make ~name:"infer_chain10_negation"
      (Staged.stage (fun () -> ignore (Infer.saturate ~rules ~facts)))
  in
  let codec_bench =
    let module Codec = Cloudtx_policy.Codec in
    let policy =
      Cloudtx_policy.Policy.create ~domain:"d" Scenario.clerk_rules
    in
    let wire = Codec.policy_to_string policy in
    Test.make ~name:"codec_policy_roundtrip"
      (Staged.stage (fun () ->
           match Codec.policy_of_string wire with
           | Ok _ -> ()
           | Error _ -> assert false))
  in
  let datalog_bench =
    let module Datalog = Cloudtx_policy.Datalog in
    let text =
      "permit(S, A, I) :- role(S, clerk), req_action(A), req_item(I), not suspended(S).\n"
    in
    Test.make ~name:"datalog_parse_rule"
      (Staged.stage (fun () ->
           match Datalog.parse_rule text with
           | Ok _ -> ()
           | Error _ -> assert false))
  in
  Test.make_grouped ~name:"cloudtx"
    ([
       proof_eval;
       heavy_proof_eval ~cached:false;
       heavy_proof_eval ~cached:true;
       tpc_bench;
       infer_bench;
       codec_bench;
       datalog_bench;
     ]
    @ List.map (fun s -> txn_bench s Consistency.View) Scheme.all
    @ [
        txn_bench Scheme.Deferred Consistency.Global;
        txn_bench ~proof_cache:true ~suffix:"_cached" Scheme.Continuous
          Consistency.View;
      ])

let section_micro () =
  print_newline ();
  print_endline "== Bechamel micro-benchmarks (wall clock) ==";
  let open Bechamel in
  let open Toolkit in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | Some [] | None -> nan
        in
        [ name; Printf.sprintf "%.1f" ns; Printf.sprintf "%.3f" (ns /. 1e6) ]
        :: acc)
      results []
    |> List.sort compare
  in
  Table.print ~title:"time per run" ~headers:[ "benchmark"; "ns/run"; "ms/run" ] rows;
  print_endline
    "  proof-cache trade-off: memoizing the inference step is ~30x faster on";
  print_endline
    "  derivation-heavy policies (proof_eval_heavy) but the memo key itself";
  print_endline
    "  costs more than the tiny retail policy's saturation — enable per";
  print_endline "  deployment."

(* ------------------------------------------------------------------ *)
(* Certify: serializability checking throughput over the 8-cell grid   *)
(* ------------------------------------------------------------------ *)

let section_certify () =
  print_newline ();
  print_endline "== Certify -- journal-driven serializability checking ==";
  (* One deterministic journal per scheme x level cell: the same seeded
     retail workload the health snapshot runs, recorded in memory. *)
  let corpus =
    List.concat_map
      (fun scheme ->
        List.map
          (fun level ->
            let scenario =
              Scenario.retail ~seed:23L ~n_servers:4 ~n_subjects:4 ()
            in
            let transport = Cluster.transport scenario.Scenario.cluster in
            let journal = Transport.enable_journal transport in
            let rng = Splitmix.create 29L in
            let params =
              { Generator.default with queries_per_txn = 4; write_ratio = 0.4 }
            in
            ignore
              (Experiment.run_sequential scenario (Manager.config scheme level)
                 ~n:12 (fun ~i ->
                   Generator.generate scenario rng params
                     ~id:(Printf.sprintf "t%d" i)));
            let lines =
              String.split_on_char '\n'
                (String.trim (Journal.to_string journal))
            in
            (scheme, level, lines))
          [ Consistency.View; Consistency.Global ])
      Scheme.all
  in
  let certified =
    List.map
      (fun (scheme, level, lines) ->
        match Certify.run ~lines with
        | Ok report -> (scheme, level, lines, report)
        | Error why ->
          Printf.eprintf "certify bench: %s/%s journal unreadable: %s\n"
            (Scheme.name scheme) (Consistency.name level) why;
          exit 2)
      corpus
  in
  (* Throughput: repeated full check + DSG construction, CPU-timed.
     The rates land in the JSON as trajectory fields (not gated). *)
  let reps = 10 in
  let t0 = Sys.time () in
  for _ = 1 to reps do
    List.iter
      (fun (_, _, lines, _) ->
        match Certify.run ~lines with
        | Ok r -> ignore (Certify.to_dsg r)
        | Error _ -> ())
      certified
  done;
  let elapsed = Sys.time () -. t0 in
  let total_edges =
    List.fold_left
      (fun acc (_, _, _, r) -> acc + List.length r.Certify.edges)
      0 certified
  in
  let total_records =
    List.fold_left
      (fun acc (_, _, _, r) -> acc + r.Certify.records)
      0 certified
  in
  let safe_div a b = if b <= 0. then 0. else a /. b in
  let journals_per_sec =
    safe_div (float_of_int (reps * List.length certified)) elapsed
  in
  let edges_per_sec = safe_div (float_of_int (reps * total_edges)) elapsed in
  Table.print
    ~title:"per-cell certification (12 txns/cell, u=4, n=4)"
    ~headers:
      [ "scheme"; "level"; "records"; "committed"; "versions"; "edges"; "verdict" ]
    (List.map
       (fun (scheme, level, _, r) ->
         [
           Scheme.name scheme;
           Consistency.name level;
           string_of_int r.Certify.records;
           string_of_int (List.length r.Certify.committed);
           string_of_int r.Certify.versions;
           string_of_int (List.length r.Certify.edges);
           (match r.Certify.verdict with
           | Certify.Serializable { si; _ } ->
             if si then "serializable (si ok)" else "serializable"
           | Certify.Anomalous a -> "ANOMALY " ^ Certify.anomaly_name a.Certify.anomaly);
         ])
       certified);
  Printf.printf
    "  throughput: %.0f journals/sec, %.0f DSG edges/sec (%d reps, %.2fs CPU)\n"
    journals_per_sec edges_per_sec reps elapsed;
  write_json_file ~what:"certify"
    (List.map
       (fun (scheme, level, _, r) ->
         Obs_json.obj
           [
             ("workload", Obs_json.quote "certify");
             ("scheme", Obs_json.quote (Scheme.name scheme));
             ("level", Obs_json.quote (Consistency.name level));
             ("records", string_of_int r.Certify.records);
             ("decode_errors", string_of_int r.Certify.decode_errors);
             ("committed", string_of_int (List.length r.Certify.committed));
             ("aborted", string_of_int (List.length r.Certify.aborted));
             ("versions", string_of_int r.Certify.versions);
             ("reads_mapped", string_of_int r.Certify.reads_mapped);
             ("edges", string_of_int (List.length r.Certify.edges));
             ( "serializable",
               match r.Certify.verdict with
               | Certify.Serializable _ -> "true"
               | Certify.Anomalous _ -> "false" );
             ( "si",
               match r.Certify.verdict with
               | Certify.Serializable { si; _ } -> if si then "true" else "false"
               | Certify.Anomalous _ -> "false" );
           ])
       certified
    @ [
        Obs_json.obj
          [
            ("workload", Obs_json.quote "certify-throughput");
            ("journals", string_of_int (List.length certified));
            ("records_total", string_of_int total_records);
            ("edges_total", string_of_int total_edges);
            ("journals_per_sec", Obs_json.number journals_per_sec);
            ("edges_per_sec", Obs_json.number edges_per_sec);
          ];
      ])

(* ------------------------------------------------------------------ *)
(* Blame: critical-path decomposition of journal latency               *)
(* ------------------------------------------------------------------ *)

let section_blame () =
  print_newline ();
  print_endline "== Blame -- per-transaction critical-path decomposition ==";
  (* The certify section's deterministic 8-cell corpus, with the metrics
     fabric on so the segment totals can be reconciled against the
     registry's latency histograms -- the same clock points, counted two
     ways. *)
  let corpus =
    List.concat_map
      (fun scheme ->
        List.map
          (fun level ->
            let scenario =
              Scenario.retail ~seed:23L ~n_servers:4 ~n_subjects:4 ()
            in
            let transport = Cluster.transport scenario.Scenario.cluster in
            let journal = Transport.enable_journal transport in
            let registry = Transport.enable_metrics transport in
            let rng = Splitmix.create 29L in
            let params =
              { Generator.default with queries_per_txn = 4; write_ratio = 0.4 }
            in
            ignore
              (Experiment.run_sequential scenario (Manager.config scheme level)
                 ~n:12 (fun ~i ->
                   Generator.generate scenario rng params
                     ~id:(Printf.sprintf "t%d" i)));
            let lines =
              String.split_on_char '\n'
                (String.trim (Journal.to_string journal))
            in
            (scheme, level, lines, registry))
          [ Consistency.View; Consistency.Global ])
      Scheme.all
  in
  let analyzed =
    List.map
      (fun (scheme, level, lines, registry) ->
        match Blame.of_lines lines with
        | Ok b -> (scheme, level, lines, registry, b)
        | Error why ->
          Printf.eprintf "blame bench: %s/%s journal unreadable: %s\n"
            (Scheme.name scheme) (Consistency.name level) why;
          exit 2)
      corpus
  in
  (* Throughput: repeated full replays, CPU-timed.  The rate lands in
     the JSON as a trajectory field (not gated). *)
  let reps = 10 in
  let t0 = Sys.time () in
  for _ = 1 to reps do
    List.iter (fun (_, _, lines, _, _) -> ignore (Blame.of_lines lines)) analyzed
  done;
  let elapsed = Sys.time () -. t0 in
  let safe_div a b = if b <= 0. then 0. else a /. b in
  let journals_per_sec =
    safe_div (float_of_int (reps * List.length analyzed)) elapsed
  in
  let the_cell what b =
    match Critical_path.agg_cells (Blame.agg b) with
    | [ c ] -> c
    | cells ->
      Printf.eprintf "blame bench: %s: expected 1 aggregate cell, got %d\n" what
        (List.length cells);
      exit 2
  in
  let segments_of c =
    List.fold_left
      (fun a (r : Critical_path.row) -> a + r.Critical_path.row_spans)
      0 c.Critical_path.cell_rows
  in
  let rows =
    List.map
      (fun (scheme, level, _, registry, b) ->
        let what =
          Printf.sprintf "%s/%s" (Scheme.name scheme) (Consistency.name level)
        in
        let c = the_cell what b in
        let labels =
          [
            ("scheme", Scheme.name scheme);
            ("consistency", Consistency.name level);
          ]
        in
        let registry_total =
          match Registry.histogram registry "txn_latency_ms" labels with
          | Some h -> Sketch.sum h
          | None -> 0.
        in
        let blame_total = c.Critical_path.cell_total_ms in
        let reconciled =
          Float.abs (registry_total -. blame_total)
          <= 1e-6 +. (1e-9 *. Float.abs registry_total)
        in
        let dominant_kind, dominant_ms =
          match c.Critical_path.cell_rows with
          | r :: _ ->
            ( Critical_path.kind_name r.Critical_path.row_kind,
              r.Critical_path.row_total_ms )
          | [] -> ("-", 0.)
        in
        (scheme, level, b, c, reconciled, dominant_kind, dominant_ms))
      analyzed
  in
  Table.print
    ~title:"per-cell blame decomposition (12 txns/cell, u=4, n=4)"
    ~headers:
      [
        "scheme"; "level"; "txns"; "committed"; "total ms"; "top segment"; "ms";
        "share"; "reconciled";
      ]
    (List.map
       (fun (scheme, level, _b, c, reconciled, dk, dms) ->
         [
           Scheme.name scheme;
           Consistency.name level;
           string_of_int c.Critical_path.cell_txns;
           string_of_int c.Critical_path.cell_committed;
           Printf.sprintf "%.3f" c.Critical_path.cell_total_ms;
           dk;
           Printf.sprintf "%.3f" dms;
           Printf.sprintf "%.1f%%"
             (100. *. safe_div dms c.Critical_path.cell_total_ms);
           (if reconciled then "yes" else "NO");
         ])
       rows);
  Printf.printf "  throughput: %.0f journal replays/sec (%d reps, %.2fs CPU)\n"
    journals_per_sec reps elapsed;
  if List.exists (fun (_, _, _, _, reconciled, _, _) -> not reconciled) rows
  then begin
    Printf.eprintf
      "blame bench: segment totals diverge from the registry histograms\n";
    exit 1
  end;
  let segments_total =
    List.fold_left (fun acc (_, _, _, c, _, _, _) -> acc + segments_of c) 0 rows
  in
  write_json_file ~what:"blame"
    (List.map
       (fun (scheme, level, b, c, reconciled, dk, dms) ->
         Obs_json.obj
           [
             ("workload", Obs_json.quote "blame");
             ("scheme", Obs_json.quote (Scheme.name scheme));
             ("level", Obs_json.quote (Consistency.name level));
             ("txns", string_of_int c.Critical_path.cell_txns);
             ("committed", string_of_int c.Critical_path.cell_committed);
             ("aborted", string_of_int c.Critical_path.cell_aborted);
             ("segments", string_of_int (segments_of c));
             ("decode_errors", string_of_int (Blame.decode_errors b));
             ("uncovered", string_of_int (List.length (Blame.uncovered b)));
             ("total_ms", Obs_json.number c.Critical_path.cell_total_ms);
             ("dominant", Obs_json.quote dk);
             ("dominant_ms", Obs_json.number dms);
             ("reconciled", if reconciled then "true" else "false");
           ])
       rows
    @ [
        Obs_json.obj
          [
            ("workload", Obs_json.quote "blame-throughput");
            ("journals", string_of_int (List.length rows));
            ("segments_total", string_of_int segments_total);
            ("journals_per_sec", Obs_json.number journals_per_sec);
          ];
      ])

(* ------------------------------------------------------------------ *)
(* Journal: binary vs JSONL flight-recorder encoding                   *)
(* ------------------------------------------------------------------ *)

let section_journal () =
  print_newline ();
  print_endline "== Journal -- binary vs JSONL flight-recorder encoding ==";
  (* Corpus: one deterministic retail workload per scheme x level cell,
     recorded through an in-memory binary journal.  Its decoded typed
     payloads drive both encoders below, so the encode comparison runs
     over the exact record mix a full-grid run produces. *)
  let bin_journals =
    List.concat_map
      (fun scheme ->
        List.map
          (fun level ->
            let scenario =
              Scenario.retail ~seed:23L ~n_servers:4 ~n_subjects:4 ()
            in
            let transport = Cluster.transport scenario.Scenario.cluster in
            let journal =
              Transport.enable_journal ~format:Journal.Binary transport
            in
            let rng = Splitmix.create 29L in
            let params =
              { Generator.default with queries_per_txn = 4; write_ratio = 0.4 }
            in
            ignore
              (Experiment.run_sequential scenario (Manager.config scheme level)
                 ~n:6 (fun ~i ->
                   Generator.generate scenario rng params
                     ~id:(Printf.sprintf "t%d" i)));
            Journal.to_string journal)
          [ Consistency.View; Consistency.Global ])
      Scheme.all
  in
  let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt in
  (* Typed frames: (seq, time_ms, node, dir, payload). *)
  let frames =
    List.concat_map
      (fun contents ->
        match Journal.decode_binary contents with
        | Error why -> die "journal bench: corpus decode failed: %s" why
        | Ok d ->
          List.map
            (fun (f : Journal.frame) ->
              match Codec_bin.payload_of_string f.Journal.payload with
              | Error why ->
                die "journal bench: corpus payload %d undecodable: %s"
                  f.Journal.seq why
              | Ok p -> (f.Journal.seq, f.Journal.time_ms, f.Journal.node, f.Journal.dir, p))
            d.Journal.frames)
      bin_journals
  in
  let jsonl_journals =
    List.map
      (fun contents ->
        match Journal_io.convert ~to_:Journal.Jsonl contents with
        | Ok s -> s
        | Error why -> die "journal bench: bin->jsonl conversion failed: %s" why)
      bin_journals
  in
  (* Conversion must round-trip byte-exactly: jsonl -> bin reproduces the
     natively recorded binary journal. *)
  let roundtrip_ok =
    List.for_all2
      (fun bin jsonl ->
        match Journal_io.convert ~to_:Journal.Binary jsonl with
        | Ok back -> String.equal back bin
        | Error _ -> false)
      bin_journals jsonl_journals
  in
  let sum_len l = List.fold_left (fun a s -> a + String.length s) 0 l in
  let records = List.length frames in
  let bin_bytes = sum_len bin_journals in
  let jsonl_bytes = sum_len jsonl_journals in
  let record_lines =
    List.concat_map
      (fun contents ->
        match String.split_on_char '\n' (String.trim contents) with
        | _header :: records -> records
        | [] -> [])
      jsonl_journals
  in
  (* Encode throughput, along the same paths the drivers use: JSONL =
     typed payload -> JSON tree -> rendered line; binary = typed payload
     -> frame bytes straight into a reused buffer. *)
  (* Best-of-R records/sec: each repetition runs the workload for at
     least [min_s] CPU-seconds; the fastest repetition wins.  Nothing
     can make the code run faster than it is, so the best run is the
     one with the least scheduler/GC interference — the repeatable
     number a gate can be held to. *)
  let best_rate ?(reps = 5) ?(min_s = 0.08) f =
    f ();
    (* warm-up, then measure against a settled heap *)
    Gc.compact ();
    let best = ref 0.0 in
    for _ = 1 to reps do
      let t0 = Sys.time () in
      let iters = ref 0 in
      let rec go () =
        f ();
        incr iters;
        if Sys.time () -. t0 < min_s then go ()
      in
      go ();
      let r = float_of_int (!iters * records) /. (Sys.time () -. t0) in
      if r > !best then best := r
    done;
    !best
  in
  let frames_arr = Array.of_list frames in
  let encode_jsonl () =
    Array.iter
      (fun (seq, time_ms, node, dir, p) ->
        let payload = Pcodec.to_string (Codec_bin.payload_to_json p) in
        ignore (Journal.render_jsonl ~seq ~time_ms ~node ~dir ~payload))
      frames_arr
  in
  let wout = Wbuf.create (1 lsl 21) in
  let encode_bin () =
    Wbuf.clear wout;
    Array.iter
      (fun (seq, time_ms, node, dir, p) ->
        if Wbuf.length wout > 1 lsl 20 then Wbuf.clear wout;
        Journal.encode_frame_into wout ~seq ~time_ms ~node ~dir
          ~emit:(fun b -> Codec_bin.emit_payload b p))
      frames_arr
  in
  let jsonl_rps = best_rate encode_jsonl in
  let bin_rps = best_rate encode_bin in
  let encode_speedup = bin_rps /. jsonl_rps in
  let jsonl_mbps = jsonl_rps *. float_of_int jsonl_bytes /. float_of_int records /. 1e6 in
  let bin_mbps = bin_rps *. float_of_int bin_bytes /. float_of_int records /. 1e6 in
  (* Decode throughput: whole-journal replay to typed records. *)
  let decode_jsonl () =
    List.iter
      (fun line ->
        match Pjson.parse line with Ok _ -> () | Error _ -> assert false)
      record_lines
  in
  let decode_bin () =
    List.iter
      (fun contents ->
        match Journal.decode_binary contents with
        | Error _ -> assert false
        | Ok d ->
          List.iter
            (fun (f : Journal.frame) ->
              match Codec_bin.payload_of_string f.Journal.payload with
              | Ok _ -> ()
              | Error _ -> assert false)
            d.Journal.frames)
      bin_journals
  in
  let djsonl_rps = best_rate decode_jsonl in
  let dbin_rps = best_rate decode_bin in
  (* End-to-end: one certified chaos cell per format (same seeds; the
     only difference is the flight recorder's encoding). *)
  let chaos_cell journal_format =
    let t0 = Sys.time () in
    let v =
      Campaign.run ~certify:true ~journal_format
        ~cells:[ { Campaign.scheme = Scheme.Continuous; level = Consistency.Global } ]
        ~plans:2 ()
    in
    (Sys.time () -. t0, List.length v.Campaign.failures)
  in
  let chaos_jsonl_s, chaos_jsonl_fail = chaos_cell Journal.Jsonl in
  let chaos_bin_s, chaos_bin_fail = chaos_cell Journal.Binary in
  Table.print
    ~title:
      (Printf.sprintf "flight-recorder encodings (8-cell corpus, %d records)"
         records)
    ~headers:[ "metric"; "jsonl"; "bin"; "bin/jsonl" ]
    [
      [
        "journal bytes"; string_of_int jsonl_bytes; string_of_int bin_bytes;
        Printf.sprintf "%.2fx smaller"
          (float_of_int jsonl_bytes /. float_of_int bin_bytes);
      ];
      [
        "encode records/s"; Printf.sprintf "%.0f" jsonl_rps;
        Printf.sprintf "%.0f" bin_rps;
        Printf.sprintf "%.1fx faster" encode_speedup;
      ];
      [
        "encode MB/s"; Printf.sprintf "%.1f" jsonl_mbps;
        Printf.sprintf "%.1f" bin_mbps; "";
      ];
      [
        "decode records/s"; Printf.sprintf "%.0f" djsonl_rps;
        Printf.sprintf "%.0f" dbin_rps;
        Printf.sprintf "%.1fx faster" (dbin_rps /. djsonl_rps);
      ];
      [
        "chaos cell (2 plans, certified)"; Printf.sprintf "%.2fs" chaos_jsonl_s;
        Printf.sprintf "%.2fs" chaos_bin_s; "";
      ];
    ];
  Printf.printf "  conversion round-trip (jsonl -> bin = native bin): %s\n"
    (if roundtrip_ok then "byte-exact" else "DIVERGED");
  write_json_file ~what:"journal"
    [
      Obs_json.obj
        [
          ("workload", Obs_json.quote "journal-size");
          ("cells", string_of_int (List.length bin_journals));
          ("records", string_of_int records);
          ("jsonl_bytes", string_of_int jsonl_bytes);
          ("bin_bytes", string_of_int bin_bytes);
          ( "bytes_ratio",
            Obs_json.number (float_of_int jsonl_bytes /. float_of_int bin_bytes)
          );
          ("roundtrip_identity", if roundtrip_ok then "true" else "false");
        ];
      Obs_json.obj
        [
          ("workload", Obs_json.quote "journal-encode");
          ("records", string_of_int records);
          ("jsonl_records_per_sec", Obs_json.number jsonl_rps);
          ("bin_records_per_sec", Obs_json.number bin_rps);
          ("jsonl_mb_per_sec", Obs_json.number jsonl_mbps);
          ("bin_mb_per_sec", Obs_json.number bin_mbps);
          ("encode_speedup", Obs_json.number encode_speedup);
          ("min_encode_speedup", "10");
        ];
      Obs_json.obj
        [
          ("workload", Obs_json.quote "journal-decode");
          ("records", string_of_int records);
          ("jsonl_decode_records_per_sec", Obs_json.number djsonl_rps);
          ("bin_decode_records_per_sec", Obs_json.number dbin_rps);
          ("decode_speedup", Obs_json.number (dbin_rps /. djsonl_rps));
        ];
      Obs_json.obj
        [
          ("workload", Obs_json.quote "journal-chaos");
          ("format", Obs_json.quote "jsonl");
          ("violations", string_of_int chaos_jsonl_fail);
          ("wall_s", Obs_json.number chaos_jsonl_s);
        ];
      Obs_json.obj
        [
          ("workload", Obs_json.quote "journal-chaos");
          ("format", Obs_json.quote "bin");
          ("violations", string_of_int chaos_bin_fail);
          ("wall_s", Obs_json.number chaos_bin_s);
        ];
    ];
  if not roundtrip_ok then die "journal bench: conversion round-trip diverged"

(* ------------------------------------------------------------------ *)
(* Observability: spans + metrics over a full workload                 *)
(* ------------------------------------------------------------------ *)

let section_obs () =
  print_newline ();
  print_endline "== Observability -- transaction-lifecycle spans and metrics ==";
  let scenario = Scenario.retail ~seed:19L ~n_servers:4 ~n_subjects:4 () in
  let transport = Cluster.transport scenario.Scenario.cluster in
  let tracer = Transport.enable_tracing transport in
  let registry = Transport.enable_metrics transport in
  Option.iter
    (fun path -> ignore (Transport.enable_journal ~path transport))
    !obs_journal_out;
  Churn.policy_refresh scenario ~period:50. ~propagation:(0.5, 8.) ~count:5000;
  let rng = Splitmix.create 21L in
  let params = { Generator.default with queries_per_txn = 4; write_ratio = 0.3 } in
  List.iter
    (fun (scheme, level) ->
      ignore
        (Experiment.run_sequential scenario (Manager.config scheme level) ~n:15
           (fun ~i ->
             Generator.generate scenario rng params
               ~id:(Printf.sprintf "%s-%d" (Scheme.name scheme) i))))
    [
      (Scheme.Deferred, Consistency.View);
      (Scheme.Continuous, Consistency.Global);
    ];
  Printf.printf "  %d spans recorded across both runs\n" (Tracer.length tracer);
  (* Span census: how often each lifecycle phase appears. *)
  let census = Hashtbl.create 16 in
  List.iter
    (fun (s : Tracer.span) ->
      if not s.Tracer.instant then
        Hashtbl.replace census s.Tracer.name
          (1 + Option.value ~default:0 (Hashtbl.find_opt census s.Tracer.name)))
    (Tracer.spans tracer);
  Table.print ~title:"span census (non-instant spans)"
    ~headers:[ "span"; "count" ]
    (Hashtbl.fold (fun k v acc -> [ k; string_of_int v ] :: acc) census []
    |> List.sort compare);
  Table.print ~title:"metrics registry snapshot"
    ~headers:[ "metric"; "labels"; "count"; "value/mean"; "p50"; "p95"; "p99" ]
    (Registry.to_rows registry);
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    Printf.printf "  wrote %s\n" path
  in
  Option.iter (fun p -> write p (Obs_export.to_chrome tracer)) !obs_trace_out;
  Option.iter (fun p -> write p (Registry.to_json registry)) !obs_metrics_json;
  Option.iter
    (fun p ->
      let journal = Transport.journal transport in
      Journal.close journal;
      Printf.printf "  wrote %s (flight-recorder journal, %d records)\n" p
        (Journal.length journal))
    !obs_journal_out;
  (* --- quantile sketch vs exact sample store ------------------------ *)
  (* A deterministic heavy-tailed stream (no RNG dependency): the same
     values feed the sketch and an exact sample store, the reference its
     quantiles are checked against, so accuracy and retention are pure
     functions of the stream. *)
  let n_stream = 50_000 in
  (* Period 10k: the 10k and 50k streams cover the same value set, so
     retention flatness compares like with like. *)
  let value i =
    let x = float_of_int ((i * 7919 mod 10_000) + 1) in
    0.05 *. (x ** 1.5) /. 100.
  in
  let ns_per_observe n t0 = (Sys.time () -. t0) *. 1e9 /. float_of_int n in
  let exact = Sample_set.create () in
  let t0 = Sys.time () in
  for i = 0 to n_stream - 1 do
    Sample_set.add exact (value i)
  done;
  let exact_ns = ns_per_observe n_stream t0 in
  (* Taken before any percentile query caches a sorted copy. *)
  let exact_words_50k = Obj.reachable_words (Obj.repr exact) in
  let record n =
    let sk = Sketch.create () in
    let t0 = Sys.time () in
    for i = 0 to n - 1 do
      Sketch.observe sk (value i)
    done;
    (sk, ns_per_observe n t0)
  in
  let sk, sketch_ns = record n_stream in
  (* Bounded memory: the sketch's footprint must be flat from 10k to 50k
     observations over the same dynamic range, while the exact store
     grows linearly.  Gated (deterministic). *)
  let sk10, _ = record 10_000 in
  let sketch_words_10k = Sketch.memory_words sk10 in
  let sketch_words_50k = Sketch.memory_words sk in
  if sketch_words_50k > sketch_words_10k then begin
    Printf.eprintf
      "obs bench: sketch memory grew with the stream (%d -> %d words)\n"
      sketch_words_10k sketch_words_50k;
    exit 2
  end;
  (* Accuracy: every reported quantile within the documented relative
     error bound of the exact percentile.  Gated (deterministic). *)
  let bound = Sketch.error_bound sk in
  let worst_rel_err =
    List.fold_left
      (fun acc p ->
        let e = Sample_set.percentile exact p
        and g = Sketch.percentile sk p in
        Float.max acc (Float.abs (g -. e) /. e))
      0.
      [ 1.; 25.; 50.; 90.; 99.; 99.9; 100. ]
  in
  if worst_rel_err > bound then begin
    Printf.eprintf "obs bench: sketch error %.4f exceeds the bound %.4f\n"
      worst_rel_err bound;
    exit 2
  end;
  Printf.printf
    "  sketch: %.0f ns/observe vs exact %.0f ns; retention %d words flat \
     (exact: %d); worst quantile error %.3f%% (bound %.3f%%)\n"
    sketch_ns exact_ns sketch_words_50k exact_words_50k
    (100. *. worst_rel_err) (100. *. bound);
  write_json_file ~what:"obs"
    [
      Obs_json.obj
        [
          ("workload", Obs_json.quote "sketch");
          ("stream", string_of_int n_stream);
          ("sketch_words_10k", string_of_int sketch_words_10k);
          ("sketch_words_50k", string_of_int sketch_words_50k);
          ("exact_words_50k", string_of_int exact_words_50k);
          ("memory_bounded", "true");
          ("within_error_bound", "true");
          ("error_bound", Obs_json.number bound);
          ("sketch_ns_per_observe", Obs_json.number sketch_ns);
          ("exact_ns_per_observe", Obs_json.number exact_ns);
        ];
    ]

(* ------------------------------------------------------------------ *)
(* Resilience: adaptive timeouts, breakers, gray-fault sweep           *)
(* ------------------------------------------------------------------ *)

let section_resilience () =
  let module Timeout_policy = Cloudtx_protocol.Timeout_policy in
  let module Resilience = Cloudtx_core.Resilience in
  print_newline ();
  print_endline
    "== Resilience -- adaptive timeouts, circuit breakers, gray faults ==";
  (* Policy math: the jittered backoff schedule is a pure function of
     (seed, machine, epoch, strikes), so the delays themselves are
     deterministic gate fields — any drift in the backoff or jitter
     arithmetic shows up as a baseline mismatch.  The per-call cost is
     the (ungated) trajectory. *)
  let a =
    match Timeout_policy.adaptive () with
    | Timeout_policy.Adaptive a -> a
    | Timeout_policy.Fixed -> assert false
  in
  let name_hash = Timeout_policy.hash_name "tm-t1" in
  let delay strikes =
    Timeout_policy.delay a ~base:10. ~name_hash ~epoch:1 ~strikes
  in
  let calls = 200_000 in
  let t0 = Sys.time () in
  let acc = ref 0. in
  for i = 1 to calls do
    acc := !acc +. Timeout_policy.delay a ~base:10. ~name_hash ~epoch:i ~strikes:(i land 3)
  done;
  let delay_ns = (Sys.time () -. t0) /. float_of_int calls *. 1e9 in
  ignore !acc;
  Printf.printf
    "  backoff schedule (base 10ms): %.3f / %.3f / %.3f / %.3f ms; %.0f \
     ns/delay\n"
    (delay 0) (delay 1) (delay 2) (delay 3) delay_ns;
  (* Budget exhaustion: a participant dies before the commit request and
     never recovers.  The adaptive budgets must still land a clean abort
     in bounded time — the outcome fields are the gate. *)
  let budget_row =
    let s =
      Scenario.retail ~latency:(Latency.Constant 1.) ~n_servers:3 ~n_subjects:1
        ()
    in
    let cluster = s.Scenario.cluster in
    Transport.at (Cluster.transport cluster) ~delay:6.5 (fun () ->
        Participant.crash (Cluster.participant cluster "server-2"));
    let config =
      Manager.config ~vote_timeout:25. ~decision_retry:10.
        ~timeout_policy:(Timeout_policy.adaptive ()) Scheme.Deferred
        Consistency.View
    in
    let result = ref None in
    let txn =
      Scenario.spread_transaction s ~id:"t1" ~subject:"clerk-1" ~queries:3 ()
    in
    Manager.submit cluster config txn ~on_done:(fun o -> result := Some o);
    ignore (Cluster.run cluster);
    match !result with
    | None ->
      Printf.eprintf "resilience bench: budget run hung\n";
      exit 2
    | Some o ->
      Printf.printf "  dead-participant abort: %s after %.1f simulated ms\n"
        (Outcome.reason_name o.Outcome.reason)
        (o.Outcome.finished_at -. o.Outcome.submitted_at);
      Obs_json.obj
        [
          ("workload", Obs_json.quote "budget-exhaustion");
          ("committed", (if o.Outcome.committed then "true" else "false"));
          ("reason", Obs_json.quote (Outcome.reason_name o.Outcome.reason));
        ]
  in
  (* Gray-fault sweep: every cell must survive the same seeded slow-fault
     plans under the adaptive policy with breakers armed, including the
     campaign's graceful-degradation layers (retry budgets, post-heal
     probe, breaker convergence).  Violations gate at zero per cell. *)
  let plans = 3 and base_seed = 9000L in
  let t0 = Sys.time () in
  let rows =
    List.map
      (fun cell ->
        let v =
          Campaign.run
            ~policy:(Timeout_policy.adaptive ())
            ~resilience:(Resilience.config ())
            ~certify:true ~cells:[ cell ] ~base_seed ~plans ()
        in
        Printf.printf "  gray sweep %-24s %d plan(s), %d violation(s)\n"
          (Campaign.cell_name cell) v.Campaign.plans_run
          (List.length v.Campaign.failures);
        Obs_json.obj
          [
            ("workload", Obs_json.quote "gray-sweep");
            ("scheme", Obs_json.quote (Scheme.name cell.Campaign.scheme));
            ("level", Obs_json.quote (Consistency.name cell.Campaign.level));
            ("plans", string_of_int v.Campaign.plans_run);
            ("violations", string_of_int (List.length v.Campaign.failures));
          ])
      Campaign.all_cells
  in
  let wall = Sys.time () -. t0 in
  Printf.printf "  gray sweep wall time: %.2f s\n" wall;
  write_json_file ~what:"resilience"
    (Obs_json.obj
       [
         ("workload", Obs_json.quote "backoff-schedule");
         ("delay_strike0_ms", Obs_json.number (delay 0));
         ("delay_strike1_ms", Obs_json.number (delay 1));
         ("delay_strike2_ms", Obs_json.number (delay 2));
         ("delay_strike3_ms", Obs_json.number (delay 3));
         ("delay_ns_per_call", Obs_json.number delay_ns);
       ]
    :: budget_row :: rows
    @ [
        Obs_json.obj
          [
            ("workload", Obs_json.quote "gray-sweep-total");
            ("cells", string_of_int (List.length rows));
            ("plans_per_cell", string_of_int plans);
            ("wall_s", Obs_json.number wall);
          ];
      ])

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", section_table1);
    ("figure1", section_figure1);
    ("figure2", section_figure2);
    ("figures", section_figures_3_to_6);
    ("figure7", section_figure7);
    ("tradeoff", section_tradeoff);
    ("logging", section_logging);
    ("ablations", section_ablations);
    ("obs", section_obs);
    ("certify", section_certify);
    ("blame", section_blame);
    ("journal", section_journal);
    ("resilience", section_resilience);
    ("micro", section_micro);
  ]

let () =
  (* Pull --trace-out/--metrics-json/--journal-out/--json FILE out of
     argv; what remains is the list of section names. *)
  let rec parse acc = function
    | [] -> List.rev acc
    | "--trace-out" :: path :: rest ->
      obs_trace_out := Some path;
      parse acc rest
    | "--metrics-json" :: path :: rest ->
      obs_metrics_json := Some path;
      parse acc rest
    | "--journal-out" :: path :: rest ->
      obs_journal_out := Some path;
      parse acc rest
    | "--json" :: path :: rest ->
      json_out := Some path;
      parse acc rest
    | "--check" :: path :: rest ->
      check_baseline := Some path;
      parse acc rest
    | ("--trace-out" | "--metrics-json" | "--journal-out" | "--json"
      | "--check")
      :: [] ->
      Printf.eprintf
        "--trace-out/--metrics-json/--journal-out/--json/--check need a FILE \
         argument\n";
      exit 2
    | arg :: rest -> parse (arg :: acc) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst sections
    | args -> args
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown section %s (known: %s)\n" name
          (String.concat ", " (List.map fst sections));
        exit 2)
    requested;
  Option.iter run_check !check_baseline
