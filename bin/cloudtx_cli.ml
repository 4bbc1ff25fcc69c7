(* cloudtx command-line front end.

     cloudtx run      -- run a workload under a scheme and print stats
     cloudtx table1   -- Table I: analytic vs measured complexity
     cloudtx trace    -- run one transaction and dump the message trace
     cloudtx sweep    -- the Section VI-B trade-off grid

   Example:
     dune exec bin/cloudtx_cli.exe -- run --scheme continuous --level global \
       --servers 6 --queries 8 --txns 50 --update-period 10 *)

module Cluster = Cloudtx_core.Cluster
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Outcome = Cloudtx_protocol.Outcome
module Transport = Cloudtx_sim.Transport
module Trace = Cloudtx_sim.Trace
module Latency = Cloudtx_sim.Latency
module Splitmix = Cloudtx_sim.Splitmix
module Scenario = Cloudtx_workload.Scenario
module Generator = Cloudtx_workload.Generator
module Churn = Cloudtx_workload.Churn
module Experiment = Cloudtx_workload.Experiment
module Table1 = Cloudtx_workload.Table1
module Table = Cloudtx_metrics.Table
module Sample_set = Cloudtx_metrics.Sample_set
module Running_stats = Cloudtx_metrics.Running_stats
module Complexity = Cloudtx_core.Complexity
module Tracer = Cloudtx_obs.Tracer
module Registry = Cloudtx_obs.Registry
module Export = Cloudtx_obs.Export
module Journal = Cloudtx_obs.Journal
module Journal_io = Cloudtx_core.Journal_io
module Audit = Cloudtx_core.Audit
module Certify = Cloudtx_core.Certify
module Dsg = Cloudtx_obs.Dsg
module Monitor = Cloudtx_obs.Monitor
module Slo = Cloudtx_obs.Slo
module Health = Cloudtx_core.Health
module Timeseries = Cloudtx_obs.Timeseries
module Sketch = Cloudtx_obs.Sketch
module Report = Cloudtx_obs.Report
module Report_io = Cloudtx_core.Report_io
module Blame = Cloudtx_core.Blame
module Critical_path = Cloudtx_obs.Critical_path
module Json = Cloudtx_obs.Json
module Plan = Cloudtx_chaos.Plan
module Campaign = Cloudtx_chaos.Campaign
module Shrink = Cloudtx_chaos.Shrink
module Timeout_policy = Cloudtx_protocol.Timeout_policy
module Resilience = Cloudtx_core.Resilience

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)
(* ------------------------------------------------------------------ *)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable protocol debug logging.")

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let scheme_conv =
  let parse s =
    match Scheme.of_string s with
    | Some scheme -> Ok scheme
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown scheme %s (deferred|punctual|incremental|continuous)" s))
  in
  Arg.conv (parse, fun ppf s -> Format.fprintf ppf "%s" (Scheme.name s))

let level_conv =
  let parse s =
    match Consistency.of_string s with
    | Some level -> Ok level
    | None -> Error (`Msg (Printf.sprintf "unknown level %s (view|global)" s))
  in
  Arg.conv (parse, fun ppf l -> Format.fprintf ppf "%s" (Consistency.name l))

let scheme_arg =
  Arg.(value & opt scheme_conv Scheme.Deferred & info [ "scheme" ] ~doc:"Proof scheme: deferred, punctual, incremental, continuous.")

let level_arg =
  Arg.(value & opt level_conv Consistency.View & info [ "level" ] ~doc:"Consistency level: view or global.")

let servers_arg =
  Arg.(value & opt int 4 & info [ "servers" ] ~doc:"Number of data servers.")

let queries_arg =
  Arg.(value & opt int 4 & info [ "queries" ] ~doc:"Queries per transaction.")

let txns_arg =
  Arg.(value & opt int 30 & info [ "txns" ] ~doc:"Transactions to run.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic simulation seed.")

let update_period_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "update-period" ]
        ~doc:"Publish a (semantically neutral) policy version bump every this many simulated ms.")

let write_ratio_arg =
  Arg.(value & opt float 0.3 & info [ "write-ratio" ] ~doc:"Probability a query writes.")

let zipf_arg =
  Arg.(value & opt float 0. & info [ "zipf" ] ~doc:"Key-access skew exponent (0 = uniform).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ]
        ~doc:"Write the span trace as Chrome trace_event JSON to $(docv) (open in chrome://tracing or Perfetto)."
        ~docv:"FILE")

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ]
        ~doc:"Write the metrics registry snapshot as JSON to $(docv)." ~docv:"FILE")

let metrics_prom_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-prom" ]
        ~doc:
          "Write the metrics registry snapshot in Prometheus text exposition \
           format to $(docv)."
        ~docv:"FILE")

let journal_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal-out" ]
        ~doc:
          "Record every protocol machine step (flight recorder) to $(docv) \
           in the $(b,--journal-format) encoding; replay and verify offline \
           with $(b,cloudtx audit)."
        ~docv:"FILE")

let journal_format_conv =
  let parse s =
    match Journal.format_of_string s with
    | Some f -> Ok f
    | None ->
      Error (`Msg (Printf.sprintf "unknown journal format %s (jsonl|bin)" s))
  in
  Arg.conv (parse, fun ppf f -> Format.fprintf ppf "%s" (Journal.format_name f))

let journal_format_arg =
  Arg.(
    value
    & opt journal_format_conv Journal.Jsonl
    & info [ "journal-format" ] ~docv:"FORMAT"
        ~doc:
          "Flight-recorder journal encoding: $(b,jsonl) (self-describing \
           text, one JSON record per line) or $(b,bin) (length-prefixed \
           checksummed binary frames; smaller and faster to record).  \
           $(b,cloudtx audit), $(b,certify) and $(b,watch) auto-detect \
           either; convert between them with $(b,cloudtx journal convert).")

let monitor_arg =
  Arg.(
    value & flag
    & info [ "monitor" ]
        ~doc:
          "Run the Watchtower health monitor live: evaluate the SLO rules \
           over the protocol event stream as it happens, printing alert \
           transitions and an end-of-run health summary.")

let alerts_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "alerts-out" ]
        ~doc:"Write every alert transition as a JSONL record to $(docv)."
        ~docv:"FILE")

let metrics_interval_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "metrics-interval" ] ~docv:"MS"
        ~doc:
          "Aggregate a windowed time series live over the protocol event \
           stream: fixed $(docv)-wide windows of simulated time, each with \
           commit/abort throughput, per-phase latency sketch quantiles, \
           policy staleness and alert gauges.  Implies the in-memory flight \
           recorder.  Write the snapshot with $(b,--metrics-out); \
           $(b,cloudtx report) rebuilds the report from the journal and \
           checks the snapshot against it.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the windowed time-series snapshot (JSONL: header, one \
           record per window, totals) to $(docv).  Window width comes from \
           $(b,--metrics-interval) (default 100 ms).  Check it against the \
           journal with $(b,cloudtx report JOURNAL --metrics).")

(* The SLO rule thresholds, shared by run/trace --monitor, watch and
   health. *)
let rules_term =
  let open Slo in
  let mk stuck_ms staleness_versions staleness_ms abort_window abort_rate
      livelock_kills flap_window flap_transitions reject_window reject_count =
    {
      stuck_ms;
      staleness_versions;
      staleness_ms;
      abort_window;
      abort_rate;
      livelock_kills;
      flap_window;
      flap_transitions;
      reject_window;
      reject_count;
    }
  in
  Term.(
    const mk
    $ Arg.(
        value
        & opt float default.stuck_ms
        & info [ "stuck-ms" ]
            ~doc:
              "Fire $(b,stuck_txn) when an unfinished transaction's TM takes \
               no machine step for more than this many simulated ms.")
    $ Arg.(
        value
        & opt int default.staleness_versions
        & info [ "staleness-versions" ]
            ~doc:
              "Fire $(b,policy_staleness) when a replica lags the observed \
               master by more than this many versions.")
    $ Arg.(
        value
        & opt float default.staleness_ms
        & info [ "staleness-ms" ]
            ~doc:
              "Fire $(b,policy_staleness) when any nonzero replica lag \
               persists longer than this many simulated ms (default: \
               disabled).")
    $ Arg.(
        value
        & opt int default.abort_window
        & info [ "abort-window" ]
            ~doc:"Sliding window (finished transactions) for $(b,abort_storm).")
    $ Arg.(
        value
        & opt float default.abort_rate
        & info [ "abort-rate" ]
            ~doc:
              "Fire $(b,abort_storm) at or above this abort fraction over a \
               full window.")
    $ Arg.(
        value
        & opt int default.livelock_kills
        & info [ "livelock-kills" ]
            ~doc:
              "Fire $(b,livelock) when the same logical transaction dies as \
               a wait-die victim this many consecutive times.")
    $ Arg.(
        value
        & opt float default.flap_window
        & info [ "flap-window" ]
            ~doc:"Sliding window (simulated ms) for $(b,breaker_flap).")
    $ Arg.(
        value
        & opt int default.flap_transitions
        & info [ "flap-transitions" ]
            ~doc:
              "Fire $(b,breaker_flap) when one server's circuit breaker \
               changes state at least this many times within the window.")
    $ Arg.(
        value
        & opt float default.reject_window
        & info [ "reject-window" ]
            ~doc:"Sliding window (simulated ms) for $(b,admission_storm).")
    $ Arg.(
        value
        & opt int default.reject_count
        & info [ "reject-count" ]
            ~doc:
              "Fire $(b,admission_storm) at or above this many admission \
               rejections (bounded in-flight or breaker fail-fasts) within \
               the window."))

(* ------------------------------------------------------------------ *)
(* Observability plumbing                                              *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc =
    try open_out path
    with Sys_error msg ->
      Format.eprintf "cloudtx: cannot write %s: %s@."
        (if path = "" then "<empty path>" else path)
        msg;
      exit 1
  in
  output_string oc contents;
  if String.length contents > 0 && contents.[String.length contents - 1] <> '\n'
  then output_char oc '\n';
  close_out oc

(* Turn the sinks on before any transaction runs; spans and metrics only
   exist for what happens afterwards. *)
let enable_obs cluster ~trace_out ~metrics_json ~metrics_prom ~journal_out
    ~journal_format =
  let transport = Cluster.transport cluster in
  if trace_out <> None then ignore (Transport.enable_tracing transport);
  if metrics_json <> None || metrics_prom <> None then
    ignore (Transport.enable_metrics transport);
  Option.iter
    (fun path ->
      ignore (Transport.enable_journal ~format:journal_format ~path transport))
    journal_out

(* A monitor without --journal-out still needs the event stream, so it
   enables an in-memory journal — capped, so long runs cannot grow memory
   unboundedly (evictions land in the [journal.dropped] counter; the
   monitor taps records before eviction, so it misses nothing). *)
let monitor_buffer_cap = 4 * 1024 * 1024

let alerts_sink = function
  | None -> (None, fun () -> ())
  | Some path ->
    let oc =
      try open_out path
      with Sys_error msg ->
        Format.eprintf "cloudtx: cannot write %s: %s@." path msg;
        exit 1
    in
    output_string oc Slo.log_header;
    output_char oc '\n';
    let log line =
      output_string oc line;
      output_char oc '\n'
    in
    (Some log, fun () -> close_out oc)

(* One Health bridge per journal: the monitor and the windowed time
   series share one attach (the bridge feeds the monitor first, then
   the timeseries, per record); further consumers — the blame collector
   — attach too and receive the same decoded record. *)
type live_monitor = {
  lm_monitor : Monitor.t;
  lm_timeseries : Timeseries.t option;
  lm_chatty : bool;  (** print alert lines / the health summary *)
  lm_close : unit -> unit;
}

(* Call after {!enable_obs} (the monitor snapshots the transport's
   registry, and reuses a --journal-out journal when one exists). *)
let enable_monitor cluster ~monitor ~alerts_out ~rules ~journal_format
    ~metrics_interval ~metrics_out =
  let want_ts = metrics_interval <> None || metrics_out <> None in
  if (not monitor) && alerts_out = None && not want_ts then None
  else begin
    let transport = Cluster.transport cluster in
    let journal =
      Transport.enable_journal ~format:journal_format
        ~max_buffer_bytes:monitor_buffer_cap transport
    in
    let ts =
      if want_ts then
        Some (Transport.enable_timeseries ?width_ms:metrics_interval transport)
      else None
    in
    let log, close_log = alerts_sink alerts_out in
    let chatty = monitor || alerts_out <> None in
    let m =
      Monitor.create ~rules
        ~registry:(Transport.registry transport)
        ?log
        ~console:(if chatty then print_endline else ignore)
        ?notify:(Option.map Timeseries.note_alert ts)
        ()
    in
    ignore (Health.attach ?timeseries:ts journal m);
    Some { lm_monitor = m; lm_timeseries = ts; lm_chatty = chatty;
           lm_close = close_log }
  end

let monitor_summary (m : Monitor.t) =
  let open_alerts = Monitor.open_alerts m in
  Format.printf "health    : %d alert(s) fired, %d open@."
    (Monitor.fired_total m)
    (List.length open_alerts);
  List.iter
    (fun a -> Format.printf "  open: %s@." (Slo.console_line `Fire a))
    open_alerts;
  (match Monitor.staleness_peak m with
  | [] -> ()
  | peaks ->
    List.iter
      (fun (node, (versions, domain)) ->
        Format.printf "  staleness peak: %s lagged %d version(s) on %s@." node
          versions domain)
      peaks)

let finish_monitor ?metrics_out = function
  | None -> ()
  | Some lm ->
    if lm.lm_chatty then monitor_summary lm.lm_monitor;
    (match (metrics_out, lm.lm_timeseries) with
    | Some path, Some ts ->
      let report = Report.of_timeseries ts in
      write_file path (Report.to_snapshot report);
      Format.printf "wrote %s (windowed metrics, %d window(s))@." path
        (List.length report.Report.windows)
    | _ -> ());
    lm.lm_close ()

let dump_obs cluster ~trace_out ~metrics_json ~metrics_prom ~journal_out =
  let transport = Cluster.transport cluster in
  Option.iter
    (fun path ->
      write_file path (Export.to_chrome (Transport.tracer transport));
      Format.printf "wrote %s (%d spans, Chrome trace_event JSON)@." path
        (Tracer.length (Transport.tracer transport)))
    trace_out;
  Option.iter
    (fun path ->
      write_file path (Registry.to_json (Transport.registry transport));
      Format.printf "wrote %s (metrics snapshot)@." path)
    metrics_json;
  Option.iter
    (fun path ->
      write_file path (Registry.to_prometheus (Transport.registry transport));
      Format.printf "wrote %s (metrics snapshot, Prometheus text format)@." path)
    metrics_prom;
  Option.iter
    (fun path ->
      let journal = Transport.journal transport in
      Journal.close journal;
      Format.printf "wrote %s (flight-recorder journal, %s, %d records)@." path
        (Journal.format_name (Journal.format journal))
        (Journal.length journal))
    journal_out

(* End-of-run summary off the registry: outcome counts, resource totals,
   phase percentiles, and the paper's worst-case analytic predictions for
   the same (scheme, level, n, u) — the measured means must sit at or
   below them (Table I is a worst case; see also `cloudtx table1`). *)
let obs_summary reg ~scheme ~level ~servers ~queries ~txns =
  let labels =
    [ ("scheme", Scheme.name scheme); ("consistency", Consistency.name level) ]
  in
  let commits = Registry.counter reg "txn_total" (("outcome", "commit") :: labels) in
  let aborts = Registry.counter reg "txn_total" (("outcome", "abort") :: labels) in
  let messages = Registry.counter_total reg "messages_total" in
  (* Query execution traffic is not part of Table I's message
     complexity. *)
  let protocol_messages = Table1.protocol_messages reg in
  let proofs = Registry.counter_total reg "proofs_total" in
  let forces = Registry.counter_total reg "log_force_total" in
  Format.printf "observability summary@.";
  Format.printf "  txns      : %d commit / %d abort@." commits aborts;
  Format.printf
    "  totals    : %d messages (%d protocol), %d proofs, %d forced log writes@."
    messages protocol_messages proofs forces;
  let phase_rows =
    List.filter_map
      (fun (label, metric) ->
        match Registry.histogram reg metric labels with
        | None -> None
        | Some h ->
          Some
            [
              label;
              string_of_int (Sketch.count h);
              Printf.sprintf "%.2f" (Sketch.percentile h 50.);
              Printf.sprintf "%.2f" (Sketch.percentile h 95.);
              Printf.sprintf "%.2f" (Sketch.percentile h 99.);
            ])
      [
        ("execute", "phase_execute_ms");
        ("commit", "phase_commit_ms");
        ("decide", "phase_decide_ms");
        ("end-to-end", "txn_latency_ms");
      ]
  in
  if phase_rows <> [] then
    Table.print
      ~title:
        (Printf.sprintf "phase latency (ms), %s/%s" (Scheme.name scheme)
           (Consistency.name level))
      ~headers:[ "phase"; "count"; "p50"; "p95"; "p99" ]
      phase_rows;
  (* Worst case assumes every query lands on a distinct server. *)
  let n = min servers queries and u = queries in
  let analytic_msgs = Complexity.messages scheme level ~n ~u ~r:1 in
  let analytic_proofs = Complexity.proofs scheme level ~n ~u ~r:1 in
  Format.printf
    "  analytic  : <= %d msgs/txn, <= %d proofs/txn at n=%d u=%d r=1@."
    analytic_msgs analytic_proofs n u;
  Format.printf "  Table I   : %s msgs, %s proofs (worst-case r)@."
    (Complexity.formula scheme level `Messages)
    (Complexity.formula scheme level `Proofs);
  if txns > 0 then
    Format.printf "  measured  : %.1f protocol msgs/txn, %.1f proofs/txn@."
      (float_of_int protocol_messages /. float_of_int txns)
      (float_of_int proofs /. float_of_int txns)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_cmd verbose scheme level servers queries txns seed update_period
    write_ratio zipf trace_out metrics_json metrics_prom journal_out
    journal_format monitor alerts_out metrics_interval metrics_out rules =
  setup_logs verbose;
  let scenario =
    Scenario.retail ~seed:(Int64.of_int seed) ~n_servers:servers ~n_subjects:4 ()
  in
  enable_obs scenario.Scenario.cluster ~trace_out ~metrics_json ~metrics_prom
    ~journal_out ~journal_format;
  let mon =
    enable_monitor scenario.Scenario.cluster ~monitor ~alerts_out ~rules
      ~journal_format ~metrics_interval ~metrics_out
  in
  (match update_period with
  | Some period when period > 0. ->
    Churn.policy_refresh scenario ~period ~propagation:(0.5, 8.) ~count:5000
  | Some _ | None -> ());
  let rng = Splitmix.create (Int64.of_int (seed + 1)) in
  let params =
    { Generator.default with queries_per_txn = queries; write_ratio; zipf_s = zipf }
  in
  let stats =
    Experiment.run_sequential scenario (Manager.config scheme level) ~n:txns
      (fun ~i -> Generator.generate scenario rng params ~id:(Printf.sprintf "t%d" i))
  in
  Format.printf "scheme=%s level=%s servers=%d queries=%d txns=%d@."
    (Scheme.name scheme) (Consistency.name level) servers queries txns;
  Format.printf "  committed : %d (%.0f%%)@." stats.Experiment.committed
    (100. *. Experiment.commit_ratio stats);
  Format.printf "  aborted   : %d@." stats.Experiment.aborted;
  if stats.Experiment.aborted > 0 then begin
    let reasons = Hashtbl.create 4 in
    List.iter
      (fun (o : Outcome.t) ->
        if not o.Outcome.committed then begin
          let key = Outcome.reason_name o.Outcome.reason in
          Hashtbl.replace reasons key (1 + Option.value ~default:0 (Hashtbl.find_opt reasons key))
        end)
      stats.Experiment.outcomes;
    Hashtbl.iter (fun k v -> Format.printf "    %-22s %d@." k v) reasons
  end;
  Format.printf "  latency   : mean %.2fms  p50 %.2f  p95 %.2f  max %.2f@."
    (Sample_set.mean stats.Experiment.latency_ms)
    (Sample_set.median stats.Experiment.latency_ms)
    (Sample_set.percentile stats.Experiment.latency_ms 95.)
    (Sample_set.max stats.Experiment.latency_ms);
  Format.printf "  proofs    : mean %.1f per txn@."
    (Running_stats.mean stats.Experiment.proofs);
  Format.printf "  messages  : mean %.1f per txn (protocol accounting)@."
    (Running_stats.mean stats.Experiment.protocol_messages);
  (* The run turned the registry on for its message counts; the summary
     is for runs that asked for metrics. *)
  if metrics_json <> None || metrics_prom <> None then
    obs_summary
      (Transport.registry (Cluster.transport scenario.Scenario.cluster))
      ~scheme ~level ~servers ~queries ~txns;
  finish_monitor ?metrics_out mon;
  dump_obs scenario.Scenario.cluster ~trace_out ~metrics_json ~metrics_prom
    ~journal_out

let run_term =
  Term.(
    const run_cmd $ verbose_arg $ scheme_arg $ level_arg $ servers_arg
    $ queries_arg $ txns_arg $ seed_arg $ update_period_arg $ write_ratio_arg
    $ zipf_arg $ trace_out_arg $ metrics_json_arg $ metrics_prom_arg
    $ journal_out_arg $ journal_format_arg $ monitor_arg $ alerts_out_arg
    $ metrics_interval_arg $ metrics_out_arg $ rules_term)

(* ------------------------------------------------------------------ *)
(* table1                                                              *)
(* ------------------------------------------------------------------ *)

let table1_cmd n u =
  Table.print
    ~title:(Printf.sprintf "Table I (n=%d, u=%d): analytic vs measured" n u)
    ~headers:
      [
        "scheme"; "level"; "staleness"; "msgs formula"; "analytic"; "measured";
        "proofs formula"; "analytic"; "measured";
      ]
    (Cloudtx_workload.Table1.matrix_rows ~n ~u)

let table1_term =
  Term.(
    const table1_cmd
    $ Arg.(value & opt int 4 & info [ "n" ] ~doc:"Participants.")
    $ Arg.(value & opt int 4 & info [ "u" ] ~doc:"Queries."))

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd verbose scheme level servers queries format trace_out metrics_json
    metrics_prom journal_out journal_format monitor alerts_out metrics_interval
    metrics_out rules =
  setup_logs verbose;
  let scenario =
    Scenario.retail ~latency:(Latency.Constant 1.) ~n_servers:servers
      ~n_subjects:1 ()
  in
  let cluster = scenario.Scenario.cluster in
  enable_obs cluster ~trace_out ~metrics_json ~metrics_prom ~journal_out
    ~journal_format;
  let mon =
    enable_monitor cluster ~monitor ~alerts_out ~rules ~journal_format
      ~metrics_interval ~metrics_out
  in
  let tracer = Transport.enable_tracing (Cluster.transport cluster) in
  let txn =
    Scenario.spread_transaction scenario ~id:"t1" ~subject:"clerk-1" ~queries ()
  in
  let outcome = Manager.run_one cluster (Manager.config scheme level) txn in
  let trace = Trace.of_tracer tracer in
  (match format with
  | "text" ->
    Format.printf "%a@.@." Outcome.pp outcome;
    print_string (Trace.to_string trace)
  | "mermaid" -> print_string (Trace.to_mermaid trace)
  | "csv" -> print_string (Trace.to_csv trace)
  | "jsonl" -> print_string (Trace.to_jsonl trace)
  | other ->
    Printf.eprintf "unknown format %s (text|mermaid|csv|jsonl)\n" other;
    exit 2);
  finish_monitor ?metrics_out mon;
  dump_obs cluster ~trace_out ~metrics_json ~metrics_prom ~journal_out

let format_arg =
  Arg.(
    value
    & opt string "text"
    & info [ "format" ] ~doc:"Trace output format: text, mermaid, csv or jsonl.")

let trace_term =
  Term.(
    const trace_cmd $ verbose_arg $ scheme_arg $ level_arg $ servers_arg
    $ queries_arg $ format_arg $ trace_out_arg $ metrics_json_arg
    $ metrics_prom_arg $ journal_out_arg $ journal_format_arg $ monitor_arg
    $ alerts_out_arg $ metrics_interval_arg $ metrics_out_arg $ rules_term)

(* ------------------------------------------------------------------ *)
(* audit                                                               *)
(* ------------------------------------------------------------------ *)

let audit_cmd path =
  match Audit.of_file path with
  | Ok report ->
    Format.printf "%s: journal verified, zero divergences@." path;
    Format.printf "  %s@." (Audit.report_to_string report)
  | Error why ->
    Format.eprintf "%s: AUDIT FAILED@.  %s@." path why;
    exit 1

let audit_term =
  Term.(
    const audit_cmd
    $ Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"JOURNAL"
            ~doc:
              "Flight-recorder journal written by $(b,--journal-out) (JSONL \
               or binary, auto-detected); replayed through fresh protocol \
               machines and checked for conformance, atomic commitment \
               (AC1-AC3), prepare-before-commit and trusted-transaction \
               soundness."))

(* ------------------------------------------------------------------ *)
(* certify: journal-driven serializability certification               *)
(* ------------------------------------------------------------------ *)

(* Best-effort replays (certify, watch) skip records they cannot decode;
   they say how many, so a damaged journal is never silently accepted. *)
let print_skipped n =
  if n > 0 then Format.printf "  %d undecodable record(s) skipped@." n

let certify_cmd path dot_out json_out =
  match Certify.of_file path with
  | Error why ->
    Format.eprintf "%s: CERTIFY UNREADABLE@.  %s@." path why;
    exit 2
  | Ok report ->
    let export () =
      let dsg = Certify.to_dsg report in
      Option.iter
        (fun p ->
          write_file p (Dsg.to_dot ~name:"history" dsg);
          Format.printf "  wrote %s (DSG, Graphviz DOT)@." p)
        dot_out;
      Option.iter
        (fun p ->
          write_file p (Dsg.to_json dsg);
          Format.printf "  wrote %s (DSG, JSON)@." p)
        json_out
    in
    (match report.Certify.verdict with
    | Certify.Serializable _ ->
      Format.printf "%s: history certified@.  %s@." path
        (Certify.summary report);
      print_skipped report.Certify.decode_errors;
      export ()
    | Certify.Anomalous a ->
      Format.printf "%s: NOT SERIALIZABLE@.  %s@.  %s@." path
        (Certify.summary report)
        (Certify.describe_anomaly a);
      print_skipped report.Certify.decode_errors;
      export ();
      exit 1)

let certify_term =
  Term.(
    const certify_cmd
    $ Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"JOURNAL"
            ~doc:
              "Flight-recorder journal written by $(b,--journal-out) (JSONL \
               or binary, auto-detected); the committed transactions' \
               read/write history is extracted and checked for \
               serializability.  Exit 0: certified, with a witness serial \
               order; exit 1: a named anomaly with journal seq evidence; \
               exit 2: unreadable journal.")
    $ Arg.(
        value & opt (some string) None
        & info [ "dot" ] ~docv:"FILE"
            ~doc:
              "Write the direct serialization graph as Graphviz DOT \
               (anomaly cycles highlighted in red).")
    $ Arg.(
        value & opt (some string) None
        & info [ "json" ] ~docv:"FILE"
            ~doc:"Write the direct serialization graph as JSON."))

(* ------------------------------------------------------------------ *)
(* watch                                                               *)
(* ------------------------------------------------------------------ *)

let watch_cmd path rules alerts_out =
  let log, close_log = alerts_sink alerts_out in
  let monitor = Monitor.create ~rules ?log ~console:print_endline () in
  let health = Health.create monitor in
  match
    Journal_io.fold_file path ~init:(fun _ -> 0) (fun n r ->
        Health.step health r;
        n + 1)
  with
  | Error why ->
    Format.eprintf "%s: cannot watch journal@.  %s@." path why;
    exit 2
  | Ok records ->
    let open_alerts = Monitor.open_alerts monitor in
    Format.printf "%s: %d record(s) replayed, %d alert(s) fired, %d open@."
      path records
      (Monitor.fired_total monitor)
      (List.length open_alerts);
    print_skipped (Health.decode_errors health);
    monitor_summary monitor;
    close_log ();
    if Monitor.unresolved_critical monitor > 0 then exit 1

let watch_term =
  Term.(
    const watch_cmd
    $ Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"JOURNAL"
            ~doc:
              "Flight-recorder journal written by $(b,--journal-out) (JSONL \
               or binary, auto-detected); replayed through the Watchtower \
               health monitor in journal order, streaming alert transitions \
               as they fire.  Exits non-zero when critical alerts remain \
               unresolved at the end of the journal.")
    $ rules_term $ alerts_out_arg)

(* ------------------------------------------------------------------ *)
(* report: journal -> flight-deck report, checked against a snapshot   *)
(* ------------------------------------------------------------------ *)

let report_cmd journal metrics window rules json_out md_out =
  let report, monitor =
    match Report_io.of_journal ~rules ?width_ms:window journal with
    | Ok pair -> pair
    | Error why ->
      Format.eprintf "%s: cannot build report@.  %s@." journal why;
      exit 2
  in
  (* The consistency gate: the live snapshot must be, byte for byte, the
     snapshot of the offline replay — same windows, same counts, same
     sketch quantiles — or the flight deck cannot be trusted.  The file
     is compared, never interpreted; a snapshot is a header, one line per
     window and a totals line. *)
  Option.iter
    (fun path ->
      let snapshot =
        match In_channel.with_open_bin path In_channel.input_all with
        | contents -> contents
        | exception Sys_error why ->
          Format.eprintf "%s: cannot read metrics snapshot@.  %s@." path why;
          exit 2
      in
      let windows = List.length report.Report.windows in
      if not (String.equal snapshot (Report.to_snapshot report)) then begin
        let lines =
          String.split_on_char '\n' snapshot
          |> List.filter (fun l -> String.trim l <> "")
        in
        Format.eprintf
          "report: online/offline DIVERGENCE@.  journal replay and metrics \
           snapshot disagree (%d vs %d window(s))@."
          windows
          (Stdlib.max 0 (List.length lines - 2));
        exit 2
      end;
      Format.printf "online/offline reports agree (%d window(s))@." windows)
    metrics;
  let alert_lines = Report_io.alert_lines_of_monitor monitor in
  (* The blame decomposition (DESIGN §9) rides on the markdown view
     only, so the snapshot gate above stays a pure function of the
     windowed series. *)
  let blame_lines =
    match Blame.of_file journal with
    | Ok b -> Blame.to_markdown_lines b
    | Error why ->
      Format.eprintf "%s: cannot build blame section@.  %s@." journal why;
      exit 2
  in
  let json () = Report.to_json report in
  let md () = Report.to_markdown ~alert_lines ~blame_lines report in
  Option.iter
    (fun path ->
      write_file path (json ());
      Format.printf "wrote %s (report, JSON)@." path)
    json_out;
  Option.iter
    (fun path ->
      write_file path (md ());
      Format.printf "wrote %s (report, markdown)@." path)
    md_out;
  if json_out = None && md_out = None then print_string (md ())

let report_term =
  Term.(
    const report_cmd
    $ Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"JOURNAL"
            ~doc:
              "Flight-recorder journal written by $(b,--journal-out) (JSONL \
               or binary, auto-detected); replayed through the Watchtower \
               and the windowed time series to build the report.")
    $ Arg.(
        value
        & opt (some file) None
        & info [ "metrics" ] ~docv:"SNAPSHOT"
            ~doc:
              "Windowed metrics snapshot written by $(b,--metrics-out); the \
               live path's artifact.  It must equal, byte for byte, the \
               snapshot of the $(i,JOURNAL) replay — exit 2 on divergence, \
               a damaged or foreign file included.")
    $ Arg.(
        value
        & opt (some float) None
        & info [ "window" ] ~docv:"MS"
            ~doc:
              "Window width for journal replay (default 100 ms).  With \
               $(b,--metrics), this must match the width the snapshot was \
               written with ($(b,--metrics-interval)) or the two diverge.")
    $ rules_term
    $ Arg.(
        value
        & opt (some string) None
        & info [ "json" ] ~docv:"FILE"
            ~doc:"Write the report as JSON to $(docv).")
    $ Arg.(
        value
        & opt (some string) None
        & info [ "md" ] ~docv:"FILE"
            ~doc:
              "Write the report as markdown to $(docv).  With neither \
               $(b,--json) nor $(b,--md), markdown goes to stdout."))

(* ------------------------------------------------------------------ *)
(* explain / blame: the latency blame engine (DESIGN §9)               *)
(* ------------------------------------------------------------------ *)

(* Exit-code convention (documented once in README): 0 = ok, 1 =
   analysis violation (a timeline fails to cover the end-to-end latency
   within the documented slack, or the requested transaction is
   missing), 2 = unreadable/undecodable journal — the error names the
   first bad frame or line. *)

let check_coverage what b =
  match Blame.uncovered b with
  | [] -> ()
  | bad ->
    let worst = List.hd bad in
    Format.eprintf
      "%s: COVERAGE VIOLATION@.  %d timeline(s) fail to cover end-to-end \
       latency; worst: txn %s slack %.9f ms (bound %.9f ms)@."
      what (List.length bad) worst.Critical_path.txn
      (Critical_path.coverage_slack_ms worst)
      (Critical_path.slack_bound_ms worst);
    exit 1

let explain_cmd path txn json =
  match Blame.of_file ~keep_timelines:true path with
  | Error why ->
    Format.eprintf "%s: cannot explain journal@.  %s@." path why;
    exit 2
  | Ok b ->
    let tl =
      match txn with
      | Some id -> (
        match Blame.find b ~txn:id with
        | Some tl -> tl
        | None ->
          Format.eprintf "%s: transaction %S not found (%d finished)@." path
            id (Blame.finished b);
          exit 1)
      | None -> (
        match Blame.slowest b with
        | Some tl -> tl
        | None ->
          Format.eprintf "%s: no finished transactions to explain@." path;
          exit 1)
    in
    if json then print_endline (Critical_path.timeline_to_json tl)
    else List.iter print_endline (Critical_path.timeline_to_text tl);
    check_coverage "explain" b

let explain_term =
  Term.(
    const explain_cmd
    $ Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"JOURNAL"
            ~doc:
              "Flight-recorder journal written by $(b,--journal-out) (JSONL \
               or binary, auto-detected); replayed into per-transaction \
               critical-path timelines.")
    $ Arg.(
        value
        & opt (some string) None
        & info [ "txn" ] ~docv:"ID"
            ~doc:
              "Transaction to explain.  Default: the slowest finished \
               transaction in the journal.")
    $ Arg.(
        value & flag
        & info [ "json" ]
            ~doc:"Print the timeline as JSON instead of the text rendering."))

let blame_cmd path top json_out md_out =
  match Blame.of_file ~top_k:top path with
  | Error why ->
    Format.eprintf "%s: cannot build blame profile@.  %s@." path why;
    exit 2
  | Ok b ->
    Option.iter
      (fun p ->
        write_file p (Blame.to_json b);
        Format.printf "wrote %s (blame, JSON)@." p)
      json_out;
    let md () = String.concat "\n" (Blame.to_markdown_lines b) ^ "\n" in
    Option.iter
      (fun p ->
        write_file p (md ());
        Format.printf "wrote %s (blame, markdown)@." p)
      md_out;
    if json_out = None && md_out = None then print_string (md ());
    check_coverage "blame" b

let blame_term =
  Term.(
    const blame_cmd
    $ Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"JOURNAL"
            ~doc:
              "Flight-recorder journal written by $(b,--journal-out) (JSONL \
               or binary, auto-detected); aggregated into per-cell blame \
               tables (mean/p50/p99 time-in-segment) and the top-k slowest \
               transactions.")
    $ Arg.(
        value & opt int 5
        & info [ "top" ] ~docv:"K"
            ~doc:"Slowest transactions to keep with full timelines.")
    $ Arg.(
        value
        & opt (some string) None
        & info [ "json" ] ~docv:"FILE"
            ~doc:"Write the blame profile as JSON to $(docv).")
    $ Arg.(
        value
        & opt (some string) None
        & info [ "md" ] ~docv:"FILE"
            ~doc:
              "Write the blame profile as markdown to $(docv).  With \
               neither $(b,--json) nor $(b,--md), markdown goes to \
               stdout."))

(* ------------------------------------------------------------------ *)
(* health                                                              *)
(* ------------------------------------------------------------------ *)

let health_cmd verbose servers queries txns seed update_period rules alerts_out
    metrics_prom json_out =
  setup_logs verbose;
  let scenario =
    Scenario.retail ~seed:(Int64.of_int seed) ~n_servers:servers ~n_subjects:4 ()
  in
  let cluster = scenario.Scenario.cluster in
  let transport = Cluster.transport cluster in
  let registry = Transport.enable_metrics transport in
  let journal =
    Transport.enable_journal ~max_buffer_bytes:monitor_buffer_cap transport
  in
  let log, close_log = alerts_sink alerts_out in
  let monitor =
    Monitor.create ~rules ~registry ?log ~console:print_endline ()
  in
  ignore (Health.attach journal monitor);
  (match update_period with
  | Some period when period > 0. ->
    Churn.policy_refresh scenario ~period ~propagation:(0.5, 8.) ~count:5000
  | Some _ | None -> ());
  let rng = Splitmix.create (Int64.of_int (seed + 1)) in
  let params = { Generator.default with queries_per_txn = queries } in
  (* One scenario, all eight scheme x level cells, so the snapshot covers
     the full grid off a single registry and a single monitor. *)
  List.iter
    (fun scheme ->
      List.iter
        (fun level ->
          let cell =
            Printf.sprintf "%s-%s" (Scheme.name scheme) (Consistency.name level)
          in
          ignore
            (Experiment.run_sequential scenario (Manager.config scheme level)
               ~n:txns (fun ~i ->
                 Generator.generate scenario rng params
                   ~id:(Printf.sprintf "%s-t%d" cell i))))
        [ Consistency.View; Consistency.Global ])
    Scheme.all;
  (* Per-cell phase percentiles (Section VI-B: the scheme choice follows
     from exactly these distributions).  One numeric row per cell x phase
     feeds both the console table and --json. *)
  let phase_cells =
    List.concat_map
      (fun scheme ->
        List.concat_map
          (fun level ->
            let labels =
              [
                ("scheme", Scheme.name scheme);
                ("consistency", Consistency.name level);
              ]
            in
            List.filter_map
              (fun (phase, metric) ->
                match Registry.histogram registry metric labels with
                | None -> None
                | Some h ->
                  Some
                    ( Scheme.name scheme,
                      Consistency.name level,
                      phase,
                      Sketch.count h,
                      Sketch.percentile h 50.,
                      Sketch.percentile h 99. ))
              [
                ("execute", "phase_execute_ms");
                ("commit", "phase_commit_ms");
                ("decide", "phase_decide_ms");
                ("end-to-end", "txn_latency_ms");
              ])
          [ Consistency.View; Consistency.Global ])
      Scheme.all
  in
  let phase_rows =
    List.map
      (fun (scheme, level, phase, count, p50, p99) ->
        [
          scheme; level; phase;
          string_of_int count;
          Printf.sprintf "%.2f" p50;
          Printf.sprintf "%.2f" p99;
        ])
      phase_cells
  in
  Table.print
    ~title:
      (Printf.sprintf "per-phase latency (ms), %d txns/cell, u=%d, n=%d" txns
         queries servers)
    ~headers:[ "scheme"; "level"; "phase"; "count"; "p50"; "p99" ]
    phase_rows;
  Format.printf "per-node health@.";
  let peaks = Monitor.staleness_peak monitor in
  let nodes =
    List.map Cloudtx_core.Participant.name (Cluster.participants cluster)
  in
  List.iter
    (fun server ->
      match List.assoc_opt server peaks with
      | Some (versions, domain) ->
        Format.printf "  %-12s worst staleness %d version(s) on %s@." server
          versions domain
      | None -> Format.printf "  %-12s worst staleness 0 versions@." server)
    nodes;
  (* Certify the whole grid's history off the capped in-memory journal:
     the snapshot's fourth line of defence after metrics/staleness/alerts. *)
  let certified =
    Result.bind
      (Journal_io.of_contents (Journal.to_string journal))
      (fun loaded -> Certify.run ~lines:loaded.Journal_io.lines)
  in
  (match certified with
  | Ok report -> Format.printf "certify   : %s@." (Certify.summary report)
  | Error why -> Format.printf "certify   : unreadable (%s)@." why);
  let open_alerts = Monitor.open_alerts monitor in
  Format.printf "alerts    : %d fired, %d open@."
    (Monitor.fired_total monitor)
    (List.length open_alerts);
  List.iter
    (fun a -> Format.printf "  open: %s@." (Slo.console_line `Fire a))
    open_alerts;
  Option.iter
    (fun path ->
      write_file path (Registry.to_prometheus registry);
      Format.printf "wrote %s (metrics snapshot, Prometheus text format)@." path)
    metrics_prom;
  (* --json: the same snapshot, machine-readable — every console row has
     a field here, so CI can gate on the numbers it reads. *)
  Option.iter
    (fun path ->
      let phases =
        phase_cells
        |> List.map (fun (scheme, level, phase, count, p50, p99) ->
               Json.obj
                 [
                   ("scheme", Json.quote scheme);
                   ("level", Json.quote level);
                   ("phase", Json.quote phase);
                   ("count", string_of_int count);
                   ("p50", Json.number p50);
                   ("p99", Json.number p99);
                 ])
        |> String.concat ","
      in
      let staleness =
        nodes
        |> List.map (fun server ->
               let versions, domain =
                 match List.assoc_opt server peaks with
                 | Some (versions, domain) -> (versions, Json.quote domain)
                 | None -> (0, "null")
               in
               Json.obj
                 [
                   ("node", Json.quote server);
                   ("versions", string_of_int versions);
                   ("domain", domain);
                 ])
        |> String.concat ","
      in
      let certify =
        match certified with
        | Ok report ->
          Json.obj
            [
              ("ok", "true"); ("summary", Json.quote (Certify.summary report));
            ]
        | Error why ->
          Json.obj [ ("ok", "false"); ("summary", Json.quote why) ]
      in
      let alerts =
        Json.obj
          [
            ("fired", string_of_int (Monitor.fired_total monitor));
            ( "open",
              "["
              ^ String.concat ","
                  (List.map (fun a -> Slo.log_line `Fire a) open_alerts)
              ^ "]" );
          ]
      in
      let doc =
        Json.obj
          [
            ("health", Json.quote "cloudtx");
            ("version", "1");
            ("servers", string_of_int servers);
            ("queries", string_of_int queries);
            ("txns_per_cell", string_of_int txns);
            ("phases", "[" ^ phases ^ "]");
            ("staleness", "[" ^ staleness ^ "]");
            ("certify", certify);
            ("alerts", alerts);
          ]
      in
      write_file path doc;
      Format.printf "wrote %s (health snapshot, JSON)@." path)
    json_out;
  close_log ();
  if Monitor.unresolved_critical monitor > 0 then exit 1

let health_term =
  Term.(
    const health_cmd $ verbose_arg $ servers_arg $ queries_arg
    $ Arg.(value & opt int 10 & info [ "txns" ] ~doc:"Transactions per cell.")
    $ seed_arg $ update_period_arg $ rules_term $ alerts_out_arg
    $ metrics_prom_arg
    $ Arg.(
        value
        & opt (some string) None
        & info [ "json" ] ~docv:"FILE"
            ~doc:
              "Write the health snapshot as a JSON document to $(docv): the \
               per-cell phase percentiles, per-node staleness peaks, the \
               certify verdict and the alert summary — every console row, \
               machine-readable."))

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let sweep_cmd level txns =
  List.iter
    (fun (label, queries, period) ->
      let rows =
        List.map
          (fun scheme ->
            let scenario = Scenario.retail ~seed:11L ~n_servers:6 ~n_subjects:4 () in
            (match period with
            | Some p -> Churn.policy_refresh scenario ~period:p ~propagation:(0.5, 8.) ~count:5000
            | None -> ());
            let rng = Splitmix.create 77L in
            let params =
              { Generator.default with queries_per_txn = queries; write_ratio = 0.3 }
            in
            let stats =
              Experiment.run_sequential scenario (Manager.config scheme level)
                ~n:txns
                (fun ~i ->
                  Generator.generate scenario rng params ~id:(Printf.sprintf "t%d" i))
            in
            [
              Scheme.name scheme;
              Printf.sprintf "%.0f%%" (100. *. Experiment.commit_ratio stats);
              Printf.sprintf "%.2f" (Sample_set.mean stats.Experiment.latency_ms);
              Printf.sprintf "%.1f" (Running_stats.mean stats.Experiment.proofs);
              Printf.sprintf "%.1f" (Running_stats.mean stats.Experiment.protocol_messages);
            ])
          Scheme.all
      in
      Table.print
        ~title:
          (Printf.sprintf "%s (u=%d, update period %s, %s consistency)" label
             queries
             (match period with Some p -> Printf.sprintf "%.0fms" p | None -> "none")
             (Consistency.name level))
        ~headers:[ "scheme"; "commit"; "lat ms"; "proofs"; "messages" ]
        rows)
    [
      ("short txns / rare updates", 3, Some 400.);
      ("long txns / rare updates", 10, Some 400.);
      ("short txns / frequent updates", 3, Some 8.);
      ("long txns / frequent updates", 10, Some 8.);
    ]

let sweep_term = Term.(const sweep_cmd $ level_arg $ txns_arg)

(* ------------------------------------------------------------------ *)
(* bank                                                                *)
(* ------------------------------------------------------------------ *)

let bank_cmd scheme level txns overdraft seed =
  let module Banking = Cloudtx_workload.Banking in
  let bank = Banking.build ~seed:(Int64.of_int seed) () in
  let rng = Splitmix.create (Int64.of_int (seed + 1)) in
  let committed = ref 0 in
  let integrity = ref 0 and proof = ref 0 and other = ref 0 in
  let before = Banking.total_funds bank in
  for i = 1 to txns do
    let txn =
      Banking.random_transfer bank rng ~id:(Printf.sprintf "t%d" i)
        ~overdraft_ratio:overdraft
    in
    let o =
      Manager.run_one bank.Banking.cluster (Manager.config scheme level) txn
    in
    if o.Outcome.committed then incr committed
    else
      match o.Outcome.reason with
      | Outcome.Integrity_violation -> incr integrity
      | Outcome.Proof_failure -> incr proof
      | _ -> incr other
  done;
  Format.printf "banking: %d transfers under %s/%s@." txns (Scheme.name scheme)
    (Consistency.name level);
  Format.printf "  committed            : %d@." !committed;
  Format.printf "  integrity aborts     : %d (overdrafts)@." !integrity;
  Format.printf "  authorization aborts : %d@." !proof;
  Format.printf "  other aborts         : %d@." !other;
  Format.printf "  funds: %d -> %d (%s)@." before (Banking.total_funds bank)
    (if before = Banking.total_funds bank then "conserved" else "VIOLATED!")

let bank_term =
  Term.(
    const bank_cmd $ scheme_arg $ level_arg
    $ Arg.(value & opt int 50 & info [ "txns" ] ~doc:"Transfers to run.")
    $ Arg.(value & opt float 0.25 & info [ "overdraft" ] ~doc:"Overdraft probability.")
    $ seed_arg)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

(* Parse "pred(a,b,c)" into a ground fact. *)
let parse_fact s =
  match String.index_opt s '(' with
  | Some i when String.length s > 0 && s.[String.length s - 1] = ')' ->
    let pred = String.sub s 0 i in
    let inner = String.sub s (i + 1) (String.length s - i - 2) in
    let args =
      List.map String.trim (String.split_on_char ',' inner)
      |> List.filter (fun a -> a <> "")
    in
    Cloudtx_policy.Rule.fact pred args
  | _ -> failwith (Printf.sprintf "bad fact %S (expected pred(a,b))" s)

let analyze_cmd old_file new_file subjects actions items facts =
  let module Codec = Cloudtx_policy.Codec in
  let module Analysis = Cloudtx_policy.Analysis in
  let read_policy path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let contents = really_input_string ic n in
    close_in ic;
    (* .json files use the wire codec; anything else is Datalog text. *)
    let result =
      if Filename.check_suffix path ".json" then Codec.policy_of_string contents
      else
        Result.map
          (fun rules -> Cloudtx_policy.Policy.create ~domain:(Filename.basename path) rules)
          (Cloudtx_policy.Datalog.parse_program contents)
    in
    match result with
    | Ok p -> p
    | Error m ->
      Printf.eprintf "%s: %s\n" path m;
      exit 1
  in
  let old_p = read_policy old_file and new_p = read_policy new_file in
  let split arg = String.split_on_char ',' arg |> List.filter (fun s -> s <> "") in
  let base_facts = List.map parse_fact facts in
  let probes =
    Analysis.probe_space ~subjects:(split subjects) ~actions:(split actions)
      ~items:(split items)
      ~facts_for:(fun _ -> base_facts)
  in
  Format.printf "%s v%d  ->  %s v%d over %d probes@." old_p.Cloudtx_policy.Policy.domain
    old_p.Cloudtx_policy.Policy.version new_p.Cloudtx_policy.Policy.domain
    new_p.Cloudtx_policy.Policy.version (List.length probes);
  match Analysis.compare_policies ~probes old_p new_p with
  | Analysis.Equivalent -> Format.printf "verdict: EQUIVALENT (pure refresh)@."
  | Analysis.Tightened lost ->
    Format.printf "verdict: TIGHTENED — %d access(es) lost:@." (List.length lost);
    List.iter (fun p -> Format.printf "  - %a@." Analysis.pp_probe p) lost
  | Analysis.Relaxed gained ->
    Format.printf "verdict: RELAXED — %d access(es) gained:@." (List.length gained);
    List.iter (fun p -> Format.printf "  + %a@." Analysis.pp_probe p) gained
  | Analysis.Mixed { lost; gained } ->
    Format.printf "verdict: MIXED@.";
    List.iter (fun p -> Format.printf "  - %a@." Analysis.pp_probe p) lost;
    List.iter (fun p -> Format.printf "  + %a@." Analysis.pp_probe p) gained

let analyze_term =
  Term.(
    const analyze_cmd
    $ Arg.(required & opt (some file) None & info [ "old" ] ~doc:"Old policy JSON file.")
    $ Arg.(required & opt (some file) None & info [ "new" ] ~doc:"New policy JSON file.")
    $ Arg.(value & opt string "bob" & info [ "subjects" ] ~doc:"Comma-separated probe subjects.")
    $ Arg.(value & opt string "read,write" & info [ "actions" ] ~doc:"Comma-separated probe actions.")
    $ Arg.(value & opt string "db1" & info [ "items" ] ~doc:"Comma-separated probe items.")
    $ Arg.(value & opt_all string [] & info [ "fact" ] ~doc:"Ground fact pred(a,b) available to every probe; repeatable."))

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd path =
  let module Datalog = Cloudtx_policy.Datalog in
  let module Infer = Cloudtx_policy.Infer in
  let module Rule = Cloudtx_policy.Rule in
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Datalog.parse_program contents with
  | Error m ->
    Printf.eprintf "%s: %s\n" path m;
    exit 1
  | Ok rules ->
    Format.printf "%s: %d rule(s) parsed@." path (List.length rules);
    (* Stratification check (negation cycles surface at compilation). *)
    (try
       ignore (Infer.compile rules);
       Format.printf "  stratification : ok@."
     with Invalid_argument m ->
       Format.printf "  stratification : FAILED (%s)@." m;
       exit 1);
    (* Predicates derived vs consumed: flag body predicates that nothing
       derives and no convention provides (likely typos). *)
    let heads =
      List.sort_uniq String.compare
        (List.map (fun (r : Rule.t) -> r.Rule.head.Rule.pred) rules)
    in
    let provided =
      heads
      @ [ "req_subject"; "req_action"; "req_item"; "capability" ]
    in
    let consumed =
      List.sort_uniq String.compare
        (List.concat_map
           (fun (r : Rule.t) ->
             List.map
               (fun (a : Rule.atom) -> a.Rule.pred)
               (Rule.positive_body r @ Rule.negative_body r))
           rules)
    in
    let external_preds =
      List.filter (fun p -> not (List.mem p provided)) consumed
    in
    Format.printf "  head predicates: %s@." (String.concat ", " heads);
    if external_preds <> [] then
      Format.printf
        "  credential/context facts expected for: %s@."
        (String.concat ", " external_preds);
    if not (List.mem "permit" heads) then
      Format.printf
        "  warning: no rule derives permit/3 — this policy grants nothing@."

let check_term =
  Term.(
    const check_cmd
    $ Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"POLICY.dl" ~doc:"Datalog policy file to validate."))

(* ------------------------------------------------------------------ *)
(* export                                                              *)
(* ------------------------------------------------------------------ *)

let export_cmd domain out_file =
  (* Write the retail scenario's current policy as JSON — a starting point
     for editing + `analyze`. *)
  let module Codec = Cloudtx_policy.Codec in
  let scenario = Scenario.retail () in
  ignore domain;
  let master = Cluster.master scenario.Scenario.cluster in
  let policy =
    match Cloudtx_core.Master.admin master ~domain:"retail" with
    | Some admin -> Cloudtx_policy.Admin.latest admin
    | None -> failwith "no retail domain"
  in
  let oc = open_out out_file in
  output_string oc (Codec.policy_to_string policy);
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote %s@." out_file

let export_term =
  Term.(
    const export_cmd
    $ Arg.(value & opt string "retail" & info [ "domain" ] ~doc:"Domain to export.")
    $ Arg.(value & opt string "policy.json" & info [ "out" ] ~doc:"Output file."))

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let cell_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Campaign.cell_of_string s) in
  let print fmt c = Format.pp_print_string fmt (Campaign.cell_name c) in
  Arg.conv (parse, print)

let write_lines path lines =
  let oc = open_out path in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    lines;
  close_out oc

let journal_file dir (cell : Campaign.cell) (plan : Plan.t) ~suffix =
  Printf.sprintf "%s/%s-seed%Ld%s.jsonl" dir
    (String.map (function ':' -> '-' | c -> c) (Campaign.cell_name cell))
    plan.Plan.seed suffix

let report_case dir shrink certify journal_format explain_worst ~policy
    ~resilience (case : Campaign.case) =
  let cell = case.Campaign.cell and plan = case.Campaign.plan in
  Format.printf "VIOLATION %s seed=%Ld@.  %s@.  plan: %s@."
    (Campaign.cell_name cell) plan.Plan.seed case.Campaign.failure.Campaign.what
    (Plan.to_string plan);
  Option.iter
    (fun dir ->
      let path = journal_file dir cell plan ~suffix:"" in
      write_lines path case.Campaign.failure.Campaign.journal;
      Format.printf "  journal: %s@." path)
    dir;
  (* Attach the slowest transaction's critical-path timeline to the
     verdict — a pure function of the captured journal lines, so the
     sweep's output stays bit-reproducible. *)
  if explain_worst then begin
    match Blame.of_lines case.Campaign.failure.Campaign.journal with
    | Error why -> Format.printf "  explain-worst: journal unreadable (%s)@." why
    | Ok b -> (
      match Blame.slowest b with
      | None -> Format.printf "  explain-worst: no finished transaction@."
      | Some tl ->
        List.iter
          (fun l -> Format.printf "  %s@." l)
          (Critical_path.timeline_to_text tl))
  end;
  if shrink then begin
    let dedup = false in
    (* A violation under hardened delivery would also shrink, but in
       practice failures come from the --no-dedup escape hatch; replaying
       candidates must use the same delivery mode that failed. *)
    let fails p =
      match
        Campaign.run_plan ~dedup ~certify ~journal_format ~policy ?resilience
          cell p
      with
      | Ok () -> None
      | Error f -> Some f.Campaign.what
    in
    match Shrink.minimize ~fails plan with
    | None -> Format.printf "  shrink: plan no longer fails under replay@."
    | Some (minimal, what) ->
      Format.printf "  shrunk to %d op(s): %s@.  minimal failure: %s@."
        (List.length minimal.Plan.ops)
        (Plan.to_string minimal) what;
      Option.iter
        (fun dir ->
          match
            Campaign.run_plan ~dedup ~certify ~journal_format ~policy
              ?resilience cell minimal
          with
          | Error f ->
            let path = journal_file dir cell minimal ~suffix:"-min" in
            write_lines path f.Campaign.journal;
            Format.printf "  minimal journal: %s@." path
          | Ok () -> ())
        dir
  end

let chaos_cmd seeds base_seed cell plan_file shrink journal_dir no_dedup
    certify journal_format journal_out metrics_interval metrics_out
    explain_worst horizon policy with_resilience =
  let dedup = not no_dedup in
  let resilience =
    if with_resilience then Some (Resilience.config ()) else None
  in
  let cells = match cell with Some c -> [ c ] | None -> Campaign.all_cells in
  Option.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    journal_dir;
  let failures =
    match plan_file with
    | Some path -> (
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Plan.of_string data with
      | Error why ->
        Format.eprintf "%s: bad plan: %s@." path why;
        exit 2
      | Ok plan ->
        List.filter_map
          (fun cell ->
            match
              Campaign.run_plan ~dedup ~certify ~journal_format
                ?journal_path:journal_out ?metrics_path:metrics_out
                ?metrics_width_ms:metrics_interval ~policy ?resilience cell
                plan
            with
            | Ok () ->
              Format.printf "ok %s seed=%Ld@." (Campaign.cell_name cell)
                plan.Plan.seed;
              None
            | Error failure -> Some { Campaign.cell; plan; failure })
          cells)
    | None ->
      let verdict =
        Campaign.run ~dedup ~certify ~journal_format ?journal_path:journal_out
          ?metrics_path:metrics_out ?metrics_width_ms:metrics_interval ~policy
          ?resilience ?horizon ~cells ~base_seed ~plans:seeds ()
      in
      Format.printf "%d plan(s) x %d cell(s) = %d run(s), %d violation(s)@."
        seeds (List.length cells) verdict.Campaign.plans_run
        (List.length verdict.Campaign.failures);
      verdict.Campaign.failures
  in
  List.iter
    (report_case journal_dir shrink certify journal_format explain_worst
       ~policy ~resilience)
    failures;
  if failures <> [] then exit 1

let chaos_term =
  Term.(
    const chaos_cmd
    $ Arg.(
        value & opt int 24
        & info [ "seeds" ] ~docv:"N"
            ~doc:"Number of seeded random fault plans to sweep.")
    $ Arg.(
        value & opt int64 1000L
        & info [ "base-seed" ] ~docv:"SEED"
            ~doc:
              "First plan seed; plan $(i,i) uses SEED+$(i,i).  The seed \
               drives both plan generation and the simulated run, so a \
               campaign's verdict is a pure function of its arguments.")
    $ Arg.(
        value & opt (some cell_conv) None
        & info [ "cell" ] ~docv:"SCHEME:LEVEL"
            ~doc:
              "Restrict the campaign to one scheme x level cell, e.g. \
               $(b,continuous:global).  Default: all 8 cells.")
    $ Arg.(
        value & opt (some file) None
        & info [ "plan" ] ~docv:"PLAN.json"
            ~doc:
              "Run this explicit fault plan (as printed on a violation) \
               instead of generating random ones.")
    $ Arg.(
        value & flag
        & info [ "shrink" ]
            ~doc:
              "Greedily minimize each failing plan and print the minimal \
               counterexample.")
    $ Arg.(
        value & opt (some string) None
        & info [ "journal-dir" ] ~docv:"DIR"
            ~doc:
              "Write each failing run's flight-recorder journal under DIR \
               (replayable via $(b,cloudtx audit) and $(b,cloudtx watch)).")
    $ Arg.(
        value & flag
        & info [ "no-dedup" ]
            ~doc:
              "Disable driver-side idempotent delivery (the wire-seq dedup \
               layer).  Duplication faults then reach the protocol machines \
               — the escape hatch used to demonstrate what hardened \
               delivery prevents.")
    $ Arg.(
        value & flag
        & info [ "certify" ]
            ~doc:
              "Add a fourth assertion layer after liveness, safety and \
               audit: every run's journal must certify serializable \
               ($(b,cloudtx certify) over the same history).  Verdicts \
               stay bit-reproducible — the check is a pure function of the \
               journal.")
    $ journal_format_arg
    $ Arg.(
        value
        & opt (some string) None
        & info [ "journal-out" ] ~docv:"FILE"
            ~doc:
              "Write every run's flight-recorder journal through to $(docv) \
               whatever the verdict (each run overwrites it — pair with \
               $(b,--seeds 1) and $(b,--cell) for a single run's artifact, \
               e.g. to feed $(b,cloudtx report)).")
    $ Arg.(
        value
        & opt (some float) None
        & info [ "metrics-interval" ] ~docv:"MS"
            ~doc:
              "Window width for $(b,--metrics-out) (default 100 ms of \
               simulated time).")
    $ Arg.(
        value
        & opt (some string) None
        & info [ "metrics-out" ] ~docv:"FILE"
            ~doc:
              "Aggregate a windowed time series live over each run and \
               write the snapshot JSONL to $(docv) whatever the verdict \
               (each run overwrites it; see $(b,--journal-out)).  Check it \
               against that journal with $(b,cloudtx report JOURNAL \
               --metrics).")
    $ Arg.(
        value & flag
        & info [ "explain-worst" ]
            ~doc:
              "Attach the slowest transaction's critical-path timeline (see \
               $(b,cloudtx explain)) to each failing cell's verdict, \
               reconstructed from the captured journal — bit-reproducible \
               like the rest of the sweep.")
    $ Arg.(
        value
        & opt (some float) None
        & info [ "horizon" ] ~docv:"MS"
            ~doc:
              "Fault horizon for generated plans in simulated ms (default \
               100).  Every window scales with it: fault start times land \
               in [0, 0.6*MS), holds in [0.03*MS, 0.25*MS), and the \
               gray-fault extra delays proportionally.  Explicit \
               $(b,--plan) files carry their own horizon (plan grammar \
               v2).")
    $ Arg.(
        value
        & opt (enum [ ("fixed", Timeout_policy.Fixed); ("adaptive", Timeout_policy.adaptive ()) ]) Timeout_policy.Fixed
        & info [ "policy" ] ~docv:"POLICY"
            ~doc:
              "TM timeout policy: $(b,fixed) (the paper's constants; \
               journals stay byte-identical to pre-policy captures) or \
               $(b,adaptive) (per-peer RTT estimation, exponential backoff \
               with deterministic jitter, capped vote/retry budgets).  \
               Under $(b,adaptive) the campaign adds a graceful-degradation \
               layer: no TM may exceed its decision-retry budget.")
    $ Arg.(
        value & flag
        & info [ "resilience" ]
            ~doc:
              "Arm per-server circuit breakers and admission control on \
               every submit (defaults: 3 strikes to open, 200 ms cooldown). \
               Adds a post-heal probe layer: after the faults heal and one \
               cooldown passes, a probe transaction must complete cleanly, \
               every breaker must re-close, and nothing may be left in \
               flight."))

(* ------------------------------------------------------------------ *)
(* journal: format tooling (cat / convert)                             *)
(* ------------------------------------------------------------------ *)

let read_raw path =
  try
    let ic = open_in_bin path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    contents
  with Sys_error msg ->
    Format.eprintf "cloudtx: cannot read %s: %s@." path msg;
    exit 2

(* write_file appends a trailing newline when missing — fine for text,
   corrupting for binary frames, so raw journal output bypasses it. *)
let write_raw path contents =
  let oc =
    try open_out_bin path
    with Sys_error msg ->
      Format.eprintf "cloudtx: cannot write %s: %s@." path msg;
      exit 2
  in
  output_string oc contents;
  close_out oc

let journal_cat_cmd path =
  match Journal_io.of_file path with
  | Error why ->
    Format.eprintf "%s: unreadable journal@.  %s@." path why;
    exit 2
  | Ok loaded ->
    List.iter print_endline loaded.Journal_io.lines;
    if loaded.Journal_io.torn_bytes > 0 then
      Format.eprintf "%s: ignored %d byte(s) of torn trailing frame@." path
        loaded.Journal_io.torn_bytes

let journal_cat_term =
  Term.(
    const journal_cat_cmd
    $ Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"JOURNAL"
            ~doc:
              "Journal in either format; its canonical JSONL lines are \
               printed to stdout.  Exit 2 on an unreadable journal, naming \
               the first bad frame."))

let journal_convert_cmd in_path out_path to_ =
  let contents = read_raw in_path in
  let detected =
    if Journal.is_binary contents then Journal.Binary else Journal.Jsonl
  in
  let to_ =
    (* Default target: the other format. *)
    match to_ with
    | Some f -> f
    | None -> ( match detected with Journal.Jsonl -> Journal.Binary | Journal.Binary -> Journal.Jsonl)
  in
  match Journal_io.convert ~to_ contents with
  | Error why ->
    Format.eprintf "%s: cannot convert@.  %s@." in_path why;
    exit 2
  | Ok converted ->
    write_raw out_path converted;
    Format.printf "wrote %s (%s -> %s, %d bytes)@." out_path
      (Journal.format_name detected) (Journal.format_name to_)
      (String.length converted)

let journal_convert_term =
  Term.(
    const journal_convert_cmd
    $ Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"IN" ~doc:"Input journal (format auto-detected).")
    $ Arg.(
        required
        & pos 1 (some string) None
        & info [] ~docv:"OUT" ~doc:"Output journal path.")
    $ Arg.(
        value
        & opt (some journal_format_conv) None
        & info [ "to" ] ~docv:"FORMAT"
            ~doc:
              "Target encoding, $(b,jsonl) or $(b,bin).  Default: the \
               opposite of the input's detected format.  Conversion \
               round-trips byte-exactly on current-version journals; \
               audit/certify verdicts are identical on either encoding."))

let journal_cmd =
  Cmd.group
    (Cmd.info "journal"
       ~doc:
         "Flight-recorder journal tooling: decode either encoding to \
          canonical JSONL ($(b,cat)) or re-encode between JSONL and binary \
          ($(b,convert)).")
    [
      Cmd.v
        (Cmd.info "cat"
           ~doc:
             "Decode a journal (JSONL or binary, auto-detected) to \
              human-readable canonical JSONL on stdout.")
        journal_cat_term;
      Cmd.v
        (Cmd.info "convert"
           ~doc:"Re-encode a journal between the JSONL and binary formats.")
        journal_convert_term;
    ]

(* ------------------------------------------------------------------ *)

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Run a workload and print aggregate statistics.") run_term;
    Cmd.v (Cmd.info "table1" ~doc:"Reproduce Table I: analytic vs measured complexity.") table1_term;
    Cmd.v (Cmd.info "trace" ~doc:"Run one transaction and dump the full message trace.") trace_term;
    Cmd.v (Cmd.info "audit" ~doc:"Replay a flight-recorder journal and verify it offline.") audit_term;
    Cmd.v
      (Cmd.info "certify"
         ~doc:
           "Check a flight-recorder journal's committed history for \
            serializability: emit a witness serial order or a named anomaly \
            cycle with journal seq evidence.")
      certify_term;
    Cmd.v (Cmd.info "watch" ~doc:"Replay a flight-recorder journal through the Watchtower health monitor.") watch_term;
    Cmd.v
      (Cmd.info "report"
         ~doc:
           "Build the flight-deck report (throughput curve, per-phase \
            quantiles per window, staleness trajectory, alert timeline, \
            saturation knee) from a journal; with --metrics, check a \
            --metrics-out snapshot against it byte-for-byte.")
      report_term;
    Cmd.v
      (Cmd.info "explain"
         ~doc:
           "Reconstruct one transaction's critical-path timeline from a \
            flight-recorder journal: every wall-clock segment (policy \
            fetches, 2PV/2PVC rounds, lock waits, stalls, decision \
            propagation) blamed on its causal step, summing to the \
            end-to-end latency.")
      explain_term;
    Cmd.v
      (Cmd.info "blame"
         ~doc:
           "Aggregate per-transaction critical paths from a flight-recorder \
            journal into blame tables: mean/p50/p99 time-in-segment per \
            scheme x level cell, plus the slowest transactions with their \
            dominant segments.")
      blame_term;
    journal_cmd;
    Cmd.v (Cmd.info "health" ~doc:"Run the full scheme x level grid and print a health snapshot.") health_term;
    Cmd.v (Cmd.info "sweep" ~doc:"Section VI-B trade-off grid.") sweep_term;
    Cmd.v (Cmd.info "bank" ~doc:"Random funds transfers over the banking scenario.") bank_term;
    Cmd.v (Cmd.info "analyze" ~doc:"Semantic diff of two policy files (JSON or Datalog).") analyze_term;
    Cmd.v (Cmd.info "check" ~doc:"Parse and validate a Datalog policy file.") check_term;
    Cmd.v (Cmd.info "export" ~doc:"Export a scenario policy as JSON.") export_term;
    Cmd.v
      (Cmd.info "chaos"
         ~doc:
           "Deterministic fault campaign: seeded random fault plans across \
            the scheme x level grid, asserting safety and liveness at every \
            terminal state.")
      chaos_term;
  ]

let () =
  let doc = "policy- and data-consistent cloud transactions (2PV / 2PVC)" in
  exit (Cmd.eval (Cmd.group (Cmd.info "cloudtx" ~doc) cmds))
