(* The five workloads: what each sets up, what one measured round runs,
   and which of its outputs are checked.

   Every round of a workload does the same work on the same inputs and
   times it in positions: the batches of a closed-loop run, the consumer
   calls of analyze, the runs of a chaos campaign.  A run repeats rounds
   until its time is up, and a position's cost is its fastest time over
   the rounds: other tenants of the host slow some rounds at some
   positions and never speed one up.  An op is a committed transaction
   in the closed-* workloads, a journal record read by a consumer in
   analyze, and one campaign run in chaos-gray. *)

module Scenario = Cloudtx_workload.Scenario
module Generator = Cloudtx_workload.Generator
module Splitmix = Cloudtx_sim.Splitmix
module Experiment = Cloudtx_workload.Experiment
module Churn = Cloudtx_workload.Churn
module Manager = Cloudtx_core.Manager
module Cluster = Cloudtx_core.Cluster
module Health = Cloudtx_core.Health
module Blame = Cloudtx_core.Blame
module Audit = Cloudtx_core.Audit
module Certify = Cloudtx_core.Certify
module Report_io = Cloudtx_core.Report_io
module Resilience = Cloudtx_core.Resilience
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Outcome = Cloudtx_protocol.Outcome
module Timeout_policy = Cloudtx_protocol.Timeout_policy
module Transport = Cloudtx_sim.Transport
module Journal = Cloudtx_obs.Journal
module Monitor = Cloudtx_obs.Monitor
module Timeseries = Cloudtx_obs.Timeseries
module Tracer = Cloudtx_obs.Tracer
module Report = Cloudtx_obs.Report
module Sample_set = Cloudtx_metrics.Sample_set
module Campaign = Cloudtx_chaos.Campaign
module Plan = Cloudtx_chaos.Plan

type size = Full | Smoke

type round = {
  times : float array;  (** CPU seconds per position *)
  ops : int;
  attempted : int;
  outputs : Oracle.outputs;  (** what the round's checks compared *)
  minor_words : float;  (** allocated by the round *)
  retained : (float * int) option;
      (** words left reachable by one measured call, and its ops;
          round 0 only *)
}

(* A round's cost, read from each position's fastest time. *)
type reduced = {
  cpu_s : float;  (** CPU seconds of the positions that complete [ops] *)
  batches_ms : float list;
  scaling : float;  (** t(2n) / (2 t(n)) *)
}

type instance = {
  round : tracer:Tracer.t -> int -> round;
  reduce : float array -> reduced;
  detail : (string * string) list;  (** sizes, for the log *)
}

let sum a ~from ~upto =
  let s = ref 0. in
  for i = from to upto - 1 do
    s := !s +. a.(i)
  done;
  !s

(* A span on the benchmark's own host-clock tracer; [Tracer.noop] in
   untraced runs, where it costs one branch. *)
let span tracer name f =
  let id = Tracer.start tracer name in
  Fun.protect ~finally:(fun () -> Tracer.finish tracer id) (fun () -> f id)

(* Journals the consumers read live here, in the working directory. *)
let work_dir = ".bench-e2e-work"

let work_file name =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  Filename.concat work_dir name

let clean_work_dir () =
  if Sys.file_exists work_dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat work_dir f))
      (Sys.readdir work_dir);
    Sys.rmdir work_dir
  end

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* [retained_by f] runs [f] and measures the words its result keeps
   reachable. *)
let retained_by f =
  let base = Host.live_words () in
  let r = f () in
  let live = Host.live_words () in
  ignore (Sys.opaque_identity r);
  (r, float_of_int (live - base))

(* ------------------------------------------------------------------ *)
(* Closed loops: closed-bare, closed-observed, contended-churn          *)
(* ------------------------------------------------------------------ *)

type closed = {
  stream : string;  (** pins key: workloads on one stream share pins *)
  items : int;  (** per server, 4 servers *)
  zipf : float;
  queries : int;
  scheme : Scheme.t;
  level : Consistency.level;
  churn : bool;
  observers : bool;
}

let clients = 8
let write_ratio = 0.3
let churn_period = 10.

(* Policy refreshes sized to span the run: one per 10 ms for every 2 ms
   of simulated time a transaction takes (contended-churn takes about
   1.8). *)
let churn_count total = max 1 (total / 5)
let journal_cap = 4 * 1024 * 1024

let closed_bare =
  {
    stream = "closed";
    items = 64;
    zipf = 0.;
    queries = 3;
    scheme = Scheme.Deferred;
    level = Consistency.View;
    churn = false;
    observers = false;
  }

let closed_observed = { closed_bare with observers = true }

let contended_churn =
  {
    stream = "contended";
    items = 16;
    zipf = 0.8;
    queries = 4;
    scheme = Scheme.Continuous;
    level = Consistency.Global;
    churn = true;
    observers = false;
  }

let scenario c ~seed =
  Scenario.retail ~seed:(Int64.of_int seed) ~n_servers:4
    ~items_per_server:c.items ()

let params c =
  {
    Generator.queries_per_txn = c.queries;
    write_ratio;
    zipf_s = c.zipf;
    spread = `Round_robin;
  }

(* The transaction stream draws from its own seed, apart from the
   cluster's.  Every transaction is generated in set-up, before any
   timing, so set-up time includes the generator's cost. *)
let stream_seed seed = Int64.of_int (1_000_000 + seed)

let gen_txns c (sc : Scenario.t) ~seed ~n =
  let params = params c in
  let rng = Splitmix.create (stream_seed seed) in
  Array.init n (fun i -> Generator.generate sc rng params ~id:(Printf.sprintf "t%d" i))

let config c = Manager.config c.scheme c.level

(* What a run records beyond the workload's own observers: [`Journal]
   (analyze's recordings) keeps every record in a binary journal, and
   [`Traced] adds the metrics registry.  closed-observed's own journal
   is capped; an uncapped one installed first takes its place. *)
type record = [ `Nothing | `Journal | `Traced ]

let instrument c ~(record : record) (sc : Scenario.t) =
  let tr = Cluster.transport sc.Scenario.cluster in
  (match record with
  | `Nothing -> ()
  | `Journal -> ignore (Transport.enable_journal ~format:Journal.Binary tr)
  | `Traced ->
    ignore (Transport.enable_metrics tr);
    ignore (Transport.enable_journal ~format:Journal.Binary tr));
  if c.observers then begin
    let registry = Transport.enable_metrics tr in
    let journal =
      Transport.enable_journal ~format:Journal.Binary ~max_buffer_bytes:journal_cap tr
    in
    let ts = Transport.enable_timeseries ~width_ms:100. tr in
    let monitor = Monitor.create ~registry ~notify:(Timeseries.note_alert ts) () in
    ignore (Health.attach ~timeseries:ts journal monitor);
    ignore (Blame.attach journal)
  end

type closed_run = {
  sc : Scenario.t;
  stats : Experiment.stats;
  tps : float;
  run_cpu_s : float;
  batches : float array;  (** CPU seconds per batch *)
}

(* One closed-loop run of [txns.(0 .. total-1)] on a fresh cluster.  A
   batch is [batch] consecutive submissions, timed in the [make ~i]
   closure; the last one ends with the run, and a trailing partial batch
   is not a sample.  [prepare] sees the instrumented cluster before the
   clock starts. *)
let closed_run c ~seed ~tracer ?(record = `Nothing) ?(prepare = ignore)
    ?(on_submit = ignore) txns ~total ~batch =
  let sc = scenario c ~seed in
  if c.churn then
    Churn.policy_refresh sc ~period:churn_period ~propagation:(0.5, 8.)
      ~count:(churn_count total);
  instrument c ~record sc;
  prepare sc;
  Host.settle ();
  let batches = ref [] in
  let mark = ref 0. in
  span tracer "run" (fun run_span ->
      let batch_span = ref Tracer.no_span in
      let make ~i =
        on_submit i;
        if i mod batch = 0 then begin
          let now = Host.cpu_s () in
          if i > 0 then batches := (now -. !mark) :: !batches;
          mark := now;
          Tracer.finish tracer !batch_span;
          batch_span := Tracer.start tracer ~parent:run_span "batch"
        end;
        txns.(i)
      in
      let t0 = Host.cpu_s () in
      let stats, tps = Experiment.run_closed sc (config c) ~clients ~total make in
      let t1 = Host.cpu_s () in
      Tracer.finish tracer !batch_span;
      if total mod batch = 0 then batches := (t1 -. !mark) :: !batches;
      {
        sc;
        stats;
        tps;
        run_cpu_s = t1 -. t0;
        batches = Array.of_list (List.rev !batches);
      })

let sum_outcomes f (s : Experiment.stats) =
  List.fold_left (fun a o -> a + f o) 0 s.Experiment.outcomes

let closed_outputs r =
  let s = r.stats in
  let lat = s.Experiment.latency_ms in
  Oracle.
    [
      ("committed", int s.Experiment.committed);
      ("aborted", int s.Experiment.aborted);
      ("latency_p50_ms", ms (Sample_set.percentile lat 50.));
      ("latency_p99_ms", ms (Sample_set.percentile lat 99.));
      ("latency_mean_ms", ms (Sample_set.mean lat));
      ("sim_txn_per_s", ms r.tps);
      ("proofs", int (sum_outcomes (fun o -> o.Outcome.proofs_evaluated) s));
      ("commit_rounds", int (sum_outcomes (fun o -> o.Outcome.commit_rounds) s));
    ]

(* Every closed run: each submission reached a decision, and the outputs
   match the pins (seeds 1 and 2) and the first run of the same size in
   this process. *)
let check_closed c ~seed ~total ~first r =
  let s = r.stats in
  let decided = s.Experiment.committed + s.Experiment.aborted in
  Oracle.check (decided = total) "%s n=%d: %d decisions for %d submissions"
    c.stream total decided total;
  let got = closed_outputs r in
  Oracle.pinned ~stream:c.stream ~seed ~n:total got;
  match Hashtbl.find_opt first total with
  | None -> Hashtbl.add first total got
  | Some expected ->
    Oracle.same
      ~what:(Printf.sprintf "%s n=%d: rerun differs from first run" c.stream total)
      expected got

(* A round runs 2n transactions, n a multiple of 120 sized so a round
   takes about a second of host time. *)
let closed_n c = function
  | Full -> if c.observers then 960 else if c.churn then 1920 else 3600
  | Smoke -> 30

(* The traced run's prefix of the same stream: its replays and
   consumers take about 10 s of host time. *)
let trace_n c = function Full -> if c.churn then 500 else 1000 | Smoke -> 30

(* A batch is 1/120 of n submissions. *)
let batch_of n = max 1 (n / 120)

let closed_instance c ~seed ~size =
  let n = closed_n c size in
  let txns = gen_txns c (scenario c ~seed) ~seed ~n:(2 * n) in
  let batch = batch_of n in
  let first = Hashtbl.create 2 in
  let round ~tracer k =
    let g0 = Host.gc () in
    (* Round 0 also measures what the run leaves reachable with its
       cluster alive: memory that grows with history shows here. *)
    let base = ref 0 in
    let prepare _ = if k = 0 then base := Host.live_words () in
    let r = closed_run c ~seed ~tracer ~prepare txns ~total:(2 * n) ~batch in
    let retained =
      if k = 0 then begin
        let live = Host.live_words () in
        ignore (Sys.opaque_identity r.sc);
        Some (float_of_int (live - !base), r.stats.Experiment.committed)
      end
      else None
    in
    check_closed c ~seed ~total:(2 * n) ~first r;
    {
      times = r.batches;
      ops = r.stats.Experiment.committed;
      attempted = 2 * n;
      outputs = closed_outputs r;
      minor_words = (Host.gc_since g0).Host.minor_words;
      retained;
    }
  in
  (* Scaling compares the run's second n transactions with its first. *)
  let reduce m =
    let all = Array.length m in
    let total = sum m ~from:0 ~upto:all in
    {
      cpu_s = total;
      batches_ms = Array.to_list (Array.map (fun t -> t *. 1000.) m);
      scaling = total /. (2. *. sum m ~from:0 ~upto:(all / 2));
    }
  in
  {
    round;
    reduce;
    detail =
      [
        ("txns_per_round", string_of_int (2 * n));
        ("batch_txns", string_of_int batch);
        ("clients", string_of_int clients);
      ];
  }

(* ------------------------------------------------------------------ *)
(* analyze: the offline journal consumers                              *)
(* ------------------------------------------------------------------ *)

let analyze_n = function Full -> 300 | Smoke -> 20

(* Record the closed-bare stream's first [n] transactions as a binary
   journal file; returns its record count. *)
let record_journal ~seed ~first txns ~n path =
  let r =
    closed_run closed_bare ~seed ~tracer:Tracer.noop ~record:`Journal txns
      ~total:n ~batch:(batch_of n)
  in
  check_closed closed_bare ~seed ~total:n ~first r;
  let journal = Transport.journal (Cluster.transport r.sc.Scenario.cluster) in
  write_file path (Journal.to_string journal);
  Journal.length journal

type consumers = {
  audit : Audit.report;
  certify : Certify.report;
  watch_records : int;
  watch_alerts : int;
  blame : Blame.t;
  report_windows : int;
}

let ok what = function
  | Ok v -> v
  | Error why -> Oracle.fail "%s: %s" what why

let audit path = ok "audit" (Audit.of_file path)
let certify path = ok "certify" (Certify.of_file path)

let watch path =
  let monitor = Monitor.create () in
  let records = ok "watch" (Health.of_file path monitor) in
  (records, Monitor.fired_total monitor)

let blame path = ok "blame" (Blame.of_file path)

(* The [cloudtx report JOURNAL] path: windowed report, alert lines and
   the blame section, rendered to markdown. *)
let report path =
  let r, monitor = ok "report" (Report_io.of_journal path) in
  let blame_lines = Blame.to_markdown_lines (blame path) in
  let alert_lines = Report_io.alert_lines_of_monitor monitor in
  ignore (Report.to_markdown ~alert_lines ~blame_lines r);
  List.length r.Report.windows

let serializable what (r : Certify.report) =
  match r.Certify.verdict with
  | Certify.Serializable _ -> ()
  | Certify.Anomalous a ->
    Oracle.fail "%s: not serializable: %s" what (Certify.describe_anomaly a)

(* What holds for every seed: record and transaction counts that agree
   across consumers, a serializable history, blame segments that tile
   every transaction, and a healthy watch. *)
let consumer_outputs ~n_records c =
  let a = c.audit in
  Oracle.check (a.Audit.records = n_records) "audit read %d of %d records"
    a.Audit.records n_records;
  Oracle.check (c.watch_records = n_records) "watch fed %d of %d records"
    c.watch_records n_records;
  Oracle.check
    (List.length c.certify.Certify.committed = a.Audit.commits)
    "certify saw %d commits, audit %d"
    (List.length c.certify.Certify.committed)
    a.Audit.commits;
  Oracle.check
    (Blame.finished c.blame = a.Audit.transactions)
    "blame finished %d transactions, audit %d" (Blame.finished c.blame)
    a.Audit.transactions;
  serializable "certify" c.certify;
  Oracle.check (Blame.uncovered c.blame = []) "blame: %d transaction(s) uncovered"
    (List.length (Blame.uncovered c.blame));
  Oracle.check (Blame.decode_errors c.blame = 0) "blame: %d decode error(s)"
    (Blame.decode_errors c.blame);
  Oracle.check (c.watch_alerts = 0) "watch: %d alert(s) fired" c.watch_alerts;
  Oracle.check (c.report_windows > 0) "report: no windows";
  Oracle.
    [
      ("records", int a.Audit.records);
      ("nodes", int a.Audit.nodes);
      ("transactions", int a.Audit.transactions);
      ("commits", int a.Audit.commits);
      ("aborts", int a.Audit.aborts);
      ("protocol_messages", int a.Audit.protocol_messages);
      ("proofs", int a.Audit.proofs);
      ("forced_logs", int a.Audit.forced_logs);
      ("certify_committed", int (List.length c.certify.Certify.committed));
      ("certify_edges", int (List.length c.certify.Certify.edges));
      ("blame_finished", int (Blame.finished c.blame));
      ("watch_records", int c.watch_records);
      ("report_windows", int c.report_windows);
    ]

let analyze_instance ~seed ~size =
  let n = analyze_n size in
  let txns = gen_txns closed_bare (scenario closed_bare ~seed) ~seed ~n:(2 * n) in
  let first = Hashtbl.create 2 in
  let path_n = work_file "analyze-n.bin" and path_2n = work_file "analyze-2n.bin" in
  let records = record_journal ~seed ~first txns ~n path_n in
  let records_2n = record_journal ~seed ~first txns ~n:(2 * n) path_2n in
  let first_outputs = ref None in
  let round ~tracer k =
    let g0 = Host.gc () in
    let timed name f =
      Host.settle ();
      span tracer ("consumer." ^ name) (fun _ -> Host.timed f)
    in
    let run_consumers () =
      let audit, t_audit = timed "audit" (fun () -> audit path_n) in
      let certify, t_certify = timed "certify" (fun () -> certify path_n) in
      let (watch_records, watch_alerts), t_watch =
        timed "watch" (fun () -> watch path_n)
      in
      let blame, t_blame = timed "blame" (fun () -> blame path_n) in
      let report_windows, t_report = timed "report" (fun () -> report path_n) in
      ( { audit; certify; watch_records; watch_alerts; blame; report_windows },
        [ t_audit; t_certify; t_watch; t_blame; t_report ] )
    in
    let (c, times), retained =
      if k = 0 then
        let r, words = retained_by run_consumers in
        (r, Some (words, 5 * records))
      else (run_consumers (), None)
    in
    let certify_2n, t_certify_2n = timed "certify-2n" (fun () -> certify path_2n) in
    serializable "certify 2n" certify_2n;
    let outputs =
      consumer_outputs ~n_records:records c
      @ Oracle.
          [
            ("certify_2n_committed", int (List.length certify_2n.Certify.committed));
            ("certify_2n_edges", int (List.length certify_2n.Certify.edges));
          ]
    in
    Oracle.pinned ~stream:"analyze" ~seed ~n outputs;
    (match !first_outputs with
    | None -> first_outputs := Some outputs
    | Some expected ->
      Oracle.same ~what:"analyze: rerun differs from first run" expected outputs);
    {
      times = Array.of_list (times @ [ t_certify_2n ]);
      ops = 5 * records;
      attempted = 6;
      outputs;
      minor_words = (Host.gc_since g0).Host.minor_words;
      retained;
    }
  in
  (* Positions: audit, certify, watch, blame, report, certify on 2n. *)
  let reduce m =
    {
      cpu_s = sum m ~from:0 ~upto:5;
      batches_ms = List.init 5 (fun i -> m.(i) *. 1000.);
      scaling = m.(5) /. (2. *. m.(1));
    }
  in
  {
    round;
    reduce;
    detail =
      [
        ("n", string_of_int n);
        ("records_n", string_of_int records);
        ("records_2n", string_of_int records_2n);
      ];
  }

(* ------------------------------------------------------------------ *)
(* chaos-gray: many small faulted clusters                             *)
(* ------------------------------------------------------------------ *)

(* Plans per cell; with the doubling below a round is 2 x 8 cells x 12
   plans = 192 runs, about 2.5 s of host time. *)
let plans_per_cell = function Full -> 12 | Smoke -> 1

(* [p] plans for each cell, every one its own; the traced run takes the
   first two of each cell's.  Over ten sets of ten seeds, 96 distinct plans
   put the spread of allocation per run at 1-3 %, against 2-9 % for 12
   plans run on every cell, at the same cost.  Plan seeds never collide
   across cells or benchmark seeds. *)
let chaos_runs ~seed p =
  List.concat
    (List.mapi
       (fun ci cell ->
         List.init p (fun i ->
             (cell, Plan.random ~seed:(Int64.of_int ((seed * 100_000) + (ci * 1000) + i)) ())))
       Campaign.all_cells)

let chaos_policy = Timeout_policy.adaptive ()
let chaos_resilience = Resilience.config ()

let run_plan ?journal_path cell plan =
  Campaign.run_plan ~certify:true ~policy:chaos_policy
    ~resilience:chaos_resilience ?journal_path cell plan

let check_verdict cell (plan : Plan.t) = function
  | Ok () -> ()
  | Error (f : Campaign.failure) ->
    Oracle.fail "chaos %s plan seed %Ld: %s" (Campaign.cell_name cell)
      plan.Plan.seed f.Campaign.what

let chaos_instance ~seed ~size =
  let p = plans_per_cell size in
  let runs = chaos_runs ~seed p in
  (* Warm-up: one fault-free run per cell, so lazy initialisation is
     done before the clock starts. *)
  List.iter
    (fun cell ->
      let quiet = { Plan.seed = Int64.of_int seed; horizon = Plan.fault_horizon; ops = [] } in
      check_verdict cell quiet (run_plan cell quiet))
    Campaign.all_cells;
  let round ~tracer k =
    let g0 = Host.gc () in
    (* The campaign makes every run, then all of them again: per-run
       cost that grows with campaign length shows in the scaling
       ratio. *)
    let campaign () =
      List.concat_map
        (fun _copy ->
          List.map
            (fun (cell, plan) ->
              let verdict, dt =
                span tracer "campaign.run" (fun _ ->
                    Host.timed (fun () -> run_plan cell plan))
              in
              check_verdict cell plan verdict;
              (dt, verdict))
            runs)
        [ 1; 2 ]
    in
    let runs, retained =
      if k = 0 then
        let runs, words = retained_by campaign in
        (runs, Some (words, List.length runs))
      else begin
        Host.settle ();
        (campaign (), None)
      end
    in
    {
      times = Array.of_list (List.map fst runs);
      ops = List.length runs;
      attempted = List.length runs;
      outputs = Oracle.[ ("runs", int (List.length runs)); ("violations", int 0) ];
      minor_words = (Host.gc_since g0).Host.minor_words;
      retained;
    }
  in
  (* The two copies repeat the same runs, so each run's cost is the
     faster of its two positions. *)
  let reduce m =
    let half = Array.length m / 2 in
    let run = Array.init half (fun i -> Float.min m.(i) m.(half + i)) in
    {
      cpu_s = 2. *. sum run ~from:0 ~upto:half;
      batches_ms = Array.to_list (Array.map (fun t -> t *. 1000.) run);
      scaling = sum m ~from:0 ~upto:(2 * half) /. (2. *. sum m ~from:0 ~upto:half);
    }
  in
  { round; reduce; detail = [ ("plans_per_cell", string_of_int p) ] }

(* ------------------------------------------------------------------ *)
(* The catalogue                                                       *)
(* ------------------------------------------------------------------ *)

type kind = Closed of closed | Analyze | Chaos
type workload = { name : string; kind : kind }

let all =
  [
    { name = "closed-bare"; kind = Closed closed_bare };
    { name = "closed-observed"; kind = Closed closed_observed };
    { name = "contended-churn"; kind = Closed contended_churn };
    { name = "analyze"; kind = Analyze };
    { name = "chaos-gray"; kind = Chaos };
  ]

(* Inputs generated, scenario and journals ready: set-up time. *)
let setup w ~seed ~size =
  match w.kind with
  | Closed c -> closed_instance c ~seed ~size
  | Analyze -> analyze_instance ~seed ~size
  | Chaos -> chaos_instance ~seed ~size

let find name = List.find_opt (fun w -> String.equal w.name name) all
