(* The traced run: per-layer metrics.

   A traced run captures the workload once with the metrics registry and
   an uncapped binary journal on, recording spans on the benchmark's own
   host clock, and runs the same inputs untraced for comparison.  It then
   replays the captured journal into each layer's public functions and
   times each layer alone.  Every replay checks its results against the
   journal (or, where the capture had one, the live registry) before its
   numbers count; the first mismatch fails the run.

   Counts are per committed transaction of the capture unless a name
   says otherwise. *)

module Scenario = Cloudtx_workload.Scenario
module Cluster = Cloudtx_core.Cluster
module Participant = Cloudtx_core.Participant
module Health = Cloudtx_core.Health
module Blame = Cloudtx_core.Blame
module Audit = Cloudtx_core.Audit
module Certify = Cloudtx_core.Certify
module Journal_io = Cloudtx_core.Journal_io
module Tm = Cloudtx_protocol.Tm_machine
module Ps = Cloudtx_protocol.Ps_machine
module Message = Cloudtx_protocol.Message
module Codec = Cloudtx_protocol.Codec
module Codec_bin = Cloudtx_protocol.Codec_bin
module Transport = Cloudtx_sim.Transport
module Engine = Cloudtx_sim.Engine
module Event_heap = Cloudtx_sim.Event_heap
module Splitmix = Cloudtx_sim.Splitmix
module Server = Cloudtx_store.Server
module Lock_manager = Cloudtx_store.Lock_manager
module Wal = Cloudtx_store.Wal
module Integrity = Cloudtx_store.Integrity
module Proof = Cloudtx_policy.Proof
module Replica = Cloudtx_policy.Replica
module Ca = Cloudtx_policy.Ca
module Pjson = Cloudtx_policy.Json
module Query = Cloudtx_txn.Query
module Journal = Cloudtx_obs.Journal
module Registry = Cloudtx_obs.Registry
module Monitor = Cloudtx_obs.Monitor
module Timeseries = Cloudtx_obs.Timeseries
module Tracer = Cloudtx_obs.Tracer
module Report = Cloudtx_obs.Report
module Wbuf = Cloudtx_obs.Wbuf
module Json = Cloudtx_obs.Json
module Plan = Cloudtx_chaos.Plan
module Campaign = Cloudtx_chaos.Campaign
module W = Workloads

(* Name, unit; the order [BENCHMARK.json] lists them in. *)
let metrics =
  [
    ("engine.events_per_txn", "count");
    ("engine.pending_mean", "count");
    ("engine.pending_max", "count");
    ("event_heap.ns_per_op", "ns");
    ("event_heap.words_per_op", "words");
    ("transport.msgs_per_txn", "count");
    ("transport.ns_per_send", "ns");
    ("transport.words_per_send", "words");
    ("tm_machine.inputs_per_txn", "count");
    ("tm_machine.ns_per_input", "ns");
    ("tm_machine.words_per_input", "words");
    ("ps_machine.inputs_per_txn", "count");
    ("ps_machine.ns_per_input", "ns");
    ("ps_machine.words_per_input", "words");
    ("store.execute_ns", "ns");
    ("store.prepare_ns", "ns");
    ("store.apply_ns", "ns");
    ("store.words_per_op", "words");
    ("lock_manager.acquires_per_txn", "count");
    ("lock_manager.granted_ratio", "ratio");
    ("lock_manager.die_per_ktxn", "count");
    ("lock_manager.killed_per_ktxn", "count");
    ("wal.appends_per_txn", "count");
    ("wal.forces_per_txn", "count");
    ("wal.retained_per_txn", "count");
    ("proof.evals_per_txn", "count");
    ("proof.ns_per_eval", "ns");
    ("proof.words_per_eval", "words");
    ("policy.fetches_per_txn", "count");
    ("journal.records_per_txn", "count");
    ("journal.bytes_per_txn", "bytes");
    ("journal.ns_per_record", "ns");
    ("codec_bin.encode_ns_per_record", "ns");
    ("codec_bin.decode_ns_per_record", "ns");
    ("codec_bin.words_per_record", "words");
    ("health.ns_per_record", "ns");
    ("blame.ns_per_record", "ns");
    ("journal_io.ns_per_record", "ns");
    ("journal_io.words_per_record", "words");
    ("journal_io.share", "ratio");
    ("codec_json.parse_ns_per_record", "ns");
    ("codec_json.render_ns_per_record", "ns");
    ("audit.self_ns_per_record", "ns");
    ("audit.krec_per_s", "krec/s");
    ("certify.self_ns_per_record", "ns");
    ("certify.krec_per_s", "krec/s");
    ("certify.edges_per_txn", "count");
    ("certify.ns_per_edge", "ns");
    ("blame.self_ns_per_record", "ns");
    ("blame.krec_per_s", "krec/s");
    ("watch.self_ns_per_record", "ns");
    ("watch.krec_per_s", "krec/s");
    ("report.self_ns_per_record", "ns");
    ("report.krec_per_s", "krec/s");
    ("scenario.build_ms", "ms");
    ("generator.ns_per_input", "ns");
    ("gc.promoted_words_per_txn", "words");
    ("gc.minor_gcs_per_ktxn", "count");
    ("gc.major_gcs_per_ktxn", "count");
    ("traced.overhead_ratio", "ratio");
    ("traced.attributed_share", "ratio");
  ]

type result = {
  attempted : int;
  values : (string * float) list;
  log : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Timing helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* [measure f] — nanoseconds and minor words [f] took. *)
let measure f =
  let w0 = Gc.minor_words () in
  let t0 = Host.now_ns () in
  let r = f () in
  let t1 = Host.now_ns () in
  (r, Int64.to_float (Int64.sub t1 t0), Gc.minor_words () -. w0)

(* Per-layer totals by name: calls, nanoseconds and minor words. *)
type bucket = { mutable calls : int; mutable ns : float; mutable words : float }

type tally = (string, bucket) Hashtbl.t

let bucket (t : tally) name =
  match Hashtbl.find_opt t name with
  | Some b -> b
  | None ->
    let b = { calls = 0; ns = 0.; words = 0. } in
    Hashtbl.add t name b;
    b

let add t name ~calls ~ns ~words =
  let b = bucket t name in
  b.calls <- b.calls + calls;
  b.ns <- b.ns +. ns;
  b.words <- b.words +. words

(* [timed t name ~calls f] runs [f] as one measured stretch of [calls]
   calls to the layer. *)
let timed t name ~calls f =
  let r, ns, words = measure f in
  add t name ~calls ~ns ~words;
  r

(* What [measure] adds to the call it times (two clock reads and the
   words they box), subtracted from every per-call charge. *)
let overhead =
  lazy
    (let n = 100_000 in
     let ns = ref 0. and words = ref 0. in
     for _ = 1 to n do
       let (), t, w = measure ignore in
       ns := !ns +. t;
       words := !words +. w
     done;
     (!ns /. float_of_int n, !words /. float_of_int n))

(* [charge t name f] times one call interleaved with other layers'. *)
let charge t name f =
  let r, ns, words = measure f in
  let ovh_ns, ovh_words = Lazy.force overhead in
  add t name ~calls:1 ~ns:(ns -. ovh_ns) ~words:(words -. ovh_words);
  r

let per a b = if b = 0 then 0. else a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* The capture                                                         *)
(* ------------------------------------------------------------------ *)

type record = {
  seq : int;
  time_ms : float;
  node : string;
  dir : string;
  raw : string;  (** the frame's payload bytes *)
  payload : Codec_bin.payload option;  (** [None] for dir=event records *)
}

type journal = { contents : string; records : record array }

type capture = {
  journals : journal list;  (** binary, one per captured cluster *)
  fresh : unit -> Scenario.t;
      (** a cluster in the captured runs' initial state, for the store
          and proof replays *)
  traced_s : float;  (** CPU seconds of the captured runs *)
  untraced_s : float;  (** the same inputs, tracing off *)
  untraced_gc : Host.gc;
  engine : (float * float * float) option;
      (** live engine steps, pending mean and max, where the benchmark
          owns the engine *)
  registry : Registry.t option;
  observers : bool;  (** Health and Blame rode the live journal *)
  jsonl : bool;  (** the live journal was JSONL *)
  generator_ns : float;  (** per generated input *)
  scenario_ms : float;
}

let decode contents =
  match Journal.decode_binary contents with
  | Error m -> Oracle.fail "captured journal: %s" m
  | Ok d ->
    let records =
      Array.of_list
        (List.map
           (fun (f : Journal.frame) ->
             let payload =
               if String.equal f.Journal.dir "event" then None
               else
                 match Codec_bin.payload_of_string f.Journal.payload with
                 | Ok p -> Some p
                 | Error m -> Oracle.fail "captured journal seq %d: %s" f.Journal.seq m
             in
             {
               seq = f.Journal.seq;
               time_ms = f.Journal.time_ms;
               node = f.Journal.node;
               dir = f.Journal.dir;
               raw = f.Journal.payload;
               payload;
             })
           d.Journal.frames)
    in
    { contents; records }

let median_ms reps f =
  Stats.median
    (List.init reps (fun _ -> 1000. *. snd (Host.timed (fun () -> ignore (f ())))))

(* closed-*, and analyze (which records the closed-bare stream): the
   traced run is a prefix of the workload's own stream. *)
let capture_closed (c : W.closed) ~seed ~n ~tracer =
  let txns, gen_s, scenario_ms =
    W.span tracer "setup" (fun _ ->
        let sc = W.scenario c ~seed in
        let txns, gen_s = Host.timed (fun () -> W.gen_txns c sc ~seed ~n) in
        (txns, gen_s, median_ms 5 (fun () -> W.scenario c ~seed)))
  in
  let batch = W.batch_of n in
  let first = Hashtbl.create 1 in
  let g0 = Host.gc () in
  let untraced = W.closed_run c ~seed ~tracer:Tracer.noop txns ~total:n ~batch in
  let untraced_gc = Host.gc_since g0 in
  W.check_closed c ~seed ~total:n ~first untraced;
  let engine = ref None and steps0 = ref 0 in
  let pending = ref [] in
  let prepare (sc : Scenario.t) =
    let e = Transport.engine (Cluster.transport sc.Scenario.cluster) in
    engine := Some e;
    steps0 := Engine.steps e
  in
  let on_submit _ =
    Option.iter (fun e -> pending := float_of_int (Engine.pending e) :: !pending) !engine
  in
  let traced =
    W.closed_run c ~seed ~tracer ~record:`Traced ~prepare ~on_submit txns ~total:n
      ~batch
  in
  W.check_closed c ~seed ~total:n ~first traced;
  let tr = Cluster.transport traced.W.sc.Scenario.cluster in
  let e = Option.get !engine in
  {
    journals = [ decode (Journal.to_string (Transport.journal tr)) ];
    fresh = (fun () -> W.scenario c ~seed);
    traced_s = traced.W.run_cpu_s;
    untraced_s = untraced.W.run_cpu_s;
    untraced_gc;
    engine =
      Some
        ( float_of_int (Engine.steps e - !steps0),
          List.fold_left ( +. ) 0. !pending /. float_of_int (List.length !pending),
          List.fold_left Float.max 0. !pending );
    registry = Some (Transport.registry tr);
    observers = c.W.observers;
    jsonl = false;
    generator_ns = gen_s *. 1e9 /. float_of_int n;
    scenario_ms;
  }

(* chaos-gray: sampled campaign runs, journaled through to files in the
   campaign's own JSONL format. *)
let capture_chaos ~seed ~plans ~tracer =
  let gen = 1000 in
  let fresh () = Scenario.retail ~n_servers:3 ~n_subjects:3 () in
  let runs, gen_s, scenario_ms =
    W.span tracer "setup" (fun _ ->
        let _, gen_s =
          Host.timed (fun () ->
              List.init gen (fun i -> Plan.random ~seed:(Int64.of_int i) ()))
        in
        (W.chaos_runs ~seed plans, gen_s, median_ms 5 fresh))
  in
  let g0 = Host.gc () in
  let (), untraced_s =
    Host.timed (fun () ->
        List.iter
          (fun (cell, plan) -> W.check_verdict cell plan (W.run_plan cell plan))
          runs)
  in
  let untraced_gc = Host.gc_since g0 in
  let paths =
    List.mapi (fun i _ -> W.work_file (Printf.sprintf "chaos-%d.jsonl" i)) runs
  in
  let (), traced_s =
    Host.timed (fun () ->
        List.iter2
          (fun (cell, plan) journal_path ->
            W.span tracer "campaign.run" (fun _ ->
                W.check_verdict cell plan (W.run_plan ~journal_path cell plan)))
          runs paths)
  in
  let journals =
    List.map
      (fun path ->
        let jsonl = In_channel.with_open_bin path In_channel.input_all in
        match Journal_io.convert ~to_:Journal.Binary jsonl with
        | Ok bin -> decode bin
        | Error m -> Oracle.fail "%s: %s" path m)
      paths
  in
  {
    journals;
    fresh;
    traced_s;
    untraced_s;
    untraced_gc;
    engine = None;
    registry = None;
    observers = false;
    jsonl = true;
    generator_ns = gen_s *. 1e9 /. float_of_int gen;
    scenario_ms;
  }

(* ------------------------------------------------------------------ *)
(* Journal-derived counts                                              *)
(* ------------------------------------------------------------------ *)

type counts = {
  mutable records : int;
  mutable bytes : int;
  mutable committed : int;
  mutable tm_steps : int;
  mutable ps_steps : int;
  mutable sends : int;
  mutable fetches : int;
  mutable proofs : int;
  (* from the store replay *)
  mutable acquires : int;
  mutable granted : int;
  mutable dies : int;
  mutable killed : int;
  mutable appends : int;
  mutable forces : int;
  mutable retained : int;
}

let no_counts () =
  {
    records = 0;
    bytes = 0;
    committed = 0;
    tm_steps = 0;
    ps_steps = 0;
    sends = 0;
    fetches = 0;
    proofs = 0;
    acquires = 0;
    granted = 0;
    dies = 0;
    killed = 0;
    appends = 0;
    forces = 0;
    retained = 0;
  }

let count_journal (c : counts) (j : journal) =
  let journaled = Hashtbl.create 16 in
  Array.iter (fun r -> Hashtbl.replace journaled r.node ()) j.records;
  c.records <- c.records + Array.length j.records;
  c.bytes <- c.bytes + String.length j.contents;
  Array.iter
    (fun r ->
      match r.payload with
      | Some (Codec_bin.Create_tm _) -> c.tm_steps <- c.tm_steps + 1
      | Some (Codec_bin.Tm_input i) -> (
        c.tm_steps <- c.tm_steps + 1;
        match i with
        | Tm.Deliver { src; msg } ->
          (* Senders outside the journal (the master) show only here. *)
          if not (Hashtbl.mem journaled src) then c.sends <- c.sends + 1;
          (match msg with
          | Message.Master_version_reply _ -> c.fetches <- c.fetches + 1
          | _ -> ())
        | _ -> ())
      | Some (Codec_bin.Ps_input i) -> (
        c.ps_steps <- c.ps_steps + 1;
        match i with
        | Ps.Deliver { src; _ } when not (Hashtbl.mem journaled src) ->
          c.sends <- c.sends + 1
        | Ps.Evaluated { proofs; _ } -> c.proofs <- c.proofs + List.length proofs
        | _ -> ())
      | Some (Codec_bin.Tm_action (Tm.Send _)) | Some (Codec_bin.Ps_action (Ps.Send _))
        ->
        c.sends <- c.sends + 1
      | Some (Codec_bin.Tm_action (Tm.Finish { committed = true; _ })) ->
        c.committed <- c.committed + 1
      | _ -> ())
    j.records

(* ------------------------------------------------------------------ *)
(* Protocol machines                                                   *)
(* ------------------------------------------------------------------ *)

type step =
  | Tm_start of int * Tm.config * Cloudtx_txn.Transaction.t * float
  | Tm_step of int * Tm.input
  | Ps_create of int * string * Cloudtx_txn.Tpc.variant * float
  | Ps_step of int * Ps.input

(* Replays every journaled machine input into fresh machines: TM and PS
   steps in two timed loops (decoding happens before), then checks that
   each input's replayed actions byte-match the action records that
   follow it. *)
let machines t (j : journal) =
  let slots = Hashtbl.create 64 in
  let slot name =
    match Hashtbl.find_opt slots name with
    | Some s -> s
    | None ->
      let s = Hashtbl.length slots in
      Hashtbl.add slots name s;
      s
  in
  let tm = ref [] and ps = ref [] in
  Array.iteri
    (fun i r ->
      match r.payload with
      | Some (Codec_bin.Create_tm { config; txn; submitted_at }) ->
        tm := (i, Tm_start (slot r.node, config, txn, submitted_at)) :: !tm
      | Some (Codec_bin.Tm_input input) -> tm := (i, Tm_step (slot r.node, input)) :: !tm
      | Some (Codec_bin.Create_ps { variant; inquiry_timeout }) ->
        ps := (i, Ps_create (slot r.node, r.node, variant, inquiry_timeout)) :: !ps
      | Some (Codec_bin.Ps_input input) -> ps := (i, Ps_step (slot r.node, input)) :: !ps
      | _ -> ())
    j.records;
  let tm = Array.of_list (List.rev !tm) and ps = Array.of_list (List.rev !ps) in
  let n = Hashtbl.length slots in
  let tms = Array.make n None and pss = Array.make n None in
  let replay name ~calls steps =
    let out = Array.make (Array.length steps) [] in
    timed t name ~calls (fun () ->
          Array.iteri
            (fun k (_, step) ->
              match step with
              | Tm_start (s, cfg, txn, submitted_at) ->
                let m = Tm.create cfg txn ~submitted_at in
                tms.(s) <- Some m;
                out.(k) <- List.map (fun a -> Codec_bin.Tm_action a) (Tm.start m)
              | Tm_step (s, input) ->
                out.(k) <-
                  List.map
                    (fun a -> Codec_bin.Tm_action a)
                    (Tm.handle (Option.get tms.(s)) input)
              | Ps_create (s, name, variant, inquiry_timeout) ->
                pss.(s) <- Some (Ps.create ~name ~variant ~inquiry_timeout ())
              | Ps_step (s, input) ->
                out.(k) <-
                  List.map
                    (fun a -> Codec_bin.Ps_action a)
                    (Ps.handle (Option.get pss.(s)) input))
            steps);
    out
  in
  let conform steps out =
    Array.iteri
      (fun k (i, _) ->
        let node = j.records.(i).node in
        List.iteri
          (fun d a ->
            let at = i + 1 + d in
            let r = if at < Array.length j.records then Some j.records.(at) else None in
            match r with
            | Some r
              when String.equal r.node node && String.equal r.dir "action"
                   && String.equal r.raw (Codec_bin.payload_to_string a) ->
              ()
            | _ ->
              Oracle.fail "machine replay: seq %d (%s): replayed action %d diverges"
                j.records.(i).seq node (d + 1))
          out.(k);
        let next = i + 1 + List.length out.(k) in
        if next < Array.length j.records then begin
          let r = j.records.(next) in
          if String.equal r.node node && String.equal r.dir "action" then
            Oracle.fail "machine replay: seq %d (%s): recorded action not replayed"
              r.seq node
        end)
      steps
  in
  let replay_checked name ~calls steps =
    match replay name ~calls steps with
    | exception Invalid_argument m -> Oracle.fail "machine replay rejected an input: %s" m
    | out -> conform steps out
  in
  let inputs =
    Array.fold_left (fun n (_, s) -> match s with Ps_step _ -> n + 1 | _ -> n) 0 ps
  in
  replay_checked "tm_machine" ~calls:(Array.length tm) tm;
  replay_checked "ps_machine" ~calls:inputs ps

(* ------------------------------------------------------------------ *)
(* Store and proofs                                                    *)
(* ------------------------------------------------------------------ *)

(* Replays every journaled store action into a fresh [Server] per node,
   in the order [Participant] performs them: an input's actions
   in turn, each synchronous result (execute, evaluate, prepare, the
   read-only check) fed back as the next input on that node before the
   following action runs.  Each result must equal the one the journal
   recorded; proofs are evaluated through [Proof.evaluate] against the
   node's replica, whose versions follow the journaled installs. *)
let store_replay t (c : counts) ~fresh (j : journal) =
  let sc : Scenario.t = fresh () in
  let domain = sc.Scenario.domain in
  let env =
    {
      Proof.find_ca =
        (fun issuer -> if String.equal issuer (Ca.name sc.Scenario.ca) then Some sc.Scenario.ca else None);
      trusted_server = (fun issuer -> List.mem issuer sc.Scenario.servers);
      context = (fun () -> []);
    }
  in
  let servers = Hashtbl.create 8 in
  let server name =
    match Hashtbl.find_opt servers name with
    | Some s -> s
    | None ->
      let live = Participant.server (Cluster.participant sc.Scenario.cluster name) in
      let keys = Server.keys live in
      let srv =
        Server.create ~name
          ~constraints:(List.map Integrity.non_negative keys)
          ~items:(List.map (fun k -> (k, Option.get (Server.get live k))) keys)
          ()
      in
      Option.iter
        (fun p -> ignore (Replica.install (Server.replica srv) p))
        (Replica.get (Server.replica live) ~domain);
      Lock_manager.set_observer (Server.locks srv)
        (Some
           {
             Lock_manager.on_acquire =
               (fun ~txn:_ ~key:_ ~mode:_ ~outcome ->
                 c.acquires <- c.acquires + 1;
                 match outcome with
                 | Lock_manager.Granted -> c.granted <- c.granted + 1
                 | Lock_manager.Die -> c.dies <- c.dies + 1
                 | Lock_manager.Queued -> ());
             on_promoted = (fun ~txn:_ ~key:_ ~mode:_ -> ());
             on_killed = (fun ~txn:_ ~key:_ -> c.killed <- c.killed + 1);
           });
      Wal.set_observer (Server.wal srv)
        (Some
           (fun ~time:_ ~forced ~tag:_ ->
             c.appends <- c.appends + 1;
             if forced then c.forces <- c.forces + 1));
      Hashtbl.add servers name srv;
      srv
  in
  (* Each node's records in order, consumed through a cursor. *)
  let by_node = Hashtbl.create 16 in
  Array.iteri
    (fun i r ->
      match r.payload with
      | Some (Codec_bin.Create_ps _ | Codec_bin.Ps_input _ | Codec_bin.Ps_action _) ->
        Hashtbl.replace by_node r.node
          (i :: Option.value ~default:[] (Hashtbl.find_opt by_node r.node))
      | _ -> ())
    j.records;
  let queues = Hashtbl.create 16 in
  Hashtbl.iter
    (fun node is -> Hashtbl.add queues node (ref (List.rev is)))
    by_node;
  let take node =
    let q = Hashtbl.find queues node in
    match !q with
    | [] -> Oracle.fail "store replay (%s): journal ends mid-step" node
    | i :: rest ->
      q := rest;
      i
  in
  let peek node =
    match Hashtbl.find_opt queues node with
    | Some { contents = i :: _ } -> Some i
    | _ -> None
  in
  let seen = Hashtbl.create 8 in
  let recovered = Hashtbl.create 4 in
  let rec input node i =
    let r = j.records.(i) in
    (match r.payload with
    | Some (Codec_bin.Ps_input (Ps.Recovered { in_doubt; _ })) ->
      let live = List.map (fun (t, _, _) -> t) in_doubt in
      let replayed = Option.value ~default:[] (Hashtbl.find_opt recovered node) in
      if List.sort compare live <> List.sort compare replayed then
        Oracle.fail "store replay: seq %d (%s): recovery found other in-doubt txns"
          r.seq node
    | _ -> ());
    let rec actions acc =
      match peek node with
      | Some k
        when k = i + 1 + List.length acc && String.equal j.records.(k).dir "action" ->
        ignore (take node);
        actions (j.records.(k) :: acc)
      | _ -> List.rev acc
    in
    List.iter
      (fun a ->
        match a.payload with
        | Some (Codec_bin.Ps_action a) -> perform node r.time_ms a
        | _ -> Oracle.fail "store replay: seq %d (%s): not a participant action" a.seq node)
      (actions [])
  and feedback node what check =
    let i = take node in
    let r = j.records.(i) in
    (match r.payload with
    | Some (Codec_bin.Ps_input fb) when check fb -> ()
    | _ -> Oracle.fail "store replay: seq %d (%s): %s differs from the journal" r.seq node what);
    input node i
  and perform node time a =
    let srv = server node in
    match a with
    | Ps.Begin_work { txn; ts } ->
      charge t "store.other" (fun () -> Server.begin_work srv ~txn ~ts ~time)
    | Ps.Exec { txn; ts; query; snapshot; _ } ->
      let result =
        charge t "store.execute" (fun () ->
            if snapshot then
              Ps.Executed (Server.execute_snapshot srv ~reads:query.Query.reads ~ts)
            else
              match
                Server.execute srv ~txn ~reads:query.Query.reads
                  ~writes:query.Query.writes
              with
              | Server.Executed reads -> Ps.Executed reads
              | Server.Blocked -> Ps.Blocked
              | Server.Die -> Ps.Die)
      in
      feedback node "execute result" (function
        | Ps.Exec_result { result = r; _ } -> r = result
        | _ -> false)
    | Ps.Eval { subject; credentials; queries; with_proofs; _ } ->
      let truths =
        if not with_proofs then []
        else
          List.map
            (fun (q : Query.t) ->
              let policy = Option.get (Replica.get (Server.replica srv) ~domain) in
              let request =
                { Proof.subject; action = Query.action q; items = Query.items q }
              in
              (charge t "proof" (fun () ->
                   Proof.evaluate ~query_id:q.Query.id ~server:node ~policy
                     ~creds:credentials ~env ~at:time request))
                .Proof.result)
            queries
      in
      feedback node "proof truth" (function
        | Ps.Evaluated { proofs; _ } ->
          List.map (fun (p : Proof.t) -> p.Proof.result) proofs = truths
        | _ -> false)
    | Ps.Check_read_only { txn; _ } ->
      let read_only, integrity_ok =
        charge t "store.other" (fun () ->
            let ro = Server.is_read_only srv ~txn in
            (ro, ro && Server.integrity_violations srv ~txn = []))
      in
      feedback node "read-only check" (function
        | Ps.Read_only_result r ->
          r.read_only = read_only && r.integrity_ok = integrity_ok
        | _ -> false)
    | Ps.Prepare { txn; proof_truth; policy_versions } ->
      let vote =
        charge t "store.prepare" (fun () ->
            Server.prepare srv ~txn ~time ~proof_truth ~policy_versions)
      in
      feedback node "prepare vote" (function
        | Ps.Prepared { vote = v; _ } -> v = vote
        | _ -> false)
    | Ps.Apply { txn; commit; forced; _ } ->
      charge t "store.apply" (fun () ->
          ignore
            ((if commit then Server.commit else Server.abort)
               ~forced srv ~txn ~time);
          Server.finish srv ~txn ~time)
    | Ps.Forget { txn } ->
      charge t "store.apply" (fun () -> ignore (Server.forget srv ~txn ~time))
    | Ps.Install { policies; _ } ->
      List.iter (fun p -> ignore (Replica.install (Server.replica srv) p)) policies
    | Ps.Send _ | Ps.Wait_open _ | Ps.Wait_close _ | Ps.Arm_inquiry _ | Ps.Mark _ -> ()
  in
  Array.iteri
    (fun i r ->
      if peek r.node = Some i then begin
        ignore (take r.node);
        match r.payload with
        | Some (Codec_bin.Create_ps _) ->
          let srv = server r.node in
          if Hashtbl.mem seen r.node then begin
            (* A repeated create is a crash and recovery. *)
            Server.crash srv;
            Hashtbl.replace recovered r.node (Server.recover srv ~time:r.time_ms)
          end;
          Hashtbl.replace seen r.node ()
        | Some (Codec_bin.Ps_input _) -> input r.node i
        | _ -> Oracle.fail "store replay: seq %d (%s): action without its input" r.seq r.node
      end)
    j.records;
  Hashtbl.iter (fun _ srv -> c.retained <- c.retained + Wal.length (Server.wal srv)) servers

(* ------------------------------------------------------------------ *)
(* Transport and event heap                                            *)
(* ------------------------------------------------------------------ *)

(* Journaled sends replayed into a fresh transport with sink handlers,
   each sent at its journaled time after the earlier ones due by then
   were delivered, so the queue holds what was in flight. *)
let transport_replay t (j : journal) =
  let sends =
    Array.to_list j.records
    |> List.filter_map (fun r ->
           match r.payload with
           | Some (Codec_bin.Tm_action (Tm.Send { dst; msg }))
           | Some (Codec_bin.Ps_action (Ps.Send { dst; msg; _ })) ->
             Some (r.time_ms, r.node, dst, msg)
           | _ -> None)
  in
  let tr = Transport.create ~seed:1L ~label_of:Message.label () in
  let delivered = ref 0 in
  List.iter
    (fun (_, _, dst, _) ->
      if not (Transport.registered tr dst) then
        Transport.register tr dst (fun ~src:_ _ -> incr delivered))
    sends;
  let engine = Transport.engine tr in
  let pending = Array.make (List.length sends) 0 in
  timed t "transport" ~calls:(List.length sends) (fun () ->
        List.iteri
          (fun k (time, src, dst, msg) ->
            ignore (Transport.run ~until:time tr);
            pending.(k) <- Engine.pending engine;
            Transport.send tr ~src ~dst msg)
          sends;
        ignore (Transport.run tr));
  Oracle.check (!delivered = List.length sends) "transport replay: %d of %d delivered"
    !delivered (List.length sends);
  (Engine.steps engine, Array.to_list pending)

(* The hold model: a heap kept at [depth] entries, each op popping the
   earliest event and pushing its successor. *)
let event_heap_holds t ~depth ~ops =
  let rng = Splitmix.create 7L in
  let gaps = Array.init 4096 (fun _ -> Splitmix.exponential rng ~mean:1.) in
  let h = Event_heap.create () in
  for k = 0 to depth - 1 do
    Event_heap.push h ~time:gaps.(k land 4095) ~seq:k ()
  done;
  let seq = ref depth in
  timed t "event_heap" ~calls:ops (fun () ->
        for k = 1 to ops do
          match Event_heap.pop h with
          | Some (t, _, ()) ->
            Event_heap.push h ~time:(t +. gaps.(k land 4095)) ~seq:!seq ();
            incr seq
          | None -> ()
        done);
  Oracle.check (Event_heap.size h = depth) "event heap: %d entries after holds, expected %d"
    (Event_heap.size h) depth

(* ------------------------------------------------------------------ *)
(* Journal, codecs and live observers                                  *)
(* ------------------------------------------------------------------ *)

(* Re-record the captured payloads into a fresh binary journal, bare and
   then with each live observer attached; the bare copy must come out
   byte-identical to the capture. *)
let rerecord t name (j : journal) ~attach =
  let now = ref 0. in
  let journal = Journal.create ~clock:(fun () -> !now) ~format:Journal.Binary () in
  let extra = attach journal in
  timed t name ~calls:(Array.length j.records) (fun () ->
      Array.iter
        (fun r ->
          now := r.time_ms;
          Journal.record journal ~node:r.node ~dir:r.dir ~payload:r.raw)
        j.records);
  (journal, extra)

let codec_bin t (j : journal) =
  let payloads =
    Array.of_list
      (List.filter_map
         (fun r -> Option.map (fun p -> (r.raw, p)) r.payload)
         (Array.to_list j.records))
  in
  let w = Wbuf.create 4096 in
  let calls = Array.length payloads in
  timed t "codec_bin.encode" ~calls (fun () ->
      Array.iter
        (fun (_, p) ->
          Wbuf.clear w;
          Codec_bin.emit_payload w p)
        payloads);
  timed t "codec_bin.decode" ~calls (fun () ->
      Array.iter (fun (raw, _) -> ignore (Codec_bin.payload_of_string raw)) payloads);
  Array.iter
    (fun (raw, p) ->
      Wbuf.clear w;
      Codec_bin.emit_payload w p;
      if not (String.equal (Wbuf.contents w) raw) then
        Oracle.fail "codec_bin: re-encoded payload differs from the journal")
    payloads

(* ------------------------------------------------------------------ *)
(* The analysis                                                        *)
(* ------------------------------------------------------------------ *)

(* The observers that ride a live journal, fed the same records again:
   each must build exactly what an offline replay of the file builds. *)
let observers t (j : journal) path =
  let _, ts =
    rerecord t "observer.health" j ~attach:(fun journal ->
        let ts = Timeseries.create ~width_ms:100. () in
        let monitor = Monitor.create ~notify:(Timeseries.note_alert ts) () in
        ignore (Health.attach ~timeseries:ts journal monitor);
        ts)
  in
  (match Cloudtx_core.Report_io.of_journal path with
  | Ok (offline, _) ->
    if
      not
        (String.equal (Report.to_json (Report.of_timeseries ts)) (Report.to_json offline))
    then Oracle.fail "health: live and offline reports differ"
  | Error m -> Oracle.fail "health: %s" m);
  let _, live = rerecord t "observer.blame" j ~attach:Blame.attach in
  match Blame.of_file path with
  | Ok offline ->
    if not (String.equal (Blame.to_json live) (Blame.to_json offline)) then
      Oracle.fail "blame: live and offline reports differ"
  | Error m -> Oracle.fail "blame: %s" m

(* Loading, the JSON codec and the consumers on one journal file.
   Audit, certify and blame run on the loaded lines with the load split
   out ([<name>.load]); watch and report are timed whole. *)
let consumers t ~tracer (j : journal) path =
  let load () =
    W.span tracer "journal_io.load" (fun _ ->
        match measure (fun () -> Journal_io.of_file path) with
        | Ok loaded, ns, words -> (loaded.Journal_io.lines, ns, words)
        | Error m, _, _ -> Oracle.fail "journal_io: %s" m)
  in
  let lines, ns, words = load () in
  let n = Array.length j.records in
  add t "journal_io" ~calls:n ~ns ~words;
  W.span tracer "replay.codec_json" (fun _ ->
      let records = List.tl lines in
      timed t "codec_json.parse" ~calls:n (fun () ->
          List.iter (fun l -> ignore (Pjson.parse l)) records);
      let rendered =
        timed t "codec_json.render" ~calls:n (fun () ->
            Array.map
              (fun r ->
                match r.payload with
                | Some p -> Codec.to_string (Codec_bin.payload_to_json p)
                | None -> r.raw)
              j.records)
      in
      List.iteri
        (fun k line ->
          let r = j.records.(k) in
          if
            not
              (String.equal line
                 (Journal.render_jsonl ~seq:r.seq ~time_ms:r.time_ms ~node:r.node
                    ~dir:r.dir ~payload:rendered.(k)))
          then Oracle.fail "codec_json: seq %d renders differently" r.seq)
        records);
  let split name f =
    W.span tracer ("consumer." ^ name) (fun _ ->
        Host.settle ();
        let lines, ns, words = load () in
        add t (name ^ ".load") ~calls:n ~ns ~words;
        timed t name ~calls:n (fun () -> f lines))
  in
  let whole name f =
    W.span tracer ("consumer." ^ name) (fun _ ->
        Host.settle ();
        timed t name ~calls:n f)
  in
  (match split "audit" (fun lines -> Audit.run ~lines) with
  | Ok a ->
    Oracle.check (a.Audit.records = n) "audit: %d of %d records" a.Audit.records n
  | Error m -> Oracle.fail "audit: %s" m);
  (match split "certify" (fun lines -> Certify.run ~lines) with
  | Ok r ->
    W.serializable "certify" r;
    add t "certify.edges" ~calls:(List.length r.Certify.edges) ~ns:0. ~words:0.
  | Error m -> Oracle.fail "certify: %s" m);
  (match split "blame" (fun lines -> Blame.of_lines lines) with
  | Ok b ->
    Oracle.check (Blame.uncovered b = []) "blame: %d transaction(s) uncovered"
      (List.length (Blame.uncovered b))
  | Error m -> Oracle.fail "blame: %s" m);
  let fed, _alerts = whole "watch" (fun () -> W.watch path) in
  Oracle.check (fed = n) "watch: %d of %d records" fed n;
  ignore (whole "report" (fun () -> W.report path))

let run_capture (cap : capture) ~tracer ~size =
  let t : tally = Hashtbl.create 32 in
  let c = no_counts () in
  List.iter (count_journal c) cap.journals;
  Oracle.check (c.committed > 0) "traced run committed nothing";
  let replay name f = W.span tracer ("replay." ^ name) (fun _ -> List.iter f cap.journals) in
  replay "machines" (machines t);
  replay "store" (store_replay t c ~fresh:cap.fresh);
  let steps = ref 0 and pending = ref [] in
  replay "transport" (fun j ->
      let s, p = transport_replay t j in
      steps := !steps + s;
      pending := List.rev_append (List.map float_of_int p) !pending);
  let events, pending_mean, pending_max =
    match cap.engine with
    | Some e -> e
    | None ->
      ( float_of_int !steps,
        List.fold_left ( +. ) 0. !pending /. float_of_int (max 1 (List.length !pending)),
        List.fold_left Float.max 0. !pending )
  in
  let holds = match size with W.Full -> 1_000_000 | W.Smoke -> 10_000 in
  W.span tracer "replay.event_heap" (fun _ ->
      event_heap_holds t ~depth:(max 1 (int_of_float (Float.round pending_mean))) ~ops:holds);
  replay "journal" (fun j ->
      let copy, () = rerecord t "journal" j ~attach:ignore in
      if not (String.equal (Journal.to_string copy) j.contents) then
        Oracle.fail "journal: re-recorded journal differs from the capture");
  let paths =
    List.mapi
      (fun i (j : journal) ->
        let path = W.work_file (Printf.sprintf "traced-%d.bin" i) in
        W.write_file path j.contents;
        path)
      cap.journals
  in
  W.span tracer "replay.observers" (fun _ -> List.iter2 (observers t) cap.journals paths);
  replay "codec_bin" (codec_bin t);
  List.iter2 (consumers t ~tracer) cap.journals paths;
  (* Live registry, where the capture had one, must agree with the
     replays' own counts. *)
  (match cap.registry with
  | None -> ()
  | Some reg ->
    let agree what live replayed =
      Oracle.check (live = replayed) "%s: registry %d, replay %d" what live replayed
    in
    let total = Registry.counter_total reg in
    agree "lock acquires" (total "lock_acquire_total") c.acquires;
    agree "lock kills" (total "lock_killed_total") c.killed;
    agree "WAL appends" (total "wal_append_total") c.appends;
    agree "proofs" (total "proofs_total") c.proofs;
    agree "messages" (total "messages_total") c.sends);
  let b = bucket t in
  let ns name = (b name).ns in
  let ns_per name = per (b name).ns (b name).calls in
  let words_per name = per (b name).words (b name).calls in
  Oracle.check ((b "proof").calls = c.proofs) "proofs: %d replayed, %d journaled"
    (b "proof").calls c.proofs;
  let txn = float_of_int c.committed in
  let per_txn x = x /. txn and per_ktxn n = 1000. *. float_of_int n /. txn in
  let per_rec x = per x c.records in
  let store = [ "store.execute"; "store.prepare"; "store.apply"; "store.other" ] in
  let sum f names = List.fold_left (fun a name -> a +. f (b name)) 0. names in
  (* A consumer's whole time: its load plus its own work, or its file
     replay for watch and report; their own work less their loads. *)
  let whole name = ns name +. ns (name ^ ".load") in
  let load = ns "journal_io" in
  let krec_per_s total_ns = float_of_int c.records /. total_ns *. 1e6 in
  let consumers_ns = whole "audit" +. whole "certify" +. whole "blame" +. ns "watch" +. ns "report" in
  let values =
    [
      ("engine.events_per_txn", per_txn events);
      ("engine.pending_mean", pending_mean);
      ("engine.pending_max", pending_max);
      ("event_heap.ns_per_op", ns_per "event_heap");
      ("event_heap.words_per_op", words_per "event_heap");
      ("transport.msgs_per_txn", per_txn (float_of_int c.sends));
      ("transport.ns_per_send", ns_per "transport");
      ("transport.words_per_send", words_per "transport");
      ("tm_machine.inputs_per_txn", per_txn (float_of_int c.tm_steps));
      ("tm_machine.ns_per_input", ns_per "tm_machine");
      ("tm_machine.words_per_input", words_per "tm_machine");
      ("ps_machine.inputs_per_txn", per_txn (float_of_int c.ps_steps));
      ("ps_machine.ns_per_input", ns_per "ps_machine");
      ("ps_machine.words_per_input", words_per "ps_machine");
      ("store.execute_ns", ns_per "store.execute");
      ("store.prepare_ns", ns_per "store.prepare");
      ("store.apply_ns", ns_per "store.apply");
      ( "store.words_per_op",
        sum (fun b -> b.words) store /. sum (fun b -> float_of_int b.calls) store );
      ("lock_manager.acquires_per_txn", per_txn (float_of_int c.acquires));
      ("lock_manager.granted_ratio", per (float_of_int c.granted) c.acquires);
      ("lock_manager.die_per_ktxn", per_ktxn c.dies);
      ("lock_manager.killed_per_ktxn", per_ktxn c.killed);
      ("wal.appends_per_txn", per_txn (float_of_int c.appends));
      ("wal.forces_per_txn", per_txn (float_of_int c.forces));
      ("wal.retained_per_txn", per_txn (float_of_int c.retained));
      ("proof.evals_per_txn", per_txn (float_of_int c.proofs));
      ("proof.ns_per_eval", ns_per "proof");
      ("proof.words_per_eval", words_per "proof");
      ("policy.fetches_per_txn", per_txn (float_of_int c.fetches));
      ("journal.records_per_txn", per_txn (float_of_int c.records));
      ("journal.bytes_per_txn", per_txn (float_of_int c.bytes));
      ("journal.ns_per_record", ns_per "journal");
      ("codec_bin.encode_ns_per_record", ns_per "codec_bin.encode");
      ("codec_bin.decode_ns_per_record", ns_per "codec_bin.decode");
      ( "codec_bin.words_per_record",
        words_per "codec_bin.encode" +. words_per "codec_bin.decode" );
      ("health.ns_per_record", ns_per "observer.health" -. ns_per "journal");
      ("blame.ns_per_record", ns_per "observer.blame" -. ns_per "journal");
      ("journal_io.ns_per_record", ns_per "journal_io");
      ("journal_io.words_per_record", words_per "journal_io");
      ("journal_io.share", 6. *. load /. consumers_ns);
      ("codec_json.parse_ns_per_record", ns_per "codec_json.parse");
      ("codec_json.render_ns_per_record", ns_per "codec_json.render");
      ("audit.self_ns_per_record", ns_per "audit");
      ("audit.krec_per_s", krec_per_s (whole "audit"));
      ("certify.self_ns_per_record", ns_per "certify");
      ("certify.krec_per_s", krec_per_s (whole "certify"));
      ("certify.edges_per_txn", per_txn (float_of_int (b "certify.edges").calls));
      ("certify.ns_per_edge", per (ns "certify") (b "certify.edges").calls);
      ("blame.self_ns_per_record", ns_per "blame");
      ("blame.krec_per_s", krec_per_s (whole "blame"));
      ("watch.self_ns_per_record", per_rec (ns "watch" -. load));
      ("watch.krec_per_s", krec_per_s (ns "watch"));
      ("report.self_ns_per_record", per_rec (ns "report" -. (2. *. load)));
      ("report.krec_per_s", krec_per_s (ns "report"));
      ("scenario.build_ms", cap.scenario_ms);
      ("generator.ns_per_input", cap.generator_ns);
      ("gc.promoted_words_per_txn", per_txn cap.untraced_gc.Host.promoted_words);
      ("gc.minor_gcs_per_ktxn", per_ktxn cap.untraced_gc.Host.minor_gcs);
      ("gc.major_gcs_per_ktxn", per_ktxn cap.untraced_gc.Host.major_gcs);
      ("traced.overhead_ratio", cap.traced_s /. cap.untraced_s);
    ]
  in
  let v name = List.assoc name values in
  (* What the replayed layers account for, per committed transaction, of
     the traced run's host time.  The transport replay pays for its own
     delivery events, so the event heap is not added again. *)
  let attributed =
    (v "transport.msgs_per_txn" *. v "transport.ns_per_send")
    +. (v "tm_machine.inputs_per_txn" *. v "tm_machine.ns_per_input")
    +. (v "ps_machine.inputs_per_txn" *. v "ps_machine.ns_per_input")
    +. per_txn (sum (fun b -> b.ns) ("proof" :: store))
    +. v "journal.records_per_txn"
       *. (v "journal.ns_per_record"
          +. (if cap.jsonl then v "codec_json.render_ns_per_record"
              else v "codec_bin.encode_ns_per_record")
          +. (if cap.observers then v "health.ns_per_record" +. v "blame.ns_per_record"
              else 0.)
          +.
          if cap.jsonl then
            (* each campaign run loads its journal for the retry, audit
               and certify checks, and audits and certifies it *)
            (3. *. v "journal_io.ns_per_record")
            +. v "audit.self_ns_per_record" +. v "certify.self_ns_per_record"
          else 0.)
  in
  let traced_ns_per_txn = cap.traced_s *. 1e9 /. txn in
  (values @ [ ("traced.attributed_share", attributed /. traced_ns_per_txn) ], c)

(* The traced run of each workload: closed-* run a prefix of their own
   stream, analyze records its journal, chaos-gray samples its campaign. *)
let capture (w : W.workload) ~seed ~size ~tracer =
  match w.W.kind with
  | W.Closed c -> capture_closed c ~seed ~n:(W.trace_n c size) ~tracer
  | W.Analyze -> capture_closed W.closed_bare ~seed ~n:(W.analyze_n size) ~tracer
  | W.Chaos ->
    capture_chaos ~seed ~plans:(match size with W.Full -> 2 | W.Smoke -> 1) ~tracer

let run (w : W.workload) ~seed ~size ?trace_out () =
  let t0 = Host.wall_ms () in
  let tracer = Tracer.create ~clock:(fun () -> Host.wall_ms () -. t0) () in
  let cap = capture w ~seed ~size ~tracer in
  let values, cnt = run_capture cap ~tracer ~size in
  Option.iter (fun path -> W.write_file path (Cloudtx_obs.Export.to_chrome tracer)) trace_out;
  {
    attempted = cnt.committed;
    values;
    log =
      [
        ("journals", string_of_int (List.length cap.journals));
        ("records", string_of_int cnt.records);
        ("committed", string_of_int cnt.committed);
        ("spans", string_of_int (Tracer.length tracer));
        ("wall_s", Json.number ((Host.wall_ms () -. t0) /. 1000.));
      ];
  }
