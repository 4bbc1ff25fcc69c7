type event =
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

type txn = {
  txn : string;
  tm_node : string;
  mutable last_step_at : float;
  mutable last_step_seq : int;
  mutable is_open : bool;  (* false once ended or begun again *)
}

(* A domain's observed master version: 0 until one above 0 is seen. *)
type master = { mutable master_version : int }

(* A node's worst replica lag over the run (0: none yet) and its
   replicas, one per domain. *)
type node = {
  name : string;
  mutable worst : int;
  mutable worst_domain : string;
  mutable replicas : replica list;
}

and replica = {
  owner : node;
  domain : string;
  subject : string;  (* "node/domain", the staleness alert's subject *)
  master : master;
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
  txns : (string, txn) Hashtbl.t;  (* open transactions *)
  mutable oldest_step : float;
      (* a lower bound on every open transaction's [last_step_at] *)
  masters : (string, master) Hashtbl.t;  (* domain -> its master *)
  nodes : (string, node) Hashtbl.t;
  replicas : (string * string, replica) Hashtbl.t;
      (* (node, domain), written once per replica: the staleness checks
         that walk every replica go in this table's order *)
  window : bool Queue.t;  (* last abort_window outcomes; true = abort *)
  mutable window_aborts : int;
  kills : (string, int) Hashtbl.t;  (* base txn -> consecutive wait-die *)
  yes_votes : (string, (string * int) list) Hashtbl.t;
      (* txn -> (node, vote seq) of each standing YES vote *)
  flips : (string, float Queue.t) Hashtbl.t;
      (* server -> breaker transition times inside the flap window *)
  rejects : float Queue.t;  (* admission rejection times inside the window *)
  (* alert state *)
  active : (string * string, Slo.alert) Hashtbl.t;  (* rule, subject *)
  mutable all : Slo.alert list;  (* reverse firing order *)
  mutable next_id : int;
  active_per_rule : (string, int) Hashtbl.t;
  mutable transcript : string list;  (* console lines, newest first *)
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
    oldest_step = infinity;
    masters = Hashtbl.create 4;
    nodes = Hashtbl.create 16;
    replicas = Hashtbl.create 16;
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
    transcript = [];
  }

let rules t = t.rules
let alerts t = List.rev t.all
let open_alerts t = List.filter Slo.is_open (alerts t)
let fired_total t = List.length t.all
let console_lines t = List.rev t.transcript

let unresolved_critical t =
  List.length
    (List.filter (fun (a : Slo.alert) -> a.Slo.severity = Slo.Critical)
       (open_alerts t))

let staleness_peak t =
  Hashtbl.fold
    (fun name n acc ->
      if n.worst > 0 then (name, (n.worst, n.worst_domain)) :: acc else acc)
    t.nodes []
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

let say t line =
  t.transcript <- line :: t.transcript;
  t.console line

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
    say t (Slo.console_line `Fire a);
    t.log (Slo.log_line `Fire a);
    t.notify `Fire a

(* [detail] is rendered only when an open alert is resolved. *)
let resolve t ~seq ~time_ms ~rule ~subject ~detail =
  if Hashtbl.length t.active > 0 then
    match Hashtbl.find_opt t.active (rule, subject) with
    | None -> ()
    | Some (a : Slo.alert) ->
      Hashtbl.remove t.active (rule, subject);
      a.Slo.last_seq <- seq;
      a.Slo.detail <- detail ();
      a.Slo.resolved_at <- Some time_ms;
      Hashtbl.replace t.active_per_rule rule
        (max 0
           (Option.value ~default:1 (Hashtbl.find_opt t.active_per_rule rule)
           - 1));
      set_active_gauge t rule;
      say t (Slo.console_line `Resolve a);
      t.log (Slo.log_line `Resolve a);
      t.notify `Resolve a

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

(* stuck_txn: no TM machine step for > stuck_ms while unfinished.  No
   open transaction can be stuck until [stuck_ms] has passed since
   [oldest_step], so only then does the sweep walk them, and it moves
   the bound up to the oldest step it saw. *)
let sweep_stuck t ~seq ~time_ms =
  let stuck_ms = t.rules.Slo.stuck_ms in
  if Float.is_finite stuck_ms && time_ms -. t.oldest_step > stuck_ms then begin
    let oldest = ref infinity in
    Hashtbl.iter
      (fun txn (s : txn) ->
        oldest := Float.min !oldest s.last_step_at;
        let idle = time_ms -. s.last_step_at in
        if idle > stuck_ms then
          fire t ~seq ~time_ms ~rule:"stuck_txn" ~severity:Slo.Critical
            ~subject:txn ~node:s.tm_node
            ~detail:
              (Printf.sprintf
                 "no machine step for %.1fms (last step seq %d at %.1fms)" idle
                 s.last_step_seq s.last_step_at))
      t.txns;
    t.oldest_step <- !oldest
  end

(* Stores only a lower bound: most steps leave it, and a float field is
   written boxed. *)
let note_step t ~time_ms =
  let oldest = Float.min t.oldest_step time_ms in
  if oldest <> t.oldest_step then t.oldest_step <- oldest

(* policy_staleness: replica lags the observed master by more than
   [staleness_versions] versions, or by any amount for longer than
   [staleness_ms].  Returns the lag the time series keeps — that of a
   replica seen at a version above 0 — or 0. *)
let check_staleness t ~seq ~time_ms r =
  let master = r.master.master_version in
  if master = 0 then 0
  else begin
    let lag = master - r.held in
    let n = r.owner in
    if lag > n.worst then begin
      n.worst <- lag;
      n.worst_domain <- r.domain
    end;
    if lag <= 0 then begin
      r.lag_since <- None;
      (* Most replicas are current: build no detail unless an alert is
         open. *)
      if Hashtbl.length t.active > 0 then
        resolve t ~seq ~time_ms ~rule:"policy_staleness" ~subject:r.subject
          ~detail:(fun () ->
            Printf.sprintf "replica caught up to master v%d" master)
    end
    else begin
      if r.lag_since = None then r.lag_since <- Some time_ms;
      let since = Option.value ~default:time_ms r.lag_since in
      if lag > t.rules.Slo.staleness_versions then
        fire t ~seq ~time_ms ~rule:"policy_staleness" ~severity:Slo.Warning
          ~subject:r.subject ~node:n.name
          ~detail:
            (Printf.sprintf "replica holds v%d, master at v%d (%d versions)"
               r.held master lag)
      else if time_ms -. since > t.rules.Slo.staleness_ms then
        fire t ~seq ~time_ms ~rule:"policy_staleness" ~severity:Slo.Warning
          ~subject:r.subject ~node:n.name
          ~detail:
            (Printf.sprintf "replica holds v%d, master at v%d for %.1fms"
               r.held master (time_ms -. since))
    end;
    if r.held > 0 then lag else 0
  end

let sweep_staleness t ~seq ~time_ms =
  (* Only the timed arm needs a clock-driven sweep; the version arm is
     re-checked on every version observation. *)
  if Float.is_finite t.rules.Slo.staleness_ms then
    Hashtbl.iter
      (fun _ r ->
        if r.lag_since <> None then ignore (check_staleness t ~seq ~time_ms r))
      t.replicas

let master t domain =
  match Hashtbl.find t.masters domain with
  | m -> m
  | exception Not_found ->
    let m = { master_version = 0 } in
    Hashtbl.add t.masters domain m;
    m

let note_master t ~seq ~time_ms m version =
  if version > m.master_version then begin
    m.master_version <- version;
    Hashtbl.fold
      (fun _ r worst ->
        if r.master == m then Int.max worst (check_staleness t ~seq ~time_ms r)
        else worst)
      t.replicas 0
  end
  else 0

let rec replica_of domain = function
  | [] -> raise Not_found
  | r :: rest -> if String.equal r.domain domain then r else replica_of domain rest

(* The one lookup a version observation makes: [node]'s replica of
   [domain], created holding [version] when first seen. *)
let replica t node domain version =
  let n =
    match Hashtbl.find t.nodes node with
    | n -> n
    | exception Not_found ->
      let n = { name = node; worst = 0; worst_domain = ""; replicas = [] } in
      Hashtbl.add t.nodes node n;
      n
  in
  match replica_of domain n.replicas with
  | r -> r
  | exception Not_found ->
    let r =
      {
        owner = n;
        domain;
        subject = node ^ "/" ^ domain;
        master = master t domain;
        held = version;
        lag_since = None;
      }
    in
    n.replicas <- r :: n.replicas;
    Hashtbl.add t.replicas (node, domain) r;
    r

let note_replica t ~seq ~time_ms node domain version =
  let r = replica t node domain version in
  if version > r.held then r.held <- version;
  (* A replica can only have evaluated against a version the master once
     published. *)
  let by_master = note_master t ~seq ~time_ms r.master version in
  Int.max by_master (check_staleness t ~seq ~time_ms r)

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
          ~detail:(fun () ->
            Printf.sprintf "abort rate back to %.0f%% over the last %d"
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
        ~detail:(fun () -> Printf.sprintf "%s committed" txn)
  end

(* vote_anomaly: a participant that voted YES whose later proof
   evaluation for the same transaction failed. *)
let note_vote t ~seq txn node vote =
  let others =
    match Hashtbl.find_opt t.yes_votes txn with
    | Some votes -> List.remove_assoc node votes
    | None -> []
  in
  match (vote, others) with
  | true, _ -> Hashtbl.replace t.yes_votes txn ((node, seq) :: others)
  | false, [] -> Hashtbl.remove t.yes_votes txn
  | false, _ -> Hashtbl.replace t.yes_votes txn others

let note_proof t ~seq ~time_ms txn node domain ~result =
  if not result then
    match
      Option.bind (Hashtbl.find_opt t.yes_votes txn) (List.assoc_opt node)
    with
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
        ~detail:(fun () ->
          Printf.sprintf "%d transitions in window (latest %s->%s)" n from_ to_)
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
        ~detail:(fun () -> Printf.sprintf "%d rejections in window" n)
  end

let forget_txn t txn =
  (match Hashtbl.find t.txns txn with
  | s ->
    s.is_open <- false;
    Hashtbl.remove t.txns txn
  | exception Not_found -> ());
  Hashtbl.remove t.yes_votes txn

(* ------------------------------------------------------------------ *)
(* Observations                                                        *)
(* ------------------------------------------------------------------ *)

(* Every observation ends with the clock-driven sweeps. *)
let tick t ~seq ~time_ms =
  sweep_stuck t ~seq ~time_ms;
  sweep_staleness t ~seq ~time_ms

let txn_begin t ~seq ~time_ms ~txn ~node =
  (match Hashtbl.find t.txns txn with
  | s -> s.is_open <- false
  | exception Not_found -> ());
  let s =
    { txn; tm_node = node; last_step_at = time_ms; last_step_seq = seq;
      is_open = true }
  in
  Hashtbl.replace t.txns txn s;
  note_step t ~time_ms;
  tick t ~seq ~time_ms;
  s

let txn_step t ~seq ~time_ms (s : txn) =
  if s.is_open then begin
    s.last_step_at <- time_ms;
    s.last_step_seq <- seq;
    note_step t ~time_ms;
    resolve t ~seq ~time_ms ~rule:"stuck_txn" ~subject:s.txn
      ~detail:(fun () -> "machine stepped again")
  end;
  tick t ~seq ~time_ms

let txn_end t ~seq ~time_ms ~txn ~committed ~reason ~killed =
  resolve t ~seq ~time_ms ~rule:"stuck_txn" ~subject:txn
    ~detail:(fun () ->
      Printf.sprintf "transaction finished (%s)"
        (if committed then "commit" else "abort: " ^ reason));
  if not committed then
    (* The abort contained whatever the YES vote would have admitted. *)
    resolve t ~seq ~time_ms ~rule:"vote_anomaly" ~subject:txn
      ~detail:(fun () -> Printf.sprintf "transaction aborted (%s)" reason);
  forget_txn t txn;
  note_outcome t ~seq ~time_ms ~committed;
  note_kill t ~seq ~time_ms txn ~killed ~committed;
  tick t ~seq ~time_ms

let master_version t ~seq ~time_ms ~domain ~version =
  let lag = note_master t ~seq ~time_ms (master t domain) version in
  tick t ~seq ~time_ms;
  lag

let replica_version t ~seq ~time_ms ~node ~domain ~version =
  let lag = note_replica t ~seq ~time_ms node domain version in
  tick t ~seq ~time_ms;
  lag

let proof_result t ~seq ~time_ms ~txn ~node ~domain ~version ~result =
  let lag = note_replica t ~seq ~time_ms node domain version in
  note_proof t ~seq ~time_ms txn node domain ~result;
  tick t ~seq ~time_ms;
  lag

let vote t ~seq ~time_ms ~txn ~node ~vote =
  note_vote t ~seq txn node vote;
  tick t ~seq ~time_ms

let observe t ~seq ~time_ms = function
  | Txn_begin { txn; node; scheme = _; level = _ } ->
    ignore (txn_begin t ~seq ~time_ms ~txn ~node)
  | Txn_step { txn } -> (
    match Hashtbl.find t.txns txn with
    | s -> txn_step t ~seq ~time_ms s
    | exception Not_found -> tick t ~seq ~time_ms)
  | Txn_end { txn; committed; reason; killed } ->
    txn_end t ~seq ~time_ms ~txn ~committed ~reason ~killed
  | Master_version { domain; version } ->
    ignore (master_version t ~seq ~time_ms ~domain ~version)
  | Replica_version { node; domain; version } ->
    ignore (replica_version t ~seq ~time_ms ~node ~domain ~version)
  | Vote { txn; node; vote = v } -> vote t ~seq ~time_ms ~txn ~node ~vote:v
  | Proof_result { txn; node; domain; version; result } ->
    ignore (proof_result t ~seq ~time_ms ~txn ~node ~domain ~version ~result)
  | Breaker_transition { server; from_; to_ } ->
    note_breaker t ~seq ~time_ms server ~from_ ~to_;
    tick t ~seq ~time_ms
  | Admission_reject { txn; reason; server } ->
    note_reject t ~seq ~time_ms ~txn ~reason ~server;
    tick t ~seq ~time_ms
