(* Thin driver binding {!Cloudtx_protocol.Ps_machine} to a simulated
   server: store, lock manager, policy replica, WAL and the transport's
   observability sinks.  All protocol decisions live in the machine; this
   file only interprets its actions and feeds local results back. *)

module Transport = Cloudtx_sim.Transport
module Server = Cloudtx_store.Server
module Query = Cloudtx_txn.Query
module Tpc = Cloudtx_txn.Tpc
module Proof = Cloudtx_policy.Proof
module Policy = Cloudtx_policy.Policy
module Replica = Cloudtx_policy.Replica
module Credential = Cloudtx_policy.Credential
module Lock_manager = Cloudtx_store.Lock_manager
module Wal = Cloudtx_store.Wal
module Tracer = Cloudtx_obs.Tracer
module Registry = Cloudtx_obs.Registry
module Sketch = Cloudtx_obs.Sketch
module Journal = Cloudtx_obs.Journal
module Ps = Cloudtx_protocol.Ps_machine
module Codec_bin = Cloudtx_protocol.Codec_bin

let log_src =
  Logs.Src.create "cloudtx.participant" ~doc:"Data-server protocol node"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* An open [lock.wait] span for a parked query. *)
type wait = { w_span : int; w_blocked_at : float }

type t = {
  transport : Message.t Transport.t;
  server : Server.t;
  env : Proof.env;
  domain_of : string -> string;
  machine : Ps.t;
  variant : Tpc.variant;
  mutable journaled : bool;
      (* create record emitted?  Participants are built before the CLI
         enables the journal, so the record is emitted lazily at the
         first journaled step (and again after a crash reset). *)
  ocsp_delay : (unit -> float) option;
  on_proof : txn:string -> unit;
  inquiry_timeout : float;
  waits : (string, wait) Hashtbl.t; (* txn -> open lock.wait *)
  mutable releases : (string option * Lock_manager.release) list;
      (* lock releases queued during action interpretation, FIFO; drained
         only after the current input is fully interpreted so decision
         acks stay ahead of retried queries on the wire *)
  proofs_total : Registry.counter Lazy.t;
  lock_wait_ms : Sketch.t Lazy.t;
      (* registry cells, resolved at their first write *)
}

let name t = Server.name t.server
let server t = t.server
let queries_of t ~txn = Ps.queries_of t.machine ~txn
let in_doubt t = Ps.in_doubt t.machine
let now t = Transport.now t.transport
let send t ~dst msg = Transport.send t.transport ~src:(name t) ~dst msg
let mark t label = Transport.mark t.transport ~node:(name t) label
let tracer t = Transport.tracer t.transport
let registry t = Transport.registry t.transport

(* Simulated cost of the online credential-status checks one proof
   evaluation performs: one OCSP round-trip per CA-issued credential. *)
let status_check_delay t credentials =
  match t.ocsp_delay with
  | None -> 0.
  | Some sample ->
    List.fold_left
      (fun acc (c : Credential.t) ->
        match t.env.Proof.find_ca c.Credential.issuer with
        | Some _ -> acc +. sample ()
        | None -> acc)
      0. credentials

(* The administrative domain a query belongs to: the domain of its items,
   which must agree (the paper scopes each policy to one domain). *)
let domain_of_query t (q : Query.t) =
  match Query.items q with
  | [] -> invalid_arg (Printf.sprintf "query %s touches no data items" q.Query.id)
  | first :: rest ->
    let domain = t.domain_of first in
    List.iter
      (fun item ->
        if not (String.equal (t.domain_of item) domain) then
          invalid_arg
            (Printf.sprintf "query %s spans administrative domains" q.Query.id))
      rest;
    domain

let policy_for t domain =
  match Replica.get (Server.replica t.server) ~domain with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "server %s has no policy replica for domain %s" (name t)
         domain)

let evaluate_proof_fn t ~txn ~subject ~credentials (q : Query.t) =
  let domain = domain_of_query t q in
  let policy = policy_for t domain in
  t.on_proof ~txn;
  let tr = tracer t in
  let span =
    if Tracer.enabled tr then begin
      mark t (Printf.sprintf "proof_eval:%s:%s" txn q.Query.id);
      let span = Tracer.start tr ~track:(name t) "proof_eval" in
      Tracer.set_attr tr span "txn" txn;
      Tracer.set_attr tr span "query" q.Query.id;
      span
    end
    else Tracer.no_span
  in
  let request =
    { Proof.subject; action = Query.action q; items = Query.items q }
  in
  let proof =
    Proof.evaluate ~query_id:q.Query.id ~server:(name t) ~policy
      ~creds:credentials ~env:t.env ~at:(now t) request
  in
  if Tracer.enabled tr then
    Tracer.finish tr
      ~attrs:
        [
          ("result", if proof.Proof.result then "true" else "false");
          ("version", string_of_int proof.Proof.policy_version);
        ]
      span;
  if Registry.enabled (registry t) then
    Registry.incr_cell (Lazy.force t.proofs_total);
  proof

(* Distinct policies currently in force for [queries]. *)
let policies_used t queries =
  List.fold_left
    (fun acc (q : Query.t) ->
      let domain = domain_of_query t q in
      if List.exists (fun (p : Policy.t) -> String.equal p.domain domain) acc
      then acc
      else policy_for t domain :: acc)
    [] queries
  |> List.sort (fun (a : Policy.t) b ->
         String.compare a.Policy.domain b.Policy.domain)

(* Satellite of the staleness story: how far this server's replica trails
   the policy master, per domain.  The master's version is published into
   the registry by {!Cluster.publish}; recompute the distance whenever we
   install (the gauge reads 0 until the first publish). *)
let note_staleness t (policies : Policy.t list) =
  let reg = registry t in
  if Registry.enabled reg then
    List.iter
      (fun (p : Policy.t) ->
        let domain = p.Policy.domain in
        match
          Registry.gauge reg "policy_master_version" [ ("domain", domain) ]
        with
        | None -> ()
        | Some master ->
          let held =
            match Replica.get (Server.replica t.server) ~domain with
            | Some q -> float_of_int q.Policy.version
            | None -> 0.
          in
          Registry.set_gauge reg "policy_staleness"
            [ ("server", name t); ("domain", domain) ]
            (Float.max 0. (master -. held)))
      policies

let settle_wait t ~txn ~outcome ~killed_by =
  match Hashtbl.find_opt t.waits txn with
  | None -> ()
  | Some w ->
    Hashtbl.remove t.waits txn;
    let tr = tracer t in
    if Tracer.enabled tr && w.w_span <> Tracer.no_span then begin
      let attrs = [ ("outcome", outcome) ] in
      let attrs =
        match killed_by with
        | None -> attrs
        | Some killer ->
          (* The link target: the killer TM's [txn] span carries
             [txn=<killer>] — join on this attribute. *)
          ("killed_by", killer) :: attrs
      in
      Tracer.finish tr ~attrs w.w_span
    end;
    if Registry.enabled (registry t) then
      Sketch.observe (Lazy.force t.lock_wait_ms) (now t -. w.w_blocked_at)

(* Flight recorder: same input-then-actions-then-perform ordering as
   {!Manager.dispatch}, so each input's action records are contiguous in
   the journal and replay is a per-node FIFO. *)
let rec dispatch t input =
  let j = Transport.journal t.transport in
  if Journal.enabled j then begin
    if not t.journaled then begin
      t.journaled <- true;
      Journal_io.record j ~node:(name t)
        (Codec_bin.Create_ps
           { variant = t.variant; inquiry_timeout = t.inquiry_timeout })
    end;
    Journal_io.record j ~node:(name t) (Codec_bin.Ps_input input);
    let actions = Ps.handle t.machine input in
    List.iter
      (fun a -> Journal_io.record j ~node:(name t) (Codec_bin.Ps_action a))
      actions;
    List.iter (perform t) actions
  end
  else List.iter (perform t) (Ps.handle t.machine input)

and perform t (a : Ps.action) =
  match a with
  | Ps.Send { dst; msg; after_proofs; credentials } ->
    let delay = float_of_int after_proofs *. status_check_delay t credentials in
    if delay <= 0. then send t ~dst msg
    else Transport.send_after t.transport ~delay ~src:(name t) ~dst msg
  | Ps.Begin_work { txn; ts } ->
    Server.begin_work t.server ~txn ~ts ~time:(now t)
  | Ps.Exec { txn; ts; query; evaluate; reply_to; snapshot } ->
    let result =
      if snapshot then
        (* MVCC fast path: read the committed state as of the transaction's
           start, no locks, never blocks. *)
        Ps.Executed (Server.execute_snapshot t.server ~reads:query.Query.reads ~ts)
      else
        match
          Server.execute t.server ~txn ~reads:query.Query.reads
            ~writes:query.Query.writes
        with
        | Server.Executed reads -> Ps.Executed reads
        | Server.Blocked -> Ps.Blocked
        | Server.Die -> Ps.Die
    in
    dispatch t (Ps.Exec_result { txn; query; evaluate; reply_to; result })
  | Ps.Eval { txn; subject; credentials; queries; with_proofs; with_policies; cont }
    ->
    let proofs =
      if with_proofs then
        List.map (evaluate_proof_fn t ~txn ~subject ~credentials) queries
      else []
    in
    let policies = if with_policies then policies_used t queries else [] in
    dispatch t (Ps.Evaluated { txn; proofs; policies; cont })
  | Ps.Check_read_only { txn; reply_to; round } ->
    let read_only = Server.is_read_only t.server ~txn in
    let integrity_ok =
      read_only && Server.integrity_violations t.server ~txn = []
    in
    dispatch t (Ps.Read_only_result { txn; reply_to; round; read_only; integrity_ok })
  | Ps.Prepare { txn; proof_truth; policy_versions } ->
    let vote =
      Server.prepare t.server ~txn ~time:(now t) ~proof_truth ~policy_versions
    in
    dispatch t (Ps.Prepared { txn; vote })
  | Ps.Apply { txn; commit; forced; writes = _ } ->
    (* [writes] is the machine's version stamp for the journal; the store
       derives the same installs from the workspace it already holds. *)
    let release =
      if commit then Server.commit ~forced t.server ~txn ~time:(now t)
      else Server.abort ~forced t.server ~txn ~time:(now t)
    in
    Server.finish t.server ~txn ~time:(now t);
    t.releases <- t.releases @ [ (Some txn, release) ]
  | Ps.Forget { txn } ->
    let release = Server.forget t.server ~txn ~time:(now t) in
    t.releases <- t.releases @ [ (Some txn, release) ]
  | Ps.Install { policies; announce } ->
    List.iter
      (fun (p : Policy.t) ->
        match Replica.install (Server.replica t.server) p with
        | `Installed ->
          if announce && Tracer.enabled (tracer t) then
            mark t
              (Printf.sprintf "policy_installed:%s:v%d" p.Policy.domain
                 p.Policy.version)
        | `Stale -> ())
      policies;
    note_staleness t policies
  | Ps.Wait_open { txn; query_id } ->
    let tr = tracer t in
    let span =
      if Tracer.enabled tr then begin
        let span = Tracer.start tr ~track:(name t) "lock.wait" in
        Tracer.set_attr tr span "txn" txn;
        Tracer.set_attr tr span "query" query_id;
        span
      end
      else Tracer.no_span
    in
    Hashtbl.replace t.waits txn { w_span = span; w_blocked_at = now t }
  | Ps.Wait_close { txn; outcome; killed_by } ->
    settle_wait t ~txn ~outcome ~killed_by
  | Ps.Arm_inquiry { txn; epoch; delay } ->
    Transport.at t.transport ~delay (fun () ->
        if not (Transport.crashed t.transport (name t)) then begin
          dispatch t (Ps.Inquiry_fired { txn; epoch });
          drain_releases t
        end)
  | Ps.Mark label -> mark t label

(* Feed queued lock releases back as machine inputs.  A retried execute
   cannot release locks, but draining in a loop keeps this robust. *)
and drain_releases t =
  let rec loop () =
    match t.releases with
    | [] -> ()
    | (by, release) :: rest ->
      t.releases <- rest;
      dispatch t (Ps.Release { by; release });
      loop ()
  in
  loop ()

let handle t ~src msg =
  Log.debug (fun m -> m "%s: %s from %s" (name t) (Message.label msg) src);
  dispatch t (Ps.Deliver { src; msg });
  drain_releases t

let create ~transport ~server ~env ~domain_of ~on_proof ?(variant = Tpc.Basic)
    ?ocsp_delay ?(dedup = true) ?(inquiry_timeout = 0.) () =
  (* Store-layer hooks read the transport's tracer/registry dynamically:
     the CLI enables observability after the cluster is built, and the
     enabled checks keep the default path allocation-free.  Registry
     cells are resolved at their first write. *)
  let node = Server.name server in
  let cell make name labels =
    lazy (make (Transport.registry transport) name (("server", node) :: labels))
  in
  let counter = cell Registry.counter_cell in
  let t =
    {
      transport;
      server;
      env;
      domain_of;
      machine =
        Ps.create ~name:(Server.name server) ~variant ~inquiry_timeout ();
      variant;
      journaled = false;
      ocsp_delay;
      on_proof;
      inquiry_timeout;
      waits = Hashtbl.create 8;
      releases = [];
      proofs_total = counter "proofs_total" [];
      lock_wait_ms = cell Registry.histogram_cell "lock_wait_ms" [];
    }
  in
  (* The transport drops duplicated copies before they reach [handle],
     so journals stay replayable.  The filter outlives a crash: the
     machine's [expected]-count NACK covers the state actually lost. *)
  Transport.register ~dedup transport (Server.name server) (fun ~src msg ->
      handle t ~src msg);
  let appends = Hashtbl.create 8 in
  let append_cell reg tag =
    match Hashtbl.find appends tag with
    | c -> c
    | exception Not_found ->
      let c =
        Registry.counter_cell reg "wal_append_total"
          [ ("server", node); ("record", tag) ]
      in
      Hashtbl.add appends tag c;
      c
  in
  let forces =
    lazy
      (Registry.counter_cell (Transport.registry transport) "log_force_total"
         [ ("site", node) ])
  and granted = counter "lock_acquire_total" [ ("outcome", "granted") ]
  and queued = counter "lock_acquire_total" [ ("outcome", "queued") ]
  and die = counter "lock_acquire_total" [ ("outcome", "die") ]
  and promoted = counter "lock_promoted_total" []
  and killed = counter "lock_killed_total" [] in
  let incr cell =
    if Registry.enabled (Transport.registry transport) then
      Registry.incr_cell (Lazy.force cell)
  in
  Wal.set_observer (Server.wal server)
    (Some
       (fun ~time:_ ~forced ~tag ->
         let tr = Transport.tracer transport in
         if forced && Tracer.enabled tr then
           Tracer.instant tr ~track:node ~attrs:[ ("record", tag) ] "wal.force";
         let reg = Transport.registry transport in
         if Registry.enabled reg then begin
           Registry.incr_cell (append_cell reg tag);
           if forced then Registry.incr_cell (Lazy.force forces)
         end));
  Lock_manager.set_observer
    (Server.locks server)
    (Some
       {
         Lock_manager.on_acquire =
           (fun ~txn:_ ~key:_ ~mode:_ ~outcome ->
             incr
               (match outcome with
               | Lock_manager.Granted -> granted
               | Lock_manager.Queued -> queued
               | Lock_manager.Die -> die));
         on_promoted = (fun ~txn:_ ~key:_ ~mode:_ -> incr promoted);
         on_killed = (fun ~txn:_ ~key:_ -> incr killed);
       });
  t

let crash t =
  Ps.reset t.machine;
  (* A repeated create record tells the auditor to restart this node's
     replay machine from scratch, mirroring the reset. *)
  t.journaled <- false;
  Hashtbl.reset t.waits;
  t.releases <- [];
  Server.crash t.server;
  Transport.crash t.transport (name t);
  mark t "crash"

let recover t =
  Transport.recover t.transport (name t);
  let decided, in_doubt = Server.restart t.server ~time:(now t) in
  mark t "recover";
  (* Re-seed the fresh machine's protocol memory from the recovered log:
     decided transactions (so a retransmitted [Decision] is re-acked, not
     re-applied) and the in-doubt ones with the integrity vote their
     force-logged [Prepared] record carries. *)
  dispatch t (Ps.Recovered { decided; in_doubt });
  drain_releases t
