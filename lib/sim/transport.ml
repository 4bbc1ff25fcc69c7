module Obs = Cloudtx_obs

type 'msg t = {
  engine : Engine.t;
  network : Network.t;
  label_of : 'msg -> string;
  handlers : (string, src:string -> seq:int -> 'msg -> unit) Hashtbl.t;
  crashed : (string, unit) Hashtbl.t;
  rng : Splitmix.t;
  mutable next_seq : int;
  mutable tracer : Obs.Tracer.t;
  mutable registry : Obs.Registry.t;
  sent : (string, Obs.Registry.counter) Hashtbl.t;
      (** [messages_total{type}] cells by label, resolved at first send. *)
  mutable journal : Obs.Journal.t;
  mutable timeseries : Obs.Timeseries.t option;
}

let create ?(seed = 42L) ?(latency = Latency.lan) ?(drop = 0.) ~label_of () =
  let rng = Splitmix.create seed in
  let net_rng = Splitmix.split rng in
  {
    engine = Engine.create ();
    network = Network.create ~drop ~latency ~rng:net_rng ();
    label_of;
    handlers = Hashtbl.create 16;
    crashed = Hashtbl.create 4;
    rng;
    next_seq = 0;
    tracer = Obs.Tracer.noop;
    registry = Obs.Registry.noop;
    sent = Hashtbl.create 16;
    journal = Obs.Journal.noop;
    timeseries = None;
  }

let engine t = t.engine
let network t = t.network
let tracer t = t.tracer
let registry t = t.registry
let journal t = t.journal
let now t = Engine.now t.engine
let fork_rng t = Splitmix.split t.rng

let enable_tracing t =
  if not (Obs.Tracer.enabled t.tracer) then
    t.tracer <- Obs.Tracer.create ~clock:(fun () -> Engine.now t.engine) ();
  t.tracer

let enable_metrics t =
  if not (Obs.Registry.enabled t.registry) then begin
    let registry = Obs.Registry.create () in
    t.registry <- registry;
    let gauge =
      lazy (Obs.Registry.gauge_cell registry "sim.pending_events" [])
    in
    Engine.set_observer t.engine
      (Some
         (fun ~now:_ ~pending ->
           Obs.Registry.set_cell (Lazy.force gauge) (float_of_int pending)))
  end;
  t.registry

let timeseries t = t.timeseries

let enable_timeseries ?width_ms t =
  match t.timeseries with
  | Some ts -> ts
  | None ->
    (* Sim-time starts at 0, so window 0 opens at the engine's epoch and
       every edge falls on an exact multiple of the width. *)
    let ts = Obs.Timeseries.create ?width_ms () in
    t.timeseries <- Some ts;
    ts

let enable_journal ?format ?max_buffer_bytes ?path t =
  if not (Obs.Journal.enabled t.journal) then begin
    let journal =
      Obs.Journal.create
        ~clock:(fun () -> Engine.now t.engine)
        ?format ?max_buffer_bytes ?path ()
    in
    (* The registry may be enabled after the journal: look it up at drop
       time, not at wiring time. *)
    Obs.Journal.set_on_drop journal (fun n ->
        if Obs.Registry.enabled t.registry then
          Obs.Registry.incr t.registry ~by:n "journal.dropped" []);
    t.journal <- journal
  end;
  t.journal

let register_seq t name handler =
  if Hashtbl.mem t.handlers name then
    invalid_arg (Printf.sprintf "Transport.register: duplicate node %s" name);
  Hashtbl.add t.handlers name handler

let register t name handler =
  register_seq t name (fun ~src ~seq:_ msg -> handler ~src msg)

let unregister t name = Hashtbl.remove t.handlers name
let registered t name = Hashtbl.mem t.handlers name
let crash t name = Hashtbl.replace t.crashed name ()
let recover t name = Hashtbl.remove t.crashed name
let crashed t name = Hashtbl.mem t.crashed name

(* Wire events are tracer instants, so one exported artifact carries both
   the protocol spans and the wire view ({!Trace.of_tracer} reads it back).
   Each emit sits behind its own guard so the untraced path allocates no
   [Trace.kind]. *)
let traced t = Obs.Tracer.enabled t.tracer

let sent_cell t label =
  match Hashtbl.find_opt t.sent label with
  | Some c -> c
  | None ->
    let c =
      Obs.Registry.counter_cell t.registry "messages_total" [ ("type", label) ]
    in
    Hashtbl.add t.sent label c;
    c

let send t ~src ~dst msg =
  let label = t.label_of msg in
  if Obs.Registry.enabled t.registry then
    Obs.Registry.incr_cell (sent_cell t label);
  if traced t then Trace.emit t.tracer (Trace.Send { src; dst; label });
  match Hashtbl.find_opt t.handlers dst with
  | None ->
    if traced t then Trace.emit t.tracer (Trace.Drop { src; dst; label })
  | Some _ -> (
    match Network.fate t.network ~src ~dst with
    | `Lost ->
      if traced t then Trace.emit t.tracer (Trace.Drop { src; dst; label })
    | `Deliver_each delays ->
      (* Every copy of this logical send shares one wire seq, so receivers
         can recognise duplicates. Handlers are looked up at delivery time:
         a node that re-registered after a restart sees the traffic. *)
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      List.iter
        (fun delay ->
          Engine.schedule t.engine ~delay (fun () ->
              match Hashtbl.find_opt t.handlers dst with
              | Some handler when not (Hashtbl.mem t.crashed dst) ->
                if traced t then
                  Trace.emit t.tracer (Trace.Recv { src; dst; label });
                handler ~src ~seq msg
              | _ ->
                if traced t then
                  Trace.emit t.tracer (Trace.Drop { src; dst; label })))
        delays)

let at t ~delay f = Engine.schedule t.engine ~delay f

let mark t ~node label =
  if traced t then Trace.emit t.tracer (Trace.Mark { node; label })

let run ?until ?max_steps t = Engine.run ?until ?max_steps t.engine
