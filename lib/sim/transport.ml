module Obs = Cloudtx_obs

(* Node names key the tables every send and delivery reads: string
   hashing and equality, not the polymorphic ones. *)
module Names = Hashtbl.Make (String)

(* One registration of a node.  [in_flight] counts the message copies
   scheduled to or from it that have not settled yet (and the delayed
   sends of {!send_after}); a retiring node leaves the table when it
   reaches 0. *)
type 'msg node = {
  name : string;
  handler : src:string -> 'msg -> unit;
  dedup : bool;
  mutable in_flight : int;
  mutable retiring : bool;
}

(* The duplicate filter shared by the copies of one send that the
   network duplicated.  [taker] is the registration that last took a
   copy with dedup on ([nobody] until then); [copies] counts the copies
   still to settle. *)
type 'msg filter = { mutable copies : int; mutable taker : 'msg node }

type 'msg t = {
  engine : Engine.t;
  network : Network.t;
  label_of : 'msg -> string;
  handlers : 'msg node Names.t;
  nobody : 'msg node;
      (** What a lookup of an unregistered name returns, so lookups on the
          send and delivery path allocate no option.  Copies from an
          unregistered sender count on it, and nothing reads that count. *)
  no_filter : 'msg filter;  (** Carried by a send's only copy. *)
  mutable filters : int;
  crashed : unit Names.t;
  rng : Splitmix.t;
  mutable tracer : Obs.Tracer.t;
  mutable registry : Obs.Registry.t;
  sent : Obs.Registry.counter Names.t;
      (** [messages_total{type}] cells by label, resolved at first send. *)
  mutable journal : Obs.Journal.t;
  mutable timeseries : Obs.Timeseries.t option;
}

let create ?(seed = 42L) ?(latency = Latency.lan) ~label_of () =
  let rng = Splitmix.create seed in
  let net_rng = Splitmix.split rng in
  let nobody =
    {
      name = "";
      handler = (fun ~src:_ _ -> ());
      dedup = false;
      in_flight = 0;
      retiring = false;
    }
  in
  {
    engine = Engine.create ();
    network = Network.create ~latency ~rng:net_rng;
    label_of;
    handlers = Names.create 16;
    nobody;
    no_filter = { copies = 0; taker = nobody };
    filters = 0;
    crashed = Names.create 4;
    rng;
    tracer = Obs.Tracer.noop;
    registry = Obs.Registry.noop;
    sent = Names.create 16;
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
         (fun ~pending ->
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
    (* The registry may be enabled after the journal: resolve the cell
       at the first drop it is on for, not at wiring time. *)
    let dropped =
      lazy (Obs.Registry.counter_cell t.registry "journal.dropped" [])
    in
    Obs.Journal.set_on_drop journal (fun n ->
        if Obs.Registry.enabled t.registry then
          Obs.Registry.add_cell (Lazy.force dropped) n);
    t.journal <- journal
  end;
  t.journal

let find t name =
  match Names.find t.handlers name with
  | node -> node
  | exception Not_found -> t.nobody

let register ?(dedup = false) t name handler =
  if Names.mem t.handlers name then
    invalid_arg (Printf.sprintf "Transport.register: duplicate node %s" name);
  Names.add t.handlers name
    { name; handler; dedup; in_flight = 0; retiring = false }

let unregister t name = Names.remove t.handlers name
let registered t name = Names.mem t.handlers name

(* A node that re-registered under the same name is another registration:
   the old one's count never removes it. *)
let remove_if_current t node =
  if find t node.name == node then Names.remove t.handlers node.name

let retire t name =
  let node = find t name in
  if node != t.nobody then begin
    node.retiring <- true;
    if node.in_flight = 0 then Names.remove t.handlers name
  end

let hold node = node.in_flight <- node.in_flight + 1

let settle t node =
  node.in_flight <- node.in_flight - 1;
  if node.retiring && node.in_flight = 0 then remove_if_current t node

let filters t = t.filters
let crash t name = Names.replace t.crashed name ()
let recover t name = Names.remove t.crashed name
let crashed t name = Names.mem t.crashed name

(* Wire events are tracer instants, so one exported artifact carries both
   the protocol spans and the wire view ({!Trace.of_tracer} reads it back).
   Each emit sits behind its own guard so the untraced path allocates no
   [Trace.kind]. *)
let traced t = Obs.Tracer.enabled t.tracer

let sent_cell t label =
  match Names.find t.sent label with
  | c -> c
  | exception Not_found ->
    let c =
      Obs.Registry.counter_cell t.registry "messages_total" [ ("type", label) ]
    in
    Names.add t.sent label c;
    c

let mark t ~node label =
  if traced t then Trace.emit t.tracer (Trace.Mark { node; label })

(* One copy arriving at [to_]'s name, which was registered when the copy
   was scheduled.  The handler is looked up now, so a node that
   re-registered after a restart sees the traffic.  The copy settles only
   after the handler returns: whatever the handler sends is counted
   before the copy stops holding either end. *)
let deliver t ~src ~from ~to_ ~filter msg =
  let dst = to_.name in
  let node = find t dst in
  if node == t.nobody || Names.mem t.crashed dst then begin
    if traced t then
      Trace.emit t.tracer (Trace.Drop { src; dst; label = t.label_of msg })
  end
  else begin
    if traced t then
      Trace.emit t.tracer (Trace.Recv { src; dst; label = t.label_of msg });
    if filter == t.no_filter || not node.dedup then node.handler ~src msg
    else if filter.taker == node then
      mark t ~node:dst ("dedup:" ^ t.label_of msg)
    else begin
      filter.taker <- node;
      node.handler ~src msg
    end
  end;
  settle t from;
  settle t to_;
  if filter != t.no_filter then begin
    filter.copies <- filter.copies - 1;
    if filter.copies = 0 then t.filters <- t.filters - 1
  end

let drop t ~src ~dst msg =
  if traced t then
    Trace.emit t.tracer (Trace.Drop { src; dst; label = t.label_of msg })

let schedule_copy t ~src ~from ~to_ ~filter msg ~delay =
  hold from;
  hold to_;
  Engine.schedule t.engine ~delay (fun () ->
      deliver t ~src ~from ~to_ ~filter msg)

(* The label is rendered only for the sinks that are on.  A send with
   one copy allocates its delivery closure and float boxes, nothing
   else; the copies of a duplicated send share a filter. *)
let send t ~src ~dst msg =
  if Obs.Registry.enabled t.registry || traced t then begin
    let label = t.label_of msg in
    if Obs.Registry.enabled t.registry then
      Obs.Registry.incr_cell (sent_cell t label);
    if traced t then Trace.emit t.tracer (Trace.Send { src; dst; label })
  end;
  let to_ = find t dst in
  (* No [Network.first_copy]: a send to an unregistered node draws
     nothing from the network's RNG. *)
  if to_ == t.nobody then drop t ~src ~dst msg
  else
    let delay = Network.first_copy t.network ~src ~dst in
    if delay < 0. then drop t ~src ~dst msg
    else begin
      let from = find t src in
      let again = Network.next_copy t.network in
      if again < 0. then
        schedule_copy t ~src ~from ~to_ ~filter:t.no_filter msg ~delay
      else begin
        let filter = { copies = 1; taker = t.nobody } in
        t.filters <- t.filters + 1;
        schedule_copy t ~src ~from ~to_ ~filter msg ~delay;
        let rec copies delay =
          if delay >= 0. then begin
            filter.copies <- filter.copies + 1;
            schedule_copy t ~src ~from ~to_ ~filter msg ~delay;
            copies (Network.next_copy t.network)
          end
        in
        copies again
      end
    end

let send_after t ~delay ~src ~dst msg =
  let from = find t src and to_ = find t dst in
  hold from;
  hold to_;
  Engine.schedule t.engine ~delay (fun () ->
      send t ~src ~dst msg;
      settle t from;
      settle t to_)

let at t ~delay f = Engine.schedule t.engine ~delay f

let run ?until ?max_steps t = Engine.run ?until ?max_steps t.engine
