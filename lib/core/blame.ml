module Codec_bin = Cloudtx_protocol.Codec_bin
module Tm = Cloudtx_protocol.Tm_machine
module Ps = Cloudtx_protocol.Ps_machine
module Cp = Cloudtx_obs.Critical_path

(* A server-side interval carved out of the enclosing TM round-trip gap:
   a wait-die park ([lock.wait]) or a proof evaluation ([proof.eval]).
   [i_end] is NaN until the closing record arrives; [i_used] stops an
   interval from being attributed to two gaps. *)
type interval = {
  i_server : string;
  i_start : float;
  mutable i_end : float;
  mutable i_detail : string;
  mutable i_used : bool;
}

type txn_state = {
  t_txn : string;
  t_node : string;
  mutable t_scheme : string;
  mutable t_level : string;
  mutable t_begun : float;  (** [submitted_at] (min with create time). *)
  mutable t_last : float;  (** Last record time seen on the TM node. *)
  mutable t_phase : string;  (** execute → commit → decide. *)
  mutable t_prepare : float option;
  mutable t_decided : float option;
  mutable t_pending_decision : string list;
      (** Participants sent the decision but not yet acked — the peers a
          [retry.stall] segment indicts. *)
  mutable t_segments : Cp.segment list;  (** Reverse chronological. *)
}

type t = {
  agg : Cp.agg;
  keep : bool;
  node_txns : (string, string) Hashtbl.t;  (** TM node → transaction. *)
  txns : (string, txn_state) Hashtbl.t;
  waits : (string, interval list ref) Hashtbl.t;  (** txn → closed+open. *)
  evals : (string, interval list ref) Hashtbl.t;
  open_waits : (string, interval) Hashtbl.t;  (** server^NUL^txn. *)
  open_evals : (string, interval) Hashtbl.t;
  store : (string, Cp.timeline) Hashtbl.t;  (** When [keep]. *)
  mutable order : string list;  (** Finish order, reversed ([keep]). *)
  mutable violations : Cp.timeline list;  (** Coverage failures. *)
  mutable finished : int;
  mutable decode_errors : int;
}

let create ?(keep_timelines = false) ?top_k () =
  {
    agg = Cp.agg_create ?top_k ();
    keep = keep_timelines;
    node_txns = Hashtbl.create 16;
    txns = Hashtbl.create 16;
    waits = Hashtbl.create 16;
    evals = Hashtbl.create 16;
    open_waits = Hashtbl.create 16;
    open_evals = Hashtbl.create 16;
    store = Hashtbl.create 16;
    order = [];
    violations = [];
    finished = 0;
    decode_errors = 0;
  }

let finished t = t.finished
let unfinished t = Hashtbl.length t.txns
let decode_errors t = t.decode_errors
let agg t = t.agg
let timelines t = List.rev_map (Hashtbl.find t.store) t.order
let find t ~txn = Hashtbl.find_opt t.store txn
let uncovered t = List.rev t.violations

let slowest t =
  match Cp.agg_slowest t.agg with
  | [] -> None
  | s :: _ -> Some s.Cp.slow_timeline

(* ------------------------------------------------------------------ *)
(* Server-side interval tracking                                       *)
(* ------------------------------------------------------------------ *)

let interval_key ~server ~txn = server ^ "\x00" ^ txn

let open_interval intervals opens ~server ~txn ~time_ms ~detail =
  let iv =
    { i_server = server; i_start = time_ms; i_end = Float.nan;
      i_detail = detail; i_used = false }
  in
  Hashtbl.replace opens (interval_key ~server ~txn) iv;
  (match Hashtbl.find_opt intervals txn with
  | Some l -> l := iv :: !l
  | None -> Hashtbl.replace intervals txn (ref [ iv ]))

let close_interval opens ~server ~txn ~time_ms ~detail =
  let key = interval_key ~server ~txn in
  match Hashtbl.find_opt opens key with
  | None -> ()
  | Some iv ->
    Hashtbl.remove opens key;
    iv.i_end <- time_ms;
    if detail <> "" then iv.i_detail <- detail

let drop_txn_intervals t txn =
  let drop intervals opens =
    match Hashtbl.find_opt intervals txn with
    | None -> ()
    | Some l ->
      List.iter
        (fun iv ->
          if Float.is_nan iv.i_end then
            Hashtbl.remove opens (interval_key ~server:iv.i_server ~txn))
        !l;
      Hashtbl.remove intervals txn
  in
  drop t.waits t.open_waits;
  drop t.evals t.open_evals

(* Closed, unused intervals for [txn] at [server] clipped to the gap,
   sorted by start and de-overlapped; consumed intervals are marked
   used so a later gap cannot re-attribute them. *)
let take_carves intervals ~txn ~server ~g0 ~g1 kind =
  match Hashtbl.find_opt intervals txn with
  | None -> []
  | Some l ->
    List.filter_map
      (fun iv ->
        if
          iv.i_used || iv.i_server <> server
          || Float.is_nan iv.i_end
          || iv.i_end <= g0 || iv.i_start >= g1
        then None
        else begin
          iv.i_used <- true;
          Some (Float.max iv.i_start g0, Float.min iv.i_end g1, kind, iv.i_detail)
        end)
      !l
    |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Gap classification (the causal-edge matching rules of DESIGN §9)    *)
(* ------------------------------------------------------------------ *)

(* What the record closing a TM-node gap blames it on.  [carve] names
   the peer server whose lock-wait / proof-eval intervals are carved
   out of the gap. *)
type classification = {
  c_kind : Cp.kind;
  c_peer : string;
  c_detail : string;
  c_carve : string option;
}

let plain kind = { c_kind = kind; c_peer = ""; c_detail = ""; c_carve = None }

(* [None] marks a transparent record — one that must not close the gap
   (an [Rtt_sample] is journaled at the same instant as the delivery it
   measures; letting it close the gap would steal the delivery's
   attribution). *)
let classify_tm_input st = function
  | Tm.Rtt_sample _ -> None
  | Tm.Watchdog_fired _ -> Some (plain Cp.Timeout_stall)
  | Tm.Retry_fired ->
    (* Blame the silence on the participants still owing a decision ack. *)
    Some
      {
        c_kind = Cp.Retry_stall;
        c_peer = String.concat "," (List.sort compare st.t_pending_decision);
        c_detail = "";
        c_carve = None;
      }
  | Tm.Deliver { src; msg } -> (
    match msg with
    | Message.Master_version_reply _ ->
      Some
        { c_kind = Cp.Policy_fetch; c_peer = src; c_detail = ""; c_carve = None }
    | Message.Execute_reply { query_id; _ } ->
      Some
        { c_kind = Cp.Exec; c_peer = src; c_detail = query_id; c_carve = Some src }
    | Message.Validate_reply { round; _ } ->
      Some
        {
          c_kind = Cp.Validate_round;
          c_peer = src;
          c_detail = "round " ^ string_of_int round;
          c_carve = Some src;
        }
    | Message.Commit_reply { round; _ } ->
      Some
        {
          c_kind = Cp.Vote_round;
          c_peer = src;
          c_detail = "round " ^ string_of_int round;
          c_carve = Some src;
        }
    | Message.Decision_ack _ ->
      st.t_pending_decision <-
        List.filter (fun p -> not (String.equal p src)) st.t_pending_decision;
      Some { c_kind = Cp.Decide; c_peer = src; c_detail = ""; c_carve = None }
    | Message.Inquiry _ ->
      Some
        { c_kind = Cp.Inquiry_stall; c_peer = src; c_detail = ""; c_carve = None }
    | _ -> Some (plain Cp.Other))

(* Close the wall-clock gap [st.t_last, time_ms] on the TM's node as one
   classified segment, with the peer server's lock-wait and proof-eval
   intervals carved out (tiling preserved: carves and remainders
   partition the gap). *)
let emit_gap t st ~seq ~time_ms cls =
  let g0 = st.t_last and g1 = time_ms in
  let push kind peer detail s0 s1 =
    if s1 > s0 then
      st.t_segments <-
        {
          Cp.kind;
          peer;
          detail;
          phase = st.t_phase;
          start_ms = s0;
          end_ms = s1;
          seq;
        }
        :: st.t_segments
  in
  let carves =
    match cls.c_carve with
    | None -> []
    | Some server ->
      let waits =
        if cls.c_kind = Cp.Exec then
          take_carves t.waits ~txn:st.t_txn ~server ~g0 ~g1 Cp.Lock_wait
        else []
      in
      let evals = take_carves t.evals ~txn:st.t_txn ~server ~g0 ~g1 Cp.Proof_eval in
      List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) (waits @ evals)
  in
  let cursor =
    List.fold_left
      (fun cursor (c0, c1, kind, detail) ->
        let c0 = Float.max c0 cursor and c1 = Float.min c1 g1 in
        if c1 > c0 then begin
          push cls.c_kind cls.c_peer cls.c_detail cursor c0;
          push kind cls.c_peer detail c0 c1;
          c1
        end
        else cursor)
      g0 carves
  in
  push cls.c_kind cls.c_peer cls.c_detail cursor g1

(* ------------------------------------------------------------------ *)
(* Record handlers                                                     *)
(* ------------------------------------------------------------------ *)

let on_tm_create t ~seq ~time_ms ~node ~txn ~scheme ~level ~submitted_at =
  match Hashtbl.find_opt t.txns txn with
  | Some st ->
    (* Coordinator restart (chaos): the silence since the last record is
       a recovery gap; the timeline keeps its original origin. *)
    if time_ms > st.t_last then emit_gap t st ~seq ~time_ms (plain Cp.Recovery);
    st.t_last <- time_ms;
    st.t_scheme <- scheme;
    st.t_level <- level
  | None ->
    let begun = Float.min submitted_at time_ms in
    let st =
      {
        t_txn = txn;
        t_node = node;
        t_scheme = scheme;
        t_level = level;
        t_begun = begun;
        t_last = time_ms;
        t_phase = "execute";
        t_prepare = None;
        t_decided = None;
        t_pending_decision = [];
        t_segments = [];
      }
    in
    if time_ms > begun then
      st.t_segments <-
        [
          {
            Cp.kind = Cp.Queueing;
            peer = "";
            detail = "";
            phase = "execute";
            start_ms = begun;
            end_ms = time_ms;
            seq;
          };
        ];
    Hashtbl.replace t.txns txn st

let finish_txn t st ~time_ms ~committed ~reason =
  let tl =
    {
      Cp.txn = st.t_txn;
      node = st.t_node;
      scheme = st.t_scheme;
      level = st.t_level;
      committed;
      reason;
      begun_ms = st.t_begun;
      finished_ms = time_ms;
      segments = List.rev st.t_segments;
    }
  in
  Hashtbl.remove t.txns st.t_txn;
  drop_txn_intervals t st.t_txn;
  t.finished <- t.finished + 1;
  Cp.agg_observe t.agg tl;
  if not (Cp.covered tl) then t.violations <- tl :: t.violations;
  if t.keep then begin
    Hashtbl.replace t.store tl.Cp.txn tl;
    t.order <- tl.Cp.txn :: t.order
  end

let on_tm_action t st ~time_ms = function
  | Tm.Obs (Tm.Phase_open { span_name; _ }) -> (
    (* The same clock points Manager samples for the phase histograms,
       so per-phase segment totals reconcile with the registry. *)
    match span_name with
    | "2pvc.prepare" ->
      st.t_prepare <- Some time_ms;
      st.t_phase <- "commit"
    | "2pvc.commit" | "2pvc.abort" ->
      st.t_decided <- Some time_ms;
      st.t_phase <- "decide"
    | _ -> ())
  | Tm.Send { dst; msg = Message.Decision _ } ->
    if not (List.mem dst st.t_pending_decision) then
      st.t_pending_decision <- dst :: st.t_pending_decision
  | Tm.Finish { committed; reason; _ } ->
    finish_txn t st ~time_ms ~committed ~reason:(Outcome.reason_name reason)
  | _ -> ()

(* A TM record closes the gap on its node ([cls = None]: a transparent
   record that leaves it open). *)
let on_tm t ~seq ~time_ms st cls =
  match cls with
  | None -> ()
  | Some cls ->
    if time_ms > st.t_last then emit_gap t st ~seq ~time_ms cls;
    st.t_last <- time_ms

let on_ps_action t ~time_ms ~node = function
  | Ps.Wait_open { txn; query_id } ->
    open_interval t.waits t.open_waits ~server:node ~txn ~time_ms
      ~detail:query_id
  | Ps.Wait_close { txn; outcome; _ } ->
    close_interval t.open_waits ~server:node ~txn ~time_ms ~detail:outcome
  | Ps.Eval { txn; _ } ->
    open_interval t.evals t.open_evals ~server:node ~txn ~time_ms ~detail:""
  | _ -> ()

let on_ps_input t ~time_ms ~node = function
  | Ps.Evaluated { txn; _ } ->
    close_interval t.open_evals ~server:node ~txn ~time_ms ~detail:""
  | _ -> ()

let step t (r : Journal_io.record) =
  let { Journal_io.seq; time_ms; node; body } = r in
  (* A TM whose create this stream never saw (evicted from a capped
     buffer), or whose transaction already finished, is skipped. *)
  let with_txn f =
    match Hashtbl.find_opt t.node_txns node with
    | None -> ()
    | Some txn -> (
      match Hashtbl.find_opt t.txns txn with None -> () | Some st -> f st)
  in
  match body with
  | Journal_io.Undecodable _ -> t.decode_errors <- t.decode_errors + 1
  (* Driver-side resilience events: not machine steps, no latency edge. *)
  | Journal_io.Event _ -> ()
  | Journal_io.Payload (Codec_bin.Create_tm { config; txn; submitted_at }) ->
    let txn = txn.Cloudtx_txn.Transaction.id in
    Hashtbl.replace t.node_txns node txn;
    on_tm_create t ~seq ~time_ms ~node ~txn
      ~scheme:(Scheme.name config.Tm.scheme)
      ~level:(Consistency.name config.Tm.level)
      ~submitted_at
  | Journal_io.Payload (Codec_bin.Create_ps _) -> ()
  | Journal_io.Payload (Codec_bin.Tm_input input) ->
    with_txn (fun st -> on_tm t ~seq ~time_ms st (classify_tm_input st input))
  | Journal_io.Payload (Codec_bin.Tm_action action) ->
    with_txn (fun st ->
        on_tm t ~seq ~time_ms st (Some (plain Cp.Other));
        on_tm_action t st ~time_ms action)
  | Journal_io.Payload (Codec_bin.Ps_input input) ->
    on_ps_input t ~time_ms ~node input
  | Journal_io.Payload (Codec_bin.Ps_action action) ->
    on_ps_action t ~time_ms ~node action

let attach ?keep_timelines ?top_k journal =
  let t = create ?keep_timelines ?top_k () in
  Journal_io.attach journal (step t);
  t

(* ------------------------------------------------------------------ *)
(* Offline replay                                                      *)
(* ------------------------------------------------------------------ *)

let replay ?keep_timelines ?top_k fold =
  fold ~init:(fun _ -> create ?keep_timelines ?top_k ()) (fun t r ->
      step t r;
      t)

let of_lines ?keep_timelines ?top_k lines =
  replay ?keep_timelines ?top_k (Journal_io.fold_lines lines)

let of_file ?keep_timelines ?top_k path =
  replay ?keep_timelines ?top_k (Journal_io.fold_file path)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let to_json t =
  Cp.agg_to_json
    ~extra:
      [
        ("finished", string_of_int t.finished);
        ("unfinished", string_of_int (unfinished t));
        ("decode_errors", string_of_int t.decode_errors);
        ("uncovered", string_of_int (List.length t.violations));
      ]
    t.agg

let to_markdown_lines t =
  let counters =
    Printf.sprintf
      "%d finished, %d unfinished, %d decode errors, %d coverage violations."
      t.finished (unfinished t) t.decode_errors
      (List.length t.violations)
  in
  match Cp.agg_to_markdown t.agg with
  | header :: rest -> (header :: "" :: counters :: rest)
  | [] -> [ counters ]
