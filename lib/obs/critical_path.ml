type kind =
  | Queueing
  | Policy_fetch
  | Exec
  | Lock_wait
  | Proof_eval
  | Validate_round
  | Vote_round
  | Decide
  | Retry_stall
  | Timeout_stall
  | Inquiry_stall
  | Recovery
  | Other

let kind_name = function
  | Queueing -> "queueing"
  | Policy_fetch -> "policy.fetch"
  | Exec -> "query.exec"
  | Lock_wait -> "lock.wait"
  | Proof_eval -> "proof.eval"
  | Validate_round -> "2pv.round"
  | Vote_round -> "2pvc.vote"
  | Decide -> "decide"
  | Retry_stall -> "retry.stall"
  | Timeout_stall -> "timeout.stall"
  | Inquiry_stall -> "inquiry.stall"
  | Recovery -> "recovery"
  | Other -> "other"

let all_kinds =
  [
    Queueing; Policy_fetch; Exec; Lock_wait; Proof_eval; Validate_round;
    Vote_round; Decide; Retry_stall; Timeout_stall; Inquiry_stall; Recovery;
    Other;
  ]

(* A kind's position in [all_kinds]. *)
let kind_index = function
  | Queueing -> 0
  | Policy_fetch -> 1
  | Exec -> 2
  | Lock_wait -> 3
  | Proof_eval -> 4
  | Validate_round -> 5
  | Vote_round -> 6
  | Decide -> 7
  | Retry_stall -> 8
  | Timeout_stall -> 9
  | Inquiry_stall -> 10
  | Recovery -> 11
  | Other -> 12

let n_kinds = List.length all_kinds

type segment = {
  kind : kind;
  peer : string;
  detail : string;
  phase : string;
  start_ms : float;
  end_ms : float;
  seq : int;
}

let segment_ms s = s.end_ms -. s.start_ms

type timeline = {
  txn : string;
  node : string;
  scheme : string;
  level : string;
  committed : bool;
  reason : string;
  begun_ms : float;
  finished_ms : float;
  segments : segment list;
}

let total_ms tl = tl.finished_ms -. tl.begun_ms

let segments_sum tl =
  List.fold_left (fun acc s -> acc +. segment_ms s) 0. tl.segments

let coverage_slack_ms tl = Float.abs (segments_sum tl -. total_ms tl)

let slack_bound_ms tl =
  1e-6
  +. (1e-12 *. Float.abs (total_ms tl) *. float_of_int (List.length tl.segments))

let covered tl = coverage_slack_ms tl <= slack_bound_ms tl

let by_kind tl =
  let totals = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let cur = try Hashtbl.find totals s.kind with Not_found -> 0. in
      Hashtbl.replace totals s.kind (cur +. segment_ms s))
    tl.segments;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []
  |> List.sort (fun (k1, v1) (k2, v2) ->
         match compare v2 v1 with
         | 0 -> compare (kind_index k1) (kind_index k2)
         | c -> c)

let dominant tl = match by_kind tl with [] -> None | hd :: _ -> Some hd

let phases = [ "execute"; "commit"; "decide" ]

let by_phase tl =
  List.map
    (fun p ->
      ( p,
        List.fold_left
          (fun acc s -> if s.phase = p then acc +. segment_ms s else acc)
          0. tl.segments ))
    phases

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let segment_to_json s =
  Json.obj
    [
      ("segment", Json.quote (kind_name s.kind));
      ("peer", Json.quote s.peer);
      ("detail", Json.quote s.detail);
      ("phase", Json.quote s.phase);
      ("start_ms", Json.number s.start_ms);
      ("end_ms", Json.number s.end_ms);
      ("ms", Json.number (segment_ms s));
      ("seq", string_of_int s.seq);
    ]

let timeline_to_json tl =
  let dom =
    match dominant tl with
    | None -> "null"
    | Some (k, ms) ->
      Json.obj
        [ ("segment", Json.quote (kind_name k)); ("ms", Json.number ms) ]
  in
  Json.obj
    [
      ("txn", Json.quote tl.txn);
      ("node", Json.quote tl.node);
      ("scheme", Json.quote tl.scheme);
      ("level", Json.quote tl.level);
      ("committed", if tl.committed then "true" else "false");
      ("reason", Json.quote tl.reason);
      ("begun_ms", Json.number tl.begun_ms);
      ("finished_ms", Json.number tl.finished_ms);
      ("total_ms", Json.number (total_ms tl));
      ("slack_ms", Json.number (coverage_slack_ms tl));
      ("covered", if covered tl then "true" else "false");
      ("dominant", dom);
      ( "segments",
        "[" ^ String.concat "," (List.map segment_to_json tl.segments) ^ "]" );
    ]

let timeline_to_text tl =
  let total = total_ms tl in
  let header =
    Printf.sprintf "txn %s [%s/%s] %s in %.3f ms (%s)" tl.txn tl.scheme
      tl.level
      (if tl.committed then "COMMIT" else "ABORT")
      total tl.reason
  in
  let path_line =
    Printf.sprintf "  critical path: %d segments, coverage slack %.9f ms%s"
      (List.length tl.segments) (coverage_slack_ms tl)
      (if covered tl then "" else "  ** NOT COVERED **")
  in
  let seg_lines =
    List.map
      (fun s ->
        let label =
          kind_name s.kind
          ^ (if s.peer = "" then "" else " " ^ s.peer)
          ^ if s.detail = "" then "" else " (" ^ s.detail ^ ")"
        in
        Printf.sprintf "    %10.3f -> %10.3f  %9.3f ms  %-7s  %s" s.start_ms
          s.end_ms (segment_ms s) s.phase label)
      tl.segments
  in
  let blame_lines =
    List.map
      (fun (k, ms) ->
        let pct = if total > 0. then 100. *. ms /. total else 0. in
        Printf.sprintf "    %-13s %9.3f ms  %5.1f%%" (kind_name k) ms pct)
      (by_kind tl)
  in
  (header :: path_line :: seg_lines) @ ("  blame:" :: blame_lines)

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

type kind_stats = {
  mutable ks_txns : int;
  mutable ks_spans : int;
  mutable ks_total : float;
  mutable ks_max : float;
  ks_sketch : Sketch.t;  (** Per-transaction time-in-segment. *)
}

type cell_stats = {
  mutable cs_txns : int;
  mutable cs_committed : int;
  mutable cs_total : float;
  cs_kinds : kind_stats option array;  (** By [kind_index]. *)
}

type agg = {
  top_k : int;
  cells : (string * string, cell_stats) Hashtbl.t;
  mutable slowest : timeline list;  (** Slowest first, at most [top_k]. *)
  mutable txns : int;
  spans : int array;  (** One timeline's segments per kind... *)
  sums : float array;  (** ...and their time, summed in segment order. *)
}

let agg_create ?(top_k = 5) () =
  {
    top_k = max 0 top_k;
    cells = Hashtbl.create 8;
    slowest = [];
    txns = 0;
    spans = Array.make n_kinds 0;
    sums = Array.make n_kinds 0.;
  }

let cell_stats agg key =
  match Hashtbl.find_opt agg.cells key with
  | Some cs -> cs
  | None ->
    let cs =
      {
        cs_txns = 0;
        cs_committed = 0;
        cs_total = 0.;
        cs_kinds = Array.make n_kinds None;
      }
    in
    Hashtbl.add agg.cells key cs;
    cs

let kind_stats cs i =
  match cs.cs_kinds.(i) with
  | Some ks -> ks
  | None ->
    let ks =
      {
        ks_txns = 0;
        ks_spans = 0;
        ks_total = 0.;
        ks_max = 0.;
        ks_sketch = Sketch.create ();
      }
    in
    cs.cs_kinds.(i) <- Some ks;
    ks

(* Slowest-first insertion sort capped at [top_k]; ties break on txn id
   so the ranking is a pure function of the observed set. *)
let slower a b =
  match compare (total_ms b) (total_ms a) with
  | 0 -> compare a.txn b.txn
  | c -> c

let rec last = function [ x ] -> x | _ :: rest -> last rest | [] -> raise Not_found

let note_slowest agg tl =
  (* A full list keeps no timeline that would sort after its last. *)
  if
    agg.top_k > 0
    && not
         (List.length agg.slowest >= agg.top_k
         && slower tl (last agg.slowest) >= 0)
  then begin
    let rec insert = function
      | [] -> [ tl ]
      | hd :: rest -> if slower tl hd < 0 then tl :: hd :: rest else hd :: insert rest
    in
    let merged = insert agg.slowest in
    agg.slowest <-
      (if List.length merged > agg.top_k then
         List.filteri (fun i _ -> i < agg.top_k) merged
       else merged)
  end

let agg_observe agg tl =
  agg.txns <- agg.txns + 1;
  let cs = cell_stats agg (tl.scheme, tl.level) in
  cs.cs_txns <- cs.cs_txns + 1;
  if tl.committed then cs.cs_committed <- cs.cs_committed + 1;
  cs.cs_total <- cs.cs_total +. total_ms tl;
  (* Span counts per kind, and per-txn totals (the sums [by_kind] makes)
     into the sketches. *)
  let spans = agg.spans and sums = agg.sums in
  Array.fill spans 0 n_kinds 0;
  Array.fill sums 0 n_kinds 0.;
  List.iter
    (fun s ->
      let i = kind_index s.kind in
      spans.(i) <- spans.(i) + 1;
      sums.(i) <- sums.(i) +. segment_ms s)
    tl.segments;
  for i = 0 to n_kinds - 1 do
    if spans.(i) > 0 then begin
      let ks = kind_stats cs i and ms = sums.(i) in
      ks.ks_spans <- ks.ks_spans + spans.(i);
      ks.ks_txns <- ks.ks_txns + 1;
      ks.ks_total <- ks.ks_total +. ms;
      if ms > ks.ks_max then ks.ks_max <- ms;
      Sketch.observe ks.ks_sketch ms
    end
  done;
  note_slowest agg tl

type row = {
  row_kind : kind;
  row_txns : int;
  row_spans : int;
  row_total_ms : float;
  row_mean_ms : float;
  row_p50_ms : float;
  row_p99_ms : float;
  row_max_ms : float;
}

type cell = {
  cell_scheme : string;
  cell_level : string;
  cell_txns : int;
  cell_committed : int;
  cell_aborted : int;
  cell_total_ms : float;
  cell_rows : row list;
}

type slow = {
  slow_timeline : timeline;
  slow_dominant : kind;
  slow_dominant_ms : float;
}

let cell_of_stats (scheme, level) cs =
  let rows =
    List.fold_left
      (fun acc kind ->
        match cs.cs_kinds.(kind_index kind) with
        | None -> acc
        | Some ks ->
        {
          row_kind = kind;
          row_txns = ks.ks_txns;
          row_spans = ks.ks_spans;
          row_total_ms = ks.ks_total;
          row_mean_ms =
            (if ks.ks_txns = 0 then 0.
             else ks.ks_total /. float_of_int ks.ks_txns);
          row_p50_ms =
            (if Sketch.count ks.ks_sketch = 0 then 0.
             else Sketch.percentile ks.ks_sketch 50.);
          row_p99_ms =
            (if Sketch.count ks.ks_sketch = 0 then 0.
             else Sketch.percentile ks.ks_sketch 99.);
          row_max_ms = ks.ks_max;
        }
        :: acc)
      [] all_kinds
    |> List.sort (fun a b ->
           match compare b.row_total_ms a.row_total_ms with
           | 0 -> compare (kind_index a.row_kind) (kind_index b.row_kind)
           | c -> c)
  in
  {
    cell_scheme = scheme;
    cell_level = level;
    cell_txns = cs.cs_txns;
    cell_committed = cs.cs_committed;
    cell_aborted = cs.cs_txns - cs.cs_committed;
    cell_total_ms = cs.cs_total;
    cell_rows = rows;
  }

let agg_cells agg =
  Hashtbl.fold (fun key cs acc -> cell_of_stats key cs :: acc) agg.cells []
  |> List.sort (fun a b ->
         match compare a.cell_scheme b.cell_scheme with
         | 0 -> compare a.cell_level b.cell_level
         | c -> c)

let agg_slowest agg =
  List.map
    (fun tl ->
      let k, ms = match dominant tl with Some d -> d | None -> (Other, 0.) in
      { slow_timeline = tl; slow_dominant = k; slow_dominant_ms = ms })
    agg.slowest

let row_to_json r =
  Json.obj
    [
      ("segment", Json.quote (kind_name r.row_kind));
      ("txns", string_of_int r.row_txns);
      ("spans", string_of_int r.row_spans);
      ("total_ms", Json.number r.row_total_ms);
      ("mean_ms", Json.number r.row_mean_ms);
      ("p50_ms", Json.number r.row_p50_ms);
      ("p99_ms", Json.number r.row_p99_ms);
      ("max_ms", Json.number r.row_max_ms);
    ]

let cell_to_json c =
  Json.obj
    [
      ("scheme", Json.quote c.cell_scheme);
      ("level", Json.quote c.cell_level);
      ("txns", string_of_int c.cell_txns);
      ("committed", string_of_int c.cell_committed);
      ("aborted", string_of_int c.cell_aborted);
      ("total_ms", Json.number c.cell_total_ms);
      ( "segments",
        "[" ^ String.concat "," (List.map row_to_json c.cell_rows) ^ "]" );
    ]

let slow_to_json s =
  Json.obj
    [
      ("dominant", Json.quote (kind_name s.slow_dominant));
      ("dominant_ms", Json.number s.slow_dominant_ms);
      ("timeline", timeline_to_json s.slow_timeline);
    ]

let agg_to_json ?(extra = []) agg =
  Json.obj
    ([
       ("blame", Json.quote "cloudtx");
       ("version", "1");
       ("txns", string_of_int agg.txns);
     ]
    @ extra
    @ [
        ( "cells",
          "[" ^ String.concat "," (List.map cell_to_json (agg_cells agg)) ^ "]"
        );
        ( "slowest",
          "["
          ^ String.concat "," (List.map slow_to_json (agg_slowest agg))
          ^ "]" );
      ])

let agg_to_markdown agg =
  let buf = ref [] in
  let line s = buf := s :: !buf in
  line "## Blame";
  line "";
  line
    (Printf.sprintf "%d transactions; time-in-segment per scheme×level cell."
       agg.txns);
  List.iter
    (fun c ->
      line "";
      line
        (Printf.sprintf "### %s / %s — %d txns (%d commit, %d abort), %.3f ms total"
           c.cell_scheme c.cell_level c.cell_txns c.cell_committed
           c.cell_aborted c.cell_total_ms);
      line "";
      line "| segment | txns | spans | total ms | mean ms | p50 ms | p99 ms | max ms |";
      line "|---|---:|---:|---:|---:|---:|---:|---:|";
      List.iter
        (fun r ->
          line
            (Printf.sprintf "| %s | %d | %d | %.3f | %.3f | %.3f | %.3f | %.3f |"
               (kind_name r.row_kind) r.row_txns r.row_spans r.row_total_ms
               r.row_mean_ms r.row_p50_ms r.row_p99_ms r.row_max_ms))
        c.cell_rows)
    (agg_cells agg);
  (match agg_slowest agg with
  | [] -> ()
  | slowest ->
    line "";
    line "### Slowest transactions";
    line "";
    line "| txn | scheme | level | outcome | total ms | dominant | dominant ms |";
    line "|---|---|---|---|---:|---|---:|";
    List.iter
      (fun s ->
        let tl = s.slow_timeline in
        line
          (Printf.sprintf "| %s | %s | %s | %s | %.3f | %s | %.3f |" tl.txn
             tl.scheme tl.level
             (if tl.committed then "commit" else "abort")
             (total_ms tl)
             (kind_name s.slow_dominant)
             s.slow_dominant_ms))
      slowest);
  List.rev !buf
