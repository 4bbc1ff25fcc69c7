type t = {
  width_ms : float;
  windows : Timeseries.cell list;
  totals : Timeseries.totals;
  knee : int option;
}

let finished (w : Timeseries.cell) = w.commits + w.aborts

let total_p99 (w : Timeseries.cell) =
  Option.map
    (fun (s : Timeseries.stats) -> s.p99)
    (List.assoc_opt "total" w.phases)

(* First window whose total-phase p99 inflected (>= 1.5x the best earlier
   p99) while throughput flattened (finished count <= 1.1x the best
   earlier window).  Documented in DESIGN §8. *)
let detect_knee windows =
  let rec go best_p99 best_tp = function
    | [] -> None
    | (w : Timeseries.cell) :: rest -> (
      match total_p99 w with
      | None -> go best_p99 best_tp rest
      | Some p99 ->
        let tp = float_of_int (finished w) in
        let hit =
          match best_p99 with
          | Some base when p99 >= 1.5 *. base && tp <= 1.1 *. best_tp ->
            Some w.index
          | _ -> None
        in
        (match hit with
        | Some _ -> hit
        | None ->
          let best_p99 =
            match best_p99 with
            | None -> Some p99
            | Some b -> Some (Float.min b p99)
          in
          go best_p99 (Float.max best_tp tp) rest))
  in
  go None 0. windows

let make ~width_ms ~windows ~totals =
  { width_ms; windows; totals; knee = detect_knee windows }

let of_timeseries ts =
  make ~width_ms:(Timeseries.width_ms ts) ~windows:(Timeseries.cells ts)
    ~totals:(Timeseries.totals ts)

let throughput t w = float_of_int (finished w) *. 1000. /. t.width_ms

(* ------------------------------------------------------------------ *)
(* JSON and snapshot rendering                                         *)
(* ------------------------------------------------------------------ *)

(* The report JSON's and the snapshot's format versions; bump one on any
   change to that rendering's shape. *)
let format_version = 1
let snapshot_version = 1

let stats_json (s : Timeseries.stats) =
  Json.obj
    [
      ("count", string_of_int s.count);
      ("p50", Json.number s.p50);
      ("p99", Json.number s.p99);
      ("p999", Json.number s.p999);
      ("max", Json.number s.max);
    ]

(* The counters a window and the totals both carry, in rendering order. *)
let counters ~begun ~commits ~aborts ~killed ~staleness ~alerts_fired
    ~alerts_resolved ~alerts_open ~phases =
  [
    ("begun", string_of_int begun);
    ("commits", string_of_int commits);
    ("aborts", string_of_int aborts);
    ("killed", string_of_int killed);
    ("staleness", string_of_int staleness);
    ("alerts_fired", string_of_int alerts_fired);
    ("alerts_resolved", string_of_int alerts_resolved);
    ("alerts_open", string_of_int alerts_open);
    ("phases", Json.obj (List.map (fun (name, s) -> (name, stats_json s)) phases));
  ]

(* [derived] fields (the report's throughput) follow the window's start. *)
let window_json ?(derived = []) (w : Timeseries.cell) =
  Json.obj
    ((("window", string_of_int w.index) :: ("start_ms", Json.number w.start_ms)
     :: derived)
    @ counters ~begun:w.begun ~commits:w.commits ~aborts:w.aborts
        ~killed:w.killed ~staleness:w.staleness ~alerts_fired:w.alerts_fired
        ~alerts_resolved:w.alerts_resolved ~alerts_open:w.alerts_open
        ~phases:w.phases)

let totals_json (tot : Timeseries.totals) =
  Json.obj
    (counters ~begun:tot.begun ~commits:tot.commits ~aborts:tot.aborts
       ~killed:tot.killed ~staleness:tot.staleness
       ~alerts_fired:tot.alerts_fired ~alerts_resolved:tot.alerts_resolved
       ~alerts_open:tot.alerts_open ~phases:tot.phases)

let to_json t =
  let window w =
    window_json ~derived:[ ("throughput_tps", Json.number (throughput t w)) ] w
  in
  Json.obj
    [
      ("report", {|"cloudtx"|});
      ("version", string_of_int format_version);
      ("width_ms", Json.number t.width_ms);
      ( "knee",
        match t.knee with None -> "null" | Some i -> string_of_int i );
      ("totals", totals_json t.totals);
      ("windows", "[" ^ String.concat "," (List.map window t.windows) ^ "]");
    ]

let to_snapshot t =
  let header =
    Json.obj
      [
        ("metrics", {|"cloudtx"|});
        ("version", string_of_int snapshot_version);
        ("width_ms", Json.number t.width_ms);
      ]
  in
  String.concat "\n"
    ((header :: List.map window_json t.windows)
    @ [ Json.obj [ ("totals", totals_json t.totals) ]; "" ])

(* ------------------------------------------------------------------ *)
(* Markdown rendering                                                  *)
(* ------------------------------------------------------------------ *)

let ms v = Printf.sprintf "%.2f" v

let phase_cell (w : Timeseries.cell) name pick =
  match List.assoc_opt name w.phases with
  | None -> "-"
  | Some s -> ms (pick s)

let bar scale v =
  let n =
    if scale <= 0. then 0
    else int_of_float (Float.round (v /. scale *. 20.))
  in
  String.concat "" (List.init (Stdlib.max 0 (Stdlib.min 20 n)) (fun _ -> "█"))

let add_line buf fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt

let to_markdown ?(alert_lines = []) ?(blame_lines = []) t =
  let buf = Buffer.create 4096 in
  let tot = t.totals in
  add_line buf "# cloudtx run report";
  add_line buf "";
  let span_ms = float_of_int (List.length t.windows) *. t.width_ms in
  add_line buf "- windows: %d × %g ms (sim-time 0 – %g ms)"
    (List.length t.windows) t.width_ms span_ms;
  let fin = tot.commits + tot.aborts in
  add_line buf
    "- transactions: %d begun, %d finished — %d committed, %d aborted (%d \
     wait-die)%s"
    tot.begun fin tot.commits tot.aborts tot.killed
    (if fin = 0 then ""
     else
       Printf.sprintf ", %.1f%% commit"
         (100. *. float_of_int tot.commits /. float_of_int fin));
  add_line buf "- policy staleness peak: %d version(s)" tot.staleness;
  add_line buf "- alerts: %d fired, %d resolved, %d open" tot.alerts_fired
    tot.alerts_resolved tot.alerts_open;
  (match t.knee with
  | Some i ->
    add_line buf
      "- **saturation knee: window %d (t = %g ms)** — p99 inflected while \
       throughput flattened"
      i
      (float_of_int i *. t.width_ms)
  | None -> add_line buf "- saturation knee: none detected");
  add_line buf "";
  add_line buf "## Throughput per window";
  add_line buf "";
  add_line buf
    "| window | t (ms) | txn/s | commits | aborts | stale | alerts open | |";
  add_line buf "|---:|---:|---:|---:|---:|---:|---:|:---|";
  let peak_tps =
    List.fold_left (fun acc w -> Float.max acc (throughput t w)) 0. t.windows
  in
  List.iter
    (fun w ->
      let tps = throughput t w in
      add_line buf "| %d | %g | %.1f | %d | %d | %d | %d | %s |" w.index
        w.start_ms tps w.commits w.aborts w.staleness w.alerts_open
        (bar peak_tps tps))
    t.windows;
  add_line buf "";
  add_line buf "## Phase latency per window (ms)";
  add_line buf "";
  add_line buf
    "| window | exec p50 | exec p99 | commit p50 | commit p99 | decide p50 | \
     decide p99 | total p50 | total p99 | total p999 |";
  add_line buf "|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|";
  List.iter
    (fun (w : Timeseries.cell) ->
      add_line buf "| %d | %s | %s | %s | %s | %s | %s | %s | %s | %s |"
        w.index
        (phase_cell w "execute" (fun s -> s.p50))
        (phase_cell w "execute" (fun s -> s.p99))
        (phase_cell w "commit" (fun s -> s.p50))
        (phase_cell w "commit" (fun s -> s.p99))
        (phase_cell w "decide" (fun s -> s.p50))
        (phase_cell w "decide" (fun s -> s.p99))
        (phase_cell w "total" (fun s -> s.p50))
        (phase_cell w "total" (fun s -> s.p99))
        (phase_cell w "total" (fun s -> s.p999)))
    t.windows;
  add_line buf "";
  add_line buf "## Whole-run phase quantiles (ms)";
  add_line buf "";
  add_line buf "| phase | count | p50 | p99 | p999 | max |";
  add_line buf "|:---|---:|---:|---:|---:|---:|";
  List.iter
    (fun (name, (s : Timeseries.stats)) ->
      add_line buf "| %s | %d | %s | %s | %s | %s |" name s.count (ms s.p50)
        (ms s.p99) (ms s.p999) (ms s.max))
    tot.phases;
  if alert_lines <> [] then begin
    add_line buf "";
    add_line buf "## Alert timeline";
    add_line buf "";
    add_line buf "```";
    List.iter (fun l -> add_line buf "%s" l) alert_lines;
    add_line buf "```"
  end;
  if blame_lines <> [] then begin
    add_line buf "";
    List.iter (fun l -> add_line buf "%s" l) blame_lines
  end;
  Buffer.contents buf
