type labels = (string * string) list

type counter = int ref
type gauge = { mutable value : float }

type cell =
  | Counter of counter
  | Gauge of gauge
  | Hist of Sketch.t

type t = { enabled : bool; cells : (string * labels, cell) Hashtbl.t }

let noop = { enabled = false; cells = Hashtbl.create 1 }
let create () = { enabled = true; cells = Hashtbl.create 64 }
let enabled t = t.enabled

let canonical labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

let cell t name labels make =
  let key = (name, canonical labels) in
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
    let c = make () in
    Hashtbl.add t.cells key c;
    c

let type_error name cell want =
  invalid_arg
    (Printf.sprintf "Registry: %s is a %s, not a %s" name (kind_name cell) want)

let incr ?(by = 1) t name labels =
  if t.enabled then
    match cell t name labels (fun () -> Counter (ref 0)) with
    | Counter r -> r := !r + by
    | c -> type_error name c "counter"

let set_gauge t name labels v =
  if t.enabled then
    match cell t name labels (fun () -> Gauge { value = 0. }) with
    | Gauge g -> g.value <- v
    | c -> type_error name c "gauge"

let observe t name labels v =
  if t.enabled then
    match cell t name labels (fun () -> Hist (Sketch.create ())) with
    | Hist h -> Sketch.observe h v
    | c -> type_error name c "histogram"

let counter_cell t name labels =
  if not t.enabled then ref 0
  else
    match cell t name labels (fun () -> Counter (ref 0)) with
    | Counter r -> r
    | c -> type_error name c "counter"

let incr_cell r = r := !r + 1

let gauge_cell t name labels =
  if not t.enabled then { value = 0. }
  else
    match cell t name labels (fun () -> Gauge { value = 0. }) with
    | Gauge g -> g
    | c -> type_error name c "gauge"

let set_cell g v = g.value <- v

let find t name labels = Hashtbl.find_opt t.cells (name, canonical labels)

let counter t name labels =
  match find t name labels with Some (Counter r) -> !r | Some _ | None -> 0

let counter_total t name =
  Hashtbl.fold
    (fun (n, _) c acc ->
      match c with
      | Counter r when String.equal n name -> acc + !r
      | Counter _ | Gauge _ | Hist _ -> acc)
    t.cells 0

let gauge t name labels =
  match find t name labels with
  | Some (Gauge g) -> Some g.value
  | Some _ | None -> None

let histogram t name labels =
  match find t name labels with Some (Hist h) -> Some h | Some _ | None -> None

let series t =
  let value = function
    | Counter r -> `Counter !r
    | Gauge g -> `Gauge g.value
    | Hist h -> `Histogram h
  in
  Hashtbl.fold
    (fun (name, labels) c acc -> (name, labels, value c) :: acc)
    t.cells []
  |> List.sort (fun (a, la, _) (b, lb, _) ->
         match String.compare a b with
         | 0 -> Stdlib.compare (la : labels) lb
         | c -> c)

let labels_string labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let to_rows t =
  List.map
    (fun (name, labels, v) ->
      let ls = labels_string labels in
      match v with
      | `Counter n -> [ name; ls; string_of_int n; ""; ""; ""; "" ]
      | `Gauge g -> [ name; ls; ""; Printf.sprintf "%g" g; ""; ""; "" ]
      | `Histogram h ->
        let p q =
          if Sketch.count h = 0 then "-"
          else Printf.sprintf "%.2f" (Sketch.percentile h q)
        in
        [
          name;
          ls;
          string_of_int (Sketch.count h);
          Printf.sprintf "%.2f" (Sketch.mean h);
          p 50.;
          p 95.;
          p 99.;
        ])
    (series t)

(* Prometheus text exposition format (version 0.0.4). *)

let prom_name name =
  let sanitized =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name
  in
  if sanitized = "" then "_"
  else
    match sanitized.[0] with
    | '0' .. '9' -> "_" ^ sanitized
    | _ -> sanitized

let prom_label_name name =
  let sanitized =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      name
  in
  if sanitized = "" then "_"
  else
    match sanitized.[0] with
    | '0' .. '9' -> "_" ^ sanitized
    | _ -> sanitized

let prom_escape v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf {|\\|}
      | '"' -> Buffer.add_string buf {|\"|}
      | '\n' -> Buffer.add_string buf {|\n|}
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "%s=\"%s\"" (prom_label_name k) (prom_escape v))
           labels)
    ^ "}"

let prom_number v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let prom_help = function
  | "messages_total" -> Some "Messages sent, by wire label."
  | "txn_total" -> Some "Finished transactions, by outcome, scheme and consistency."
  | "txn_latency_ms" -> Some "Submit-to-finish transaction latency (ms)."
  | "commit_rounds" -> Some "2PVC voting rounds per transaction."
  | "proofs_per_txn" -> Some "Proofs evaluated per transaction."
  | "phase_execute_ms" -> Some "Execution-phase duration (ms)."
  | "phase_commit_ms" -> Some "Commit-phase (2PVC) duration (ms)."
  | "phase_decide_ms" -> Some "Decision-distribution duration (ms)."
  | "proofs_total" -> Some "Proof evaluations, by server."
  | "log_force_total" -> Some "Forced log writes, by site."
  | "wal_append_total" -> Some "WAL appends, by server and record type."
  | "lock_acquire_total" -> Some "Lock acquisitions, by server and outcome."
  | "lock_promoted_total" -> Some "Queued lock requests promoted to holders."
  | "lock_killed_total" -> Some "Parked waiters killed by wait-die re-checks."
  | "lock_wait_ms" -> Some "Time parked on a lock before grant or death (ms)."
  | "policy_master_version" -> Some "Latest policy version at the master, by domain."
  | "policy_staleness" ->
    Some "Versions a server's policy replica trails the master, by domain."
  | "sim.pending_events" -> Some "Discrete-event engine queue depth."
  | "alerts_total" -> Some "Health alerts fired, by rule and severity."
  | "alerts_active" -> Some "Health alerts currently firing, by rule."
  | "journal.dropped" ->
    Some "Journal records evicted from the in-memory buffer by the byte cap."
  | _ -> None

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let last_name = ref None in
  List.iter
    (fun (name, labels, v) ->
      let pname = prom_name name in
      if !last_name <> Some name then begin
        last_name := Some name;
        (match prom_help name with
        | Some help -> Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" pname help)
        | None -> ());
        let kind =
          match v with
          | `Counter _ -> "counter"
          | `Gauge _ -> "gauge"
          | `Histogram _ -> "histogram"
        in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" pname kind)
      end;
      match v with
      | `Counter n ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %d\n" pname (prom_labels labels) n)
      | `Gauge g ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" pname (prom_labels labels) (prom_number g))
      | `Histogram h ->
        let count = Sketch.count h in
        let cumulative = ref 0 in
        List.iter
          (fun (le, n) ->
            cumulative := !cumulative + n;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" pname
                 (prom_labels (labels @ [ ("le", prom_number le) ]))
                 !cumulative))
          (Sketch.bins h);
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket%s %d\n" pname
             (prom_labels (labels @ [ ("le", "+Inf") ]))
             count);
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" pname (prom_labels labels)
             (prom_number (Sketch.sum h)));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" pname (prom_labels labels) count))
    (series t);
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i (name, labels, v) ->
      if i > 0 then Buffer.add_char buf ',';
      let labels_json =
        Json.obj (List.map (fun (k, lv) -> (k, Json.quote lv)) labels)
      in
      let fields =
        [ ("metric", Json.quote name); ("labels", labels_json) ]
        @
        match v with
        | `Counter n -> [ ("type", {|"counter"|}); ("value", string_of_int n) ]
        | `Gauge g -> [ ("type", {|"gauge"|}); ("value", Json.number g) ]
        | `Histogram h ->
          let p q =
            if Sketch.count h = 0 then "null"
            else Json.number (Sketch.percentile h q)
          in
          [
            ("type", {|"histogram"|});
            ("count", string_of_int (Sketch.count h));
            ("mean", Json.number (Sketch.mean h));
            ("min", if Sketch.count h = 0 then "null" else Json.number (Sketch.min h));
            ("max", if Sketch.count h = 0 then "null" else Json.number (Sketch.max h));
            ("p50", p 50.);
            ("p95", p 95.);
            ("p99", p 99.);
            ( "buckets",
              "["
              ^ String.concat ","
                  (List.map
                     (fun (le, n) ->
                       Json.obj
                         [ ("le", Json.number le); ("count", string_of_int n) ])
                     (Sketch.bins h))
              ^ "]" );
          ]
      in
      Buffer.add_string buf (Json.obj fields))
    (series t);
  Buffer.add_char buf ']';
  Buffer.contents buf
