module Json = Cloudtx_policy.Json
module Report = Cloudtx_obs.Report
module Timeseries = Cloudtx_obs.Timeseries
module Monitor = Cloudtx_obs.Monitor
module Slo = Cloudtx_obs.Slo

(* ------------------------------------------------------------------ *)
(* Offline path: journal replay                                        *)
(* ------------------------------------------------------------------ *)

let of_journal ?(rules = Slo.default) ?width_ms path =
  let ts = Timeseries.create ?width_ms () in
  let monitor =
    Monitor.create ~rules ~notify:(Timeseries.note_alert ts) ()
  in
  match Health.of_file ~timeseries:ts path monitor with
  | Error m -> Error m
  | Ok _fed -> Ok (Report.of_timeseries ts, monitor)

(* ------------------------------------------------------------------ *)
(* Alert timelines                                                     *)
(* ------------------------------------------------------------------ *)

let alert_lines_of_monitor = Monitor.console_lines

let ( let* ) = Json.( let* )
let int_field name j = Result.bind (Json.member name j) Json.to_int
let float_field name j = Result.bind (Json.member name j) Json.to_float

let non_empty_lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")

let lineno_err n r =
  Result.map_error (fun m -> Printf.sprintf "line %d: %s" n m) r

let alert_line_of_json j =
  let* event = Result.bind (Json.member "event" j) Json.to_str in
  let* rule = Result.bind (Json.member "rule" j) Json.to_str in
  let* severity = Result.bind (Json.member "severity" j) Json.to_str in
  let* subject = Result.bind (Json.member "subject" j) Json.to_str in
  let* node = Result.bind (Json.member "node" j) Json.to_str in
  let* first_seq = int_field "first_seq" j in
  let* last_seq = int_field "last_seq" j in
  let* time_ms = float_field "time_ms" j in
  let* detail = Result.bind (Json.member "detail" j) Json.to_str in
  Ok
    (Printf.sprintf "%s %s %s %s (%s) seq %d..%d at %.1fms: %s"
       (String.uppercase_ascii event)
       rule severity subject node first_seq last_seq time_ms detail)

let alert_lines_of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | contents -> (
    match non_empty_lines contents with
    | [] -> Ok []
    | _header :: records ->
      let rec go n acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest ->
          let* j = lineno_err n (Json.parse line) in
          let* l = lineno_err n (alert_line_of_json j) in
          go (n + 1) (l :: acc) rest
      in
      go 2 [] records)
