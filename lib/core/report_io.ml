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
