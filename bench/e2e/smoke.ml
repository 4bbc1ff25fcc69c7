(* [--smoke-test]: every workload at smoke size, untraced and traced, in
   a few seconds.  Checks that BENCHMARK.json names exactly the metrics
   and workloads the benchmark emits (with their units), that every
   metric is emitted and finite, that the smoke pins hold (seeds 1 and
   2), and that the Chrome trace parses with properly nested spans.

   [--print-pins] regenerates pins.ml from the current outputs. *)

module Json = Cloudtx_policy.Json
module W = Workloads

let ( let* ) = Result.bind

let str k j = Result.bind (Json.member k j) Json.to_str

(* (name, unit) of a BENCHMARK.json metric section, in order. *)
let section j key =
  let* metrics = Result.bind (Json.member key j) Json.to_list in
  List.fold_right
    (fun m acc ->
      let* acc = acc in
      let* name = str "name" m in
      let* unit = str "unit" m in
      Ok ((name, unit) :: acc))
    metrics (Ok [])

let check_bench path =
  let* contents =
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error m -> Error m
  in
  let* j = Json.parse contents in
  let* workloads = Result.bind (Json.member "workloads" j) Json.to_list in
  let* names =
    List.fold_right
      (fun w acc ->
        let* acc = acc in
        let* n = str "name" w in
        Ok (n :: acc))
      workloads (Ok [])
  in
  let* e2e = section j "end_to_end" in
  let* layers = section j "per_layer" in
  let same what listed emitted =
    if listed = emitted then Ok ()
    else
      Error
        (Printf.sprintf "%s in %s: %s; the benchmark emits: %s" what path
           (String.concat ", " (List.map (fun (n, u) -> n ^ " " ^ u) listed))
           (String.concat ", " (List.map (fun (n, u) -> n ^ " " ^ u) emitted)))
  in
  let* () =
    same "workloads"
      (List.map (fun n -> (n, "")) names)
      (List.map (fun w -> (w.W.name, "")) W.all)
  in
  let* () = same "end_to_end metrics" e2e E2e.metrics in
  same "per_layer metrics" layers Layers.metrics

(* Complete ("X") events on one track must nest: each starts after its
   enclosing event starts and ends before it ends. *)
let check_trace path =
  let* j =
    Json.parse (In_channel.with_open_bin path In_channel.input_all)
  in
  let* events = Result.bind (Json.member "traceEvents" j) Json.to_list in
  let num k e = Result.bind (Json.member k e) Json.to_float in
  let* spans =
    List.fold_right
      (fun e acc ->
        let* acc = acc in
        match str "ph" e with
        | Ok "X" ->
          let* ts = num "ts" e in
          let* dur = num "dur" e in
          let* tid = num "tid" e in
          Ok ((tid, ts, ts +. dur) :: acc)
        | _ -> Ok acc)
      events (Ok [])
  in
  let sorted =
    List.sort
      (fun (t1, s1, e1) (t2, s2, e2) -> compare (t1, s1, -.e1) (t2, s2, -.e2))
      spans
  in
  let rec go stack = function
    | [] -> Ok (List.length spans)
    | ((tid, s, e) as span) :: rest ->
      let stack =
        List.filter (fun (t, _, pe) -> t = tid && pe > s) stack
      in
      (match stack with
      | (_, _, pe) :: _ when e > pe +. 1e-3 ->
        Error (Printf.sprintf "%s: span at ts %.3f overlaps its parent" path s)
      | _ -> go (span :: stack) rest)
  in
  if spans = [] then Error (path ^ ": no spans") else go [] sorted

let emitted what table values =
  List.iter
    (fun (name, _) ->
      match List.assoc_opt name values with
      | Some v when Float.is_finite v -> ()
      | Some v -> Oracle.fail "%s: %s is %g" what name v
      | None -> Oracle.fail "%s: %s not emitted" what name)
    table

let run ~bench =
  match check_bench bench with
  | Error m ->
    prerr_endline ("smoke: " ^ m);
    1
  | Ok () -> (
    try
      Fun.protect ~finally:W.clean_work_dir (fun () ->
          List.iter
            (fun (w : W.workload) ->
              let t0 = Host.wall_ms () in
              List.iter
                (fun seed ->
                  let r = E2e.run w ~seed ~size:W.Smoke ~seconds:0. in
                  emitted w.W.name E2e.metrics r.E2e.values;
                  List.iter
                    (fun (name, v) ->
                      Oracle.check (v > 0.) "%s: %s is %g, expected > 0" w.W.name
                        name v)
                    r.E2e.values)
                [ 1; 2 ];
              let trace = W.work_file "smoke-trace.json" in
              let r = Layers.run w ~seed:1 ~size:W.Smoke ~trace_out:trace () in
              emitted w.W.name Layers.metrics r.Layers.values;
              match check_trace trace with
              | Ok spans ->
                Printf.printf "smoke %-16s ok: %d metrics, %d spans, %.2fs\n%!"
                  w.W.name
                  (List.length E2e.metrics + List.length Layers.metrics)
                  spans
                  ((Host.wall_ms () -. t0) /. 1000.)
              | Error m -> Oracle.fail "%s" m)
            W.all);
      0
    with Oracle.Mismatch m ->
      prerr_endline ("smoke: MISMATCH: " ^ m);
      1)

let print_pins () =
  Oracle.collecting := true;
  Fun.protect ~finally:W.clean_work_dir (fun () ->
      List.iter
        (fun seed ->
          List.iter
            (fun size ->
              List.iter
                (fun (w : W.workload) ->
                  let instance = W.setup w ~seed ~size in
                  ignore (instance.W.round ~tracer:Cloudtx_obs.Tracer.noop 0);
                  ignore (Layers.capture w ~seed ~size ~tracer:Cloudtx_obs.Tracer.noop))
                W.all)
            [ W.Full; W.Smoke ])
        [ 1; 2 ]);
  print_string
    "(* Sim-visible outputs pinned for seeds 1 and 2 at every size the\n\
    \   benchmark runs: (stream, seed, transactions, outputs).  Generated by\n\
    \   [main.exe --print-pins]; a change here is a change to the\n\
    \   simulation, which must not move. *)\n\n";
  Oracle.print_pins ()
