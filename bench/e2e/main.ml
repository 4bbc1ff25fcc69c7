(* End-to-end host-cost benchmark (see README.md).

     main.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1]
              [--trace-out FILE] [--size full|smoke]
     main.exe --compare BASE.json... -- NEW.json... [--bench BENCHMARK.json]
     main.exe --smoke-test [--bench BENCHMARK.json]
     main.exe --print-pins

   A measuring run prints a log line and, last, one JSON object with
   [correct], [attempted], [failed] and [metrics]: the end-to-end metrics
   untraced, the per-layer ones with [--trace 1].  Exit 0 when every
   output checked out, 1 on the first mismatch (named on stderr), 2 on a
   usage error. *)

module Json = Cloudtx_obs.Json

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1] \
     [--trace-out FILE] [--size full|smoke]\n\
    \       main.exe --compare BASE.json... -- NEW.json... [--bench FILE]\n\
    \       main.exe --smoke-test [--bench FILE]\n\
    \       main.exe --print-pins";
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable trace_out : string option;
  mutable size : Workloads.size;
  mutable bench : string;
  mutable mode : [ `Measure | `Compare of string list * string list | `Smoke | `Pins ];
}

let parse argv =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = 10.;
      trace = false;
      trace_out = None;
      size = Workloads.Full;
      bench = "BENCHMARK.json";
      mode = `Measure;
    }
  in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> o.workload <- Some w; go rest
    | "--seed" :: s :: rest -> o.seed <- int_arg s; go rest
    | "--seconds" :: s :: rest ->
      o.seconds <- (match float_of_string_opt s with Some f -> f | None -> usage ());
      go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> o.trace <- v = "1"; go rest
    | "--trace" :: rest -> o.trace <- true; go rest
    | "--trace-out" :: f :: rest -> o.trace_out <- Some f; go rest
    | "--size" :: "full" :: rest -> o.size <- Workloads.Full; go rest
    | "--size" :: "smoke" :: rest -> o.size <- Workloads.Smoke; go rest
    | "--bench" :: f :: rest -> o.bench <- f; go rest
    | "--smoke-test" :: rest -> o.mode <- `Smoke; go rest
    | "--print-pins" :: rest -> o.mode <- `Pins; go rest
    | "--compare" :: rest ->
      let rec split acc = function
        | "--" :: news -> (List.rev acc, news)
        | f :: more -> split (f :: acc) more
        | [] -> usage ()
      in
      let bases, rest = split [] rest in
      let news, rest =
        let rec take acc = function
          | ("--bench" :: _ as flags) -> (List.rev acc, flags)
          | f :: more -> take (f :: acc) more
          | [] -> (List.rev acc, [])
        in
        take [] rest
      in
      if bases = [] || news = [] then usage ();
      o.mode <- `Compare (bases, news);
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  o

let metrics_json metrics =
  Json.obj
    (List.map
       (fun (name, value, unit) ->
         (name, Json.obj [ ("value", Json.number value); ("unit", Json.quote unit) ]))
       metrics)

let result_json ~correct ~attempted ~failed metrics =
  Json.obj
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ("metrics", metrics_json metrics);
    ]

let with_units table values =
  List.map (fun (name, unit) -> (name, List.assoc name values, unit)) table

let measure o =
  let name = match o.workload with Some w -> w | None -> usage () in
  let w =
    match Workloads.find name with
    | Some w -> w
    | None ->
      Printf.eprintf "e2e: unknown workload %S\n" name;
      exit 2
  in
  let outcome =
    Fun.protect ~finally:Workloads.clean_work_dir (fun () ->
        try
          Ok
            (if o.trace then
               let r =
                 Layers.run w ~seed:o.seed ~size:o.size ?trace_out:o.trace_out ()
               in
               (r.Layers.attempted, with_units Layers.metrics r.Layers.values, r.Layers.log)
             else
               let r = E2e.run w ~seed:o.seed ~size:o.size ~seconds:o.seconds in
               (r.E2e.attempted, with_units E2e.metrics r.E2e.values, r.E2e.log))
        with Oracle.Mismatch why -> Error why)
  in
  match outcome with
  | Error why ->
    Printf.eprintf "e2e: %s seed %d: MISMATCH: %s\n" name o.seed why;
    print_endline (result_json ~correct:false ~attempted:1 ~failed:1 []);
    exit 1
  | Ok (attempted, metrics, log) ->
    print_endline
      (Json.obj
         ([
            ("workload", Json.quote name);
            ("seed", string_of_int o.seed);
            ("trace", if o.trace then "1" else "0");
          ]
         @ log));
    print_endline (result_json ~correct:true ~attempted ~failed:0 metrics)

let () =
  let o = parse Sys.argv in
  match o.mode with
  | `Measure -> measure o
  | `Compare (bases, news) -> exit (Compare.run ~bench:o.bench ~bases ~news)
  | `Smoke -> exit (Smoke.run ~bench:o.bench)
  | `Pins -> Smoke.print_pins ()
