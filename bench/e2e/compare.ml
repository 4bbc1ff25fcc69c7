(* [--compare BASE... -- NEW...]: judge two sets of runs against the
   bounds in BENCHMARK.json.

   Each file is a run's captured standard output (a log line naming the
   workload, then the result line).  For each workload and metric it
   prints both sides' medians and quartiles, the pairs each side wins
   (the i-th base run against the i-th new run; ties count for neither)
   and a verdict:
   - better: every new run beats every base run, or the new side wins
     at least 9 pairs in 10 and the medians differ by more than the base
     side's interquartile range;
   - unresolved: the base side's interquartile range is wider than the
     bound, so a move within it cannot be told from noise;
   - worse: the new median is worse than the base median by more than
     the bound;
   - same: otherwise.
   Per-layer metrics have no bound and get no verdict.  Exit 1 when any
   verdict is worse. *)

module Json = Cloudtx_policy.Json

type spec = { better_higher : bool; bound : float option }

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("compare: " ^ m); exit 2) fmt

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error m -> fail "%s" m

let get what = function Ok v -> v | Error m -> fail "%s: %s" what m
let member k j = Json.member k j

(* Metric name -> direction and bound, from BENCHMARK.json. *)
let specs bench =
  let j = get bench (Json.parse (read_file bench)) in
  let section key ~bounded =
    get key (Result.bind (member key j) Json.to_list)
    |> List.map (fun m ->
           let name = get "name" (Result.bind (member "name" m) Json.to_str) in
           let better = get "better" (Result.bind (member "better" m) Json.to_str) in
           let bound =
             if bounded then Some (get "bound" (Result.bind (member "bound" m) Json.to_float))
             else None
           in
           (name, { better_higher = String.equal better "higher"; bound }))
  in
  section "end_to_end" ~bounded:true @ section "per_layer" ~bounded:false

(* (workload, metric) -> values, in file order. *)
let samples files =
  let table = Hashtbl.create 64 in
  List.iter
    (fun path ->
      let workload = ref None in
      String.split_on_char '\n' (read_file path)
      |> List.iter (fun line ->
             match Json.parse (String.trim line) with
             | Error _ -> ()
             | Ok j -> (
               (match Result.bind (member "workload" j) Json.to_str with
               | Ok w -> workload := Some w
               | Error _ -> ());
               match (member "metrics" j, !workload) with
               | Ok (Json.Obj metrics), Some w ->
                 List.iter
                   (fun (name, m) ->
                     match Result.bind (member "value" m) Json.to_float with
                     | Ok v ->
                       let key = (w, name) in
                       let prev = Option.value ~default:[] (Hashtbl.find_opt table key) in
                       Hashtbl.replace table key (prev @ [ v ])
                     | Error _ -> ())
                   metrics
               | _ -> ())))
    files;
  table

let verdict spec base news =
  let mb = Stats.median base and mn = Stats.median news in
  let q1, q3 = Stats.quartiles base in
  let iqr = q3 -. q1 in
  let better a b = if spec.better_higher then a > b else a < b in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip base news in
  let new_wins = List.length (List.filter (fun (b, n) -> better n b) pairs) in
  let base_wins = List.length (List.filter (fun (b, n) -> better b n) pairs) in
  let worse_by = (if spec.better_higher then mb -. mn else mn -. mb) /. Float.abs mb in
  let all_better = List.for_all (fun n -> List.for_all (fun b -> better n b) base) news in
  let v =
    match spec.bound with
    | None -> "-"
    | Some bound ->
      if all_better then "better"
      else if iqr /. Float.abs mb > bound then "unresolved"
      else if worse_by > bound then "worse"
      else if
        pairs <> []
        && float_of_int new_wins >= 0.9 *. float_of_int (List.length pairs)
        && Float.abs (mn -. mb) > iqr
      then "better"
      else "same"
  in
  (v, base_wins, new_wins)

let run ~bench ~bases ~news =
  let specs = specs bench in
  let base = samples bases and next = samples news in
  let workloads =
    List.sort_uniq compare (Hashtbl.fold (fun (w, _) _ acc -> w :: acc) base [])
  in
  let side xs =
    let q1, q3 = Stats.quartiles xs in
    Printf.sprintf "%.6g [%.6g, %.6g]" (Stats.median xs) q1 q3
  in
  let rows =
    List.concat_map
      (fun w ->
        List.filter_map
          (fun (name, spec) ->
            match (Hashtbl.find_opt base (w, name), Hashtbl.find_opt next (w, name)) with
            | Some b, Some n ->
              let v, bw, nw = verdict spec b n in
              Some [ w; name; side b; side n; Printf.sprintf "%d/%d" bw nw; v ]
            | _ -> None)
          specs)
      workloads
  in
  Cloudtx_metrics.Table.print ~title:"base vs new: median [q1, q3], pairs won base/new"
    ~headers:[ "workload"; "metric"; "base"; "new"; "wins"; "verdict" ]
    rows;
  if List.exists (fun row -> List.nth row 5 = "worse") rows then 1 else 0
