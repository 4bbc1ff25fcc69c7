(* The untraced run: set up, then measure rounds until the time is up,
   and reduce them to the end-to-end metrics.

   A timing is the fastest of its repeats: each position's fastest time
   over the rounds (see [Workloads]) and the fastest set-up.  Other
   tenants of a shared host only ever add time, in bursts that come and
   go over seconds, so the fastest of identical repeats tracks the
   work's own cost where a median tracks the neighbours.  Counts that
   depend only on the inputs (allocation, retained and peak heap) are
   read over the first [min_rounds] rounds, which every run makes, so
   they repeat exactly for a seed however many rounds fit in the time. *)

module Json = Cloudtx_obs.Json
module Sample_set = Cloudtx_metrics.Sample_set

(* Name, unit; the order [BENCHMARK.json] lists them in. *)
let metrics =
  [
    ("setup_s", "s");
    ("ops_per_host_s", "op/s");
    ("batch_ms_p50", "ms");
    ("batch_ms_p90", "ms");
    ("minor_words_per_op", "words");
    ("live_kb_per_op", "KB");
    ("peak_heap_mb", "MB");
    ("scaling", "ratio");
  ]

type result = {
  attempted : int;
  values : (string * float) list;
  log : (string * string) list;  (** JSON fields for the log line *)
}

let min_rounds = function Workloads.Full -> 3 | Workloads.Smoke -> 1

let run (w : Workloads.workload) ~seed ~size ~seconds =
  let wall0 = Host.wall_ms () in
  let setup () = Host.timed (fun () -> Workloads.setup w ~seed ~size) in
  let instance, first_setup = setup () in
  (* Set-up is repeated before every later round, so its samples are
     spread over the run like the rounds'. *)
  let setups = ref [ first_setup ] in
  let deadline = Host.wall_ms () +. (seconds *. 1000.) in
  let fixed = min_rounds size in
  let round k =
    if k > 0 then setups := snd (setup ()) :: !setups;
    instance.Workloads.round ~tracer:Cloudtx_obs.Tracer.noop k
  in
  let first = List.init fixed round in
  let peak_heap_mb = Host.top_heap_mb () in
  let rec more k acc =
    if Host.wall_ms () >= deadline then List.rev acc
    else more (k + 1) (round k :: acc)
  in
  let rounds = first @ more fixed [] in
  let setups = List.rev !setups in
  let retained_words, retained_ops =
    Option.get (List.hd rounds).Workloads.retained
  in
  let per_round f = List.map f rounds in
  let total f = List.fold_left (fun a r -> a +. f r) 0. first in
  let best = List.fold_left Float.min infinity in
  let fastest =
    Array.mapi
      (fun p _ -> best (per_round (fun r -> r.Workloads.times.(p))))
      (List.hd rounds).Workloads.times
  in
  let cost = instance.Workloads.reduce fastest in
  let batches = Stats.sample_set cost.Workloads.batches_ms in
  let values =
    [
      ("setup_s", best setups);
      ( "ops_per_host_s",
        float_of_int (List.hd rounds).Workloads.ops /. cost.Workloads.cpu_s );
      ("batch_ms_p50", Sample_set.percentile batches 50.);
      ("batch_ms_p90", Sample_set.percentile batches 90.);
      ( "minor_words_per_op",
        total (fun r -> r.Workloads.minor_words)
        /. total (fun r -> float_of_int r.Workloads.ops) );
      ( "live_kb_per_op",
        retained_words
        *. float_of_int (Sys.word_size / 8)
        /. 1024. /. float_of_int retained_ops );
      ("peak_heap_mb", peak_heap_mb);
      ("scaling", cost.Workloads.scaling);
    ]
  in
  let floats xs = "[" ^ String.concat "," (List.map Json.number xs) ^ "]" in
  {
    attempted = List.fold_left (fun a r -> a + r.Workloads.attempted) 0 rounds;
    values;
    log =
      [
        ("rounds", string_of_int (List.length rounds));
        ("batch_samples", string_of_int (Sample_set.count batches));
        ("setup_cpu_s", floats setups);
        ("round_cpu_s", floats (per_round (fun r -> Array.fold_left ( +. ) 0. r.Workloads.times)));
        ("wall_s", Json.number ((Host.wall_ms () -. wall0) /. 1000.));
        ( "outputs",
          Json.obj
            (List.map
               (fun (k, v) -> (k, Json.quote v))
               (List.hd rounds).Workloads.outputs) );
      ]
      @ List.map (fun (k, v) -> (k, Json.quote v)) instance.Workloads.detail;
  }
