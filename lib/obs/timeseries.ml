let phase_names = [| "execute"; "commit"; "decide"; "total" |]
let n_phases = Array.length phase_names

type window = {
  mutable w_begun : int;
  mutable w_commits : int;
  mutable w_aborts : int;
  mutable w_killed : int;
  mutable w_staleness : int;
  mutable w_fired : int;
  mutable w_resolved : int;
  sketches : Sketch.t option array;  (* indexed like [phase_names] *)
}

type t = {
  width_ms : float;
  mutable windows : window option array;
  mutable max_index : int;  (* -1 until the first observation *)
  mutable staleness_peak : int;
}

let create ?(width_ms = 100.) () =
  if not (width_ms > 0.) then invalid_arg "Timeseries.create: width_ms <= 0";
  {
    width_ms;
    windows = Array.make 16 None;
    max_index = -1;
    staleness_peak = 0;
  }

let width_ms t = t.width_ms

let fresh_window () =
  {
    w_begun = 0;
    w_commits = 0;
    w_aborts = 0;
    w_killed = 0;
    w_staleness = 0;
    w_fired = 0;
    w_resolved = 0;
    sketches = Array.make n_phases None;
  }

(* Window i covers [i*w, (i+1)*w): an observation exactly on an edge
   belongs to the window that starts there. *)
let index_of t time_ms =
  let i = int_of_float (Float.floor (time_ms /. t.width_ms)) in
  if i < 0 then 0 else i

let window_at t i =
  if i >= Array.length t.windows then begin
    let n = ref (Array.length t.windows) in
    while i >= !n do
      n := !n * 2
    done;
    let grown = Array.make !n None in
    Array.blit t.windows 0 grown 0 (Array.length t.windows);
    t.windows <- grown
  end;
  if i > t.max_index then t.max_index <- i;
  match t.windows.(i) with
  | Some w -> w
  | None ->
    let w = fresh_window () in
    t.windows.(i) <- Some w;
    w

let sketch_at w phase =
  match w.sketches.(phase) with
  | Some s -> s
  | None ->
    let s = Sketch.create () in
    w.sketches.(phase) <- Some s;
    s

let record_phase w phase v = Sketch.observe (sketch_at w phase) v

(* ------------------------------------------------------------------ *)
(* Observations                                                        *)
(* ------------------------------------------------------------------ *)

let at t time_ms = window_at t (index_of t time_ms)
let tick t ~time_ms = ignore (at t time_ms)

let txn_begin t ~time_ms =
  let w = at t time_ms in
  w.w_begun <- w.w_begun + 1

let txn_end t ~time_ms ~committed ~killed =
  let w = at t time_ms in
  if committed then w.w_commits <- w.w_commits + 1
  else begin
    w.w_aborts <- w.w_aborts + 1;
    if killed then w.w_killed <- w.w_killed + 1
  end

let latency t ~time_ms ~total_ms ~execute_ms ~commit_ms ~decide_ms =
  let w = at t time_ms in
  Option.iter (record_phase w 0) execute_ms;
  Option.iter (record_phase w 1) commit_ms;
  Option.iter (record_phase w 2) decide_ms;
  record_phase w 3 total_ms

let staleness t ~time_ms lag =
  let w = at t time_ms in
  if lag > w.w_staleness then w.w_staleness <- lag;
  if lag > t.staleness_peak then t.staleness_peak <- lag

let note_alert t transition (a : Slo.alert) =
  match transition with
  | `Fire ->
    let w = at t a.Slo.fired_at in
    w.w_fired <- w.w_fired + 1
  | `Resolve ->
    let w = at t (Option.value ~default:a.Slo.fired_at a.Slo.resolved_at) in
    w.w_resolved <- w.w_resolved + 1

(* ------------------------------------------------------------------ *)
(* Reading the series                                                  *)
(* ------------------------------------------------------------------ *)

type stats = { count : int; p50 : float; p99 : float; p999 : float; max : float }

type cell = {
  index : int;
  start_ms : float;
  begun : int;
  commits : int;
  aborts : int;
  killed : int;
  staleness : int;
  alerts_fired : int;
  alerts_resolved : int;
  alerts_open : int;
  phases : (string * stats) list;
}

type totals = {
  begun : int;
  commits : int;
  aborts : int;
  killed : int;
  staleness : int;
  alerts_fired : int;
  alerts_resolved : int;
  alerts_open : int;
  phases : (string * stats) list;
}

let stats_of_sketch s =
  {
    count = Sketch.count s;
    p50 = Sketch.percentile s 50.;
    p99 = Sketch.percentile s 99.;
    p999 = Sketch.percentile s 99.9;
    max = Sketch.max s;
  }

let phases_of sketches =
  let out = ref [] in
  for p = n_phases - 1 downto 0 do
    match sketches.(p) with
    | Some s when Sketch.count s > 0 ->
      out := (phase_names.(p), stats_of_sketch s) :: !out
    | Some _ | None -> ()
  done;
  !out

let empty_window = fresh_window ()

let cells t =
  let open_alerts = ref 0 in
  List.init (t.max_index + 1) (fun i ->
      let w =
        match t.windows.(i) with Some w -> w | None -> empty_window
      in
      open_alerts := !open_alerts + w.w_fired - w.w_resolved;
      {
        index = i;
        start_ms = float_of_int i *. t.width_ms;
        begun = w.w_begun;
        commits = w.w_commits;
        aborts = w.w_aborts;
        killed = w.w_killed;
        staleness = w.w_staleness;
        alerts_fired = w.w_fired;
        alerts_resolved = w.w_resolved;
        alerts_open = !open_alerts;
        phases = phases_of w.sketches;
      })

let totals t =
  let begun = ref 0
  and commits = ref 0
  and aborts = ref 0
  and killed = ref 0
  and fired = ref 0
  and resolved = ref 0 in
  let merged = Array.make n_phases None in
  for i = 0 to t.max_index do
    match t.windows.(i) with
    | None -> ()
    | Some w ->
      begun := !begun + w.w_begun;
      commits := !commits + w.w_commits;
      aborts := !aborts + w.w_aborts;
      killed := !killed + w.w_killed;
      fired := !fired + w.w_fired;
      resolved := !resolved + w.w_resolved;
      Array.iteri
        (fun p sk ->
          match sk with
          | None -> ()
          | Some s ->
            let dst =
              match merged.(p) with
              | Some d -> d
              | None ->
                let d = Sketch.create ~sub_bits:(Sketch.sub_bits s) () in
                merged.(p) <- Some d;
                d
            in
            Sketch.merge_into dst s)
        w.sketches
  done;
  {
    begun = !begun;
    commits = !commits;
    aborts = !aborts;
    killed = !killed;
    staleness = t.staleness_peak;
    alerts_fired = !fired;
    alerts_resolved = !resolved;
    alerts_open = !fired - !resolved;
    phases = phases_of merged;
  }
