type t = {
  heap : (unit -> unit) Event_heap.t;
  mutable now : float;
  mutable seq : int;
  mutable steps : int;
  mutable observer : (pending:int -> unit) option;
}

let create () =
  { heap = Event_heap.create (); now = 0.; seq = 0; steps = 0; observer = None }

let set_observer t obs = t.observer <- obs

let now t = t.now

let schedule_at t ~time f =
  let time = Float.max time t.now in
  Event_heap.push t.heap ~time ~seq:t.seq f;
  t.seq <- t.seq + 1

let schedule t ~delay f = schedule_at t ~time:(t.now +. Float.max 0. delay) f

let steps t = t.steps
let pending t = Event_heap.size t.heap

let step t =
  if Event_heap.is_empty t.heap then false
  else begin
    let time = Event_heap.min_time t.heap in
    let f = Event_heap.take t.heap in
    t.now <- time;
    t.steps <- t.steps + 1;
    (match t.observer with
    | None -> ()
    | Some obs -> obs ~pending:(Event_heap.size t.heap));
    f ();
    true
  end

let run ?until ?max_steps t =
  let over_time () =
    match until with
    | None -> false
    | Some limit -> Event_heap.min_time t.heap > limit
  in
  let over_steps executed =
    match max_steps with None -> false | Some m -> executed >= m
  in
  let rec loop executed =
    if Event_heap.is_empty t.heap then `Quiescent
    else if over_time () then `Time_limit
    else if over_steps executed then `Step_limit
    else begin
      ignore (step t);
      loop (executed + 1)
    end
  in
  loop 0
