type mode = Shared | Exclusive

type request = { txn : string; ts : float; mode : mode }

type lock_state = {
  key : string;
  stamp : int;  (* insertion order into the table *)
  mutable holders : request list; (* all Shared, or a single Exclusive *)
  mutable queue : request list; (* oldest-ts first *)
}

type outcome = Granted | Queued | Die

type observer = {
  on_acquire : txn:string -> key:string -> mode:mode -> outcome:outcome -> unit;
  on_promoted : txn:string -> key:string -> mode:mode -> unit;
  on_killed : txn:string -> key:string -> unit;
}

(* [footprint] lists, per transaction, the states it has held or waited
   on since its last release (a waiter killed at a promotion stays
   listed), so a release visits only those.  It must visit them in the
   order an iteration over [table] would — the order the promotions and
   kills go back in — so [buckets] follows the table's bucket count: 64
   from [create] and [Hashtbl.reset], doubled when an insertion takes
   the table past twice its buckets. *)
type t = {
  table : (string, lock_state) Hashtbl.t;
  footprint : (string, lock_state list) Hashtbl.t;
  mutable buckets : int;
  mutable stamps : int;
  mutable observer : observer option;
}

let initial_buckets = 64

let create () =
  {
    table = Hashtbl.create initial_buckets;
    footprint = Hashtbl.create 16;
    buckets = initial_buckets;
    stamps = 0;
    observer = None;
  }

let set_observer t obs = t.observer <- obs

let state t key =
  match Hashtbl.find t.table key with
  | s -> s
  | exception Not_found ->
    let s = { key; stamp = t.stamps; holders = []; queue = [] } in
    t.stamps <- t.stamps + 1;
    Hashtbl.add t.table key s;
    if Hashtbl.length t.table > 2 * t.buckets then t.buckets <- 2 * t.buckets;
    s

let footprint t txn =
  match Hashtbl.find t.footprint txn with l -> l | exception Not_found -> []

let enter t txn s =
  let l = footprint t txn in
  if not (List.memq s l) then Hashtbl.replace t.footprint txn (s :: l)

let compatible requested holders =
  match requested with
  | Shared -> List.for_all (fun r -> r.mode = Shared) holders
  | Exclusive -> holders = []

let insert_by_ts req queue =
  let rec go = function
    | [] -> [ req ]
    | r :: rest when r.ts <= req.ts -> r :: go rest
    | rest -> req :: rest
  in
  go queue

(* Wait-die: the requester may wait only if it is older (strictly smaller
   timestamp) than every conflicting holder; equal or younger dies.  Equal
   timestamps die to break symmetry deterministically. *)
let wait_die requester holders =
  if List.for_all (fun h -> requester.ts < h.ts) holders then Queued else Die

let acquire_locked t ~txn ~ts ~key mode =
  let s = state t key in
  let mine, others = List.partition (fun r -> String.equal r.txn txn) s.holders in
  match (mine, mode) with
  | [ held ], Shared ->
    ignore held;
    Granted
  | [ held ], Exclusive ->
    if held.mode = Exclusive then Granted
    else if others = [] then begin
      (* Upgrade: sole Shared holder becomes Exclusive. *)
      s.holders <- [ { held with mode = Exclusive } ];
      Granted
    end
    else begin
      let req = { txn; ts; mode } in
      match wait_die req others with
      | Queued ->
        s.queue <- insert_by_ts req s.queue;
        Queued
      | other -> other
    end
  | [], _ ->
    let req = { txn; ts; mode } in
    if compatible mode s.holders && s.queue = [] then begin
      s.holders <- req :: s.holders;
      enter t txn s;
      Granted
    end
    else if compatible mode s.holders
            && List.for_all (fun q -> q.ts > ts) s.queue
    then begin
      (* No conflicting holder and strictly older than every waiter: jump
         the queue rather than deadlock behind a younger upgrade. *)
      s.holders <- req :: s.holders;
      enter t txn s;
      Granted
    end
    else begin
      let conflicting =
        List.filter (fun h -> not (compatible mode [ h ])) s.holders
      in
      let blockers = if conflicting = [] then s.queue else conflicting in
      match wait_die req blockers with
      | Queued ->
        s.queue <- insert_by_ts req s.queue;
        enter t txn s;
        Queued
      | other -> other
    end
  | _ :: _ :: _, _ -> assert false (* one request per txn per key *)

let acquire t ~txn ~ts ~key mode =
  let outcome = acquire_locked t ~txn ~ts ~key mode in
  (match t.observer with
  | None -> ()
  | Some obs -> obs.on_acquire ~txn ~key ~mode ~outcome);
  outcome

type release = {
  granted : (string * string * mode) list;
  killed : (string * string) list;
}

(* Promote queued requests that have become compatible, respecting queue
   order (no barging past an incompatible older waiter); then re-apply
   wait-die to the survivors — a waiter younger than a conflicting current
   holder would be a young-waits-for-old edge, which admits deadlock, so
   it dies now. *)
let promote key s granted killed =
  let rec go () =
    match s.queue with
    | [] -> ()
    | req :: rest ->
      (* Upgrade waiting in queue: holder already has Shared on this key. *)
      let own, others =
        List.partition (fun h -> String.equal h.txn req.txn) s.holders
      in
      let can_grant =
        match (own, req.mode) with
        | [ _ ], Exclusive -> others = []
        | [ _ ], Shared -> true
        | [], m -> compatible m s.holders
        | _ :: _ :: _, _ -> assert false
      in
      if can_grant then begin
        s.holders <- req :: List.filter (fun h -> not (String.equal h.txn req.txn)) s.holders;
        s.queue <- rest;
        granted := (req.txn, key, req.mode) :: !granted;
        go ()
      end
  in
  go ();
  let survives req =
    let conflicting =
      List.filter
        (fun h ->
          (not (String.equal h.txn req.txn)) && not (compatible req.mode [ h ]))
        s.holders
    in
    if List.for_all (fun h -> req.ts < h.ts) conflicting then true
    else begin
      killed := (req.txn, key) :: !killed;
      false
    end
  in
  s.queue <- List.filter survives s.queue

(* The order an iteration over [table] takes: bucket ascending, and
   within a bucket the newest insertion first (a resize keeps each
   bucket's order). *)
let table_order t a b =
  let bucket s = Hashtbl.hash s.key land (t.buckets - 1) in
  match Int.compare (bucket a) (bucket b) with
  | 0 -> Int.compare b.stamp a.stamp
  | c -> c

let release_all t ~txn =
  let granted = ref [] in
  let killed = ref [] in
  let mine r = String.equal r.txn txn in
  let others r = not (mine r) in
  let states =
    match footprint t txn with
    | ([] | [ _ ]) as states -> states
    | states -> List.sort (table_order t) states
  in
  Hashtbl.remove t.footprint txn;
  (* Key order matters: the promotions and kills go back in this order. *)
  List.iter
    (fun s ->
      if List.exists mine s.holders || List.exists mine s.queue then begin
        s.holders <- List.filter others s.holders;
        s.queue <- List.filter others s.queue;
        promote s.key s granted killed
      end)
    states;
  let result = { granted = List.rev !granted; killed = List.rev !killed } in
  (match t.observer with
  | None -> ()
  | Some obs ->
    List.iter
      (fun (txn, key, mode) -> obs.on_promoted ~txn ~key ~mode)
      result.granted;
    List.iter (fun (txn, key) -> obs.on_killed ~txn ~key) result.killed);
  result

let holders t ~key =
  match Hashtbl.find_opt t.table key with
  | None -> []
  | Some s -> List.map (fun r -> (r.txn, r.mode)) s.holders

let waiters t ~key =
  match Hashtbl.find_opt t.table key with
  | None -> []
  | Some s -> List.map (fun r -> r.txn) s.queue

let clear t =
  Hashtbl.reset t.table;
  Hashtbl.reset t.footprint;
  t.buckets <- initial_buckets

let held_by t ~txn =
  List.filter_map
    (fun s ->
      if List.exists (fun r -> String.equal r.txn txn) s.holders then Some s.key
      else None)
    (footprint t txn)
  |> List.sort String.compare
