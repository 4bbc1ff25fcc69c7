module Pair_set = Set.Make (struct
  type t = string * string

  let compare = compare
end)

type t = {
  latency : Latency.t;
  rng : Splitmix.t;
  mutable drop : float;
  mutable duplicate : float;
  mutable reorder_jitter : Latency.t option;
  mutable partitions : Pair_set.t;
  links : (string * string, Latency.t) Hashtbl.t;
  (* Gray-failure knobs.  All default to "absent"/0 and, critically,
     draw no RNG when unset — pre-existing seeded runs consume the RNG
     stream identically. *)
  link_drop : (string * string, float) Hashtbl.t;
      (* directional (src, dst) loss probability on top of [drop] *)
  mutable burst_extra : float;  (* global extra delay per delivery *)
  slowdowns : (string, float) Hashtbl.t;
      (* per-node extra delay, applied when the node sends or receives *)
  (* The message [first_copy] delivered last, while [next_copy] may still
     duplicate it: its latency model and deterministic extra delay. *)
  mutable copying : bool;
  mutable copy_model : Latency.t;
  mutable copy_extra : float;
}

let create ~latency ~rng =
  {
    latency;
    rng;
    drop = 0.;
    duplicate = 0.;
    reorder_jitter = None;
    partitions = Pair_set.empty;
    links = Hashtbl.create 8;
    link_drop = Hashtbl.create 8;
    burst_extra = 0.;
    slowdowns = Hashtbl.create 8;
    copying = false;
    copy_model = latency;
    copy_extra = 0.;
  }

let set_drop t p = t.drop <- p
let set_duplicate t p = t.duplicate <- p
let set_reorder_jitter t model = t.reorder_jitter <- model

let canonical a b = if String.compare a b <= 0 then (a, b) else (b, a)

let set_link t a b model = Hashtbl.replace t.links (canonical a b) model
let clear_link t a b = Hashtbl.remove t.links (canonical a b)

let set_link_drop t ~src ~dst p =
  if p <= 0. then Hashtbl.remove t.link_drop (src, dst)
  else Hashtbl.replace t.link_drop (src, dst) p

let clear_link_drop t ~src ~dst = Hashtbl.remove t.link_drop (src, dst)
let set_burst_extra t d = t.burst_extra <- Float.max 0. d

let set_slowdown t node d =
  if d <= 0. then Hashtbl.remove t.slowdowns node
  else Hashtbl.replace t.slowdowns node d

let clear_slowdown t node = Hashtbl.remove t.slowdowns node

let partition t a b = t.partitions <- Pair_set.add (canonical a b) t.partitions
let heal t a b = t.partitions <- Pair_set.remove (canonical a b) t.partitions
let heal_all t = t.partitions <- Pair_set.empty
let partitioned t a b = Pair_set.mem (canonical a b) t.partitions

(* Each fault below is looked up only while it is set, so a quiet network
   reads no table and builds no key: a send pays for the faults in force,
   and draws exactly what it drew before they existed. *)

let lost = -1.

(* Directional lossy-link coin: drawn only when an entry exists, so runs
   without the fault consume no extra RNG. *)
let link_lost t ~src ~dst =
  Hashtbl.length t.link_drop > 0
  &&
  match Hashtbl.find_opt t.link_drop (src, dst) with
  | Some p -> Splitmix.bool t.rng ~p
  | None -> false

let model t ~src ~dst =
  if Hashtbl.length t.links = 0 then t.latency
  else
    match Hashtbl.find_opt t.links (canonical src dst) with
    | Some link -> link
    | None -> t.latency

let[@inline] slowdown t node =
  if Hashtbl.length t.slowdowns = 0 then 0.
  else match Hashtbl.find_opt t.slowdowns node with Some d -> d | None -> 0.

(* With the reorder jitter off this draws exactly one latency sample.  The
   deterministic extra is added last, as one sum. *)
let[@inline] sample t model ~extra =
  let d = Latency.sample model t.rng in
  (match t.reorder_jitter with
  | None -> d
  | Some j -> d +. Latency.sample j t.rng)
  +. extra

let first_copy t ~src ~dst =
  t.copying <- false;
  if String.equal src dst then 0.
  else if (not (Pair_set.is_empty t.partitions)) && partitioned t src dst then
    lost
  else if link_lost t ~src ~dst then lost
  else if t.drop > 0. && Splitmix.bool t.rng ~p:t.drop then lost
  else begin
    let model = model t ~src ~dst in
    (* Deterministic additive slow-path delay: a global latency burst plus
       per-node slowdowns on either endpoint.  No RNG. *)
    let extra = t.burst_extra +. slowdown t src +. slowdown t dst in
    if t.duplicate > 0. then begin
      t.copying <- true;
      t.copy_model <- model;
      t.copy_extra <- extra
    end;
    sample t model ~extra
  end

let next_copy t =
  if t.copying && t.duplicate > 0. && Splitmix.bool t.rng ~p:t.duplicate then
    sample t t.copy_model ~extra:t.copy_extra
  else begin
    t.copying <- false;
    lost
  end
