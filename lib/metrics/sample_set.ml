type t = {
  mutable samples : float array;
  mutable len : int;
  mutable sorted : float array option; (* cache, invalidated on add *)
  mutable running_min : float;
  mutable running_max : float;
}

let create () =
  {
    samples = Array.make 64 0.;
    len = 0;
    sorted = None;
    running_min = infinity;
    running_max = neg_infinity;
  }

let add t x =
  if t.len = Array.length t.samples then begin
    let bigger = Array.make (2 * t.len) 0. in
    Array.blit t.samples 0 bigger 0 t.len;
    t.samples <- bigger
  end;
  t.samples.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- None;
  if x < t.running_min then t.running_min <- x;
  if x > t.running_max then t.running_max <- x

let count t = t.len

let mean t =
  if t.len = 0 then 0.
  else begin
    let sum = ref 0. in
    for i = 0 to t.len - 1 do
      sum := !sum +. t.samples.(i)
    done;
    !sum /. float_of_int t.len
  end

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.sub t.samples 0 t.len in
    Array.sort Float.compare a;
    t.sorted <- Some a;
    a

let percentile t p =
  if t.len = 0 then invalid_arg "Sample_set.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Sample_set.percentile: out of range";
  let a = sorted t in
  let rank = p /. 100. *. float_of_int (t.len - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then a.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median t = percentile t 50.
let min t = t.running_min
let max t = t.running_max
