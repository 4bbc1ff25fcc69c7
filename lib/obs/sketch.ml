(* Octave o covers [2^(lo_exp + o), 2^(lo_exp + o + 1)): sub-microsecond
   through multi-hour latencies in milliseconds. *)
let lo_exp = -16
let hi_exp = 47
let n_octaves = hi_exp - lo_exp + 1

(* An all-float record keeps its fields unboxed, so updating them
   allocates nothing. *)
type totals = { mutable sum : float; mutable min : float; mutable max : float }

type t = {
  sub_bits : int;
  sub : int;  (* 2^sub_bits sub-buckets per octave *)
  octaves : int array option array;  (* lazily allocated rows *)
  mutable zero : int;  (* non-positive / NaN observations *)
  mutable count : int;
  totals : totals;
}

let create ?(sub_bits = 5) () =
  if sub_bits < 0 || sub_bits > 12 then
    invalid_arg "Sketch.create: sub_bits outside [0, 12]";
  {
    sub_bits;
    sub = 1 lsl sub_bits;
    octaves = Array.make n_octaves None;
    zero = 0;
    count = 0;
    totals = { sum = 0.; min = Float.infinity; max = Float.neg_infinity };
  }

let sub_bits t = t.sub_bits
let error_bound t = 1. /. float_of_int (2 * t.sub)
let count t = t.count
let sum t = t.totals.sum
let mean t = if t.count = 0 then 0. else t.totals.sum /. float_of_int t.count
let min t = t.totals.min
let max t = t.totals.max

let row t o =
  match t.octaves.(o) with
  | Some r -> r
  | None ->
    let r = Array.make t.sub 0 in
    t.octaves.(o) <- Some r;
    r

let bump r s = r.(s) <- r.(s) + 1

(* A positive finite v = 1.m * 2^k lies in octave k at sub-bucket
   floor(0.m * sub): the unbiased exponent and the top [sub_bits]
   mantissa bits of its IEEE bits, read without boxing a float.
   Subnormals (and anything below 2^lo_exp) clamp to the lowest bin,
   +infinity (and anything from 2^(hi_exp + 1)) to the highest. *)
let observe t v =
  t.count <- t.count + 1;
  let m = t.totals in
  m.sum <- m.sum +. v;
  if v < m.min then m.min <- v;
  if v > m.max then m.max <- v;
  if v <= 0. || Float.is_nan v then t.zero <- t.zero + 1
  else begin
    let bits = Int64.to_int (Int64.bits_of_float v) in
    let k = (bits lsr 52) - 1023 in
    if k < lo_exp then bump (row t 0) 0
    else if k > hi_exp then bump (row t (n_octaves - 1)) (t.sub - 1)
    else
      bump (row t (k - lo_exp))
        ((bits land 0xF_FFFF_FFFF_FFFF) lsr (52 - t.sub_bits))
  end

(* Midpoint of sub-bucket (o, s): the bucket spans
   [2^(lo_exp+o) * (1 + s/sub), 2^(lo_exp+o) * (1 + (s+1)/sub)). *)
let representative t o s =
  Float.ldexp (1. +. ((float_of_int s +. 0.5) /. float_of_int t.sub)) (lo_exp + o)

let upper_bound t o s =
  Float.ldexp (1. +. (float_of_int (s + 1) /. float_of_int t.sub)) (lo_exp + o)

(* Bin midpoint holding the 0-based order statistic [i]. *)
let value_at_rank t i =
  if i < t.zero then 0.
  else begin
    let cum = ref t.zero and hit = ref Float.nan in
    (try
       for o = 0 to n_octaves - 1 do
         match t.octaves.(o) with
         | None -> ()
         | Some r ->
           for s = 0 to t.sub - 1 do
             if r.(s) > 0 then begin
               cum := !cum + r.(s);
               if !cum > i then begin
                 hit := representative t o s;
                 raise Exit
               end
             end
           done
       done
     with Exit -> ());
    if Float.is_nan !hit then t.totals.max (* i beyond the bins: clamp *)
    else !hit
  end

let percentile t p =
  if t.count = 0 then invalid_arg "Sketch.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Sketch.percentile: p outside [0, 100]";
  let r = p /. 100. *. float_of_int (t.count - 1) in
  let lo = int_of_float (Float.floor r) in
  let hi = int_of_float (Float.ceil r) in
  let vlo = value_at_rank t lo in
  if hi = lo then vlo
  else begin
    let vhi = value_at_rank t hi in
    vlo +. ((r -. float_of_int lo) *. (vhi -. vlo))
  end

let merge_into dst src =
  if dst.sub_bits <> src.sub_bits then
    invalid_arg "Sketch.merge_into: sub_bits differ";
  dst.zero <- dst.zero + src.zero;
  dst.count <- dst.count + src.count;
  let d = dst.totals and s = src.totals in
  d.sum <- d.sum +. s.sum;
  if s.min < d.min then d.min <- s.min;
  if s.max > d.max then d.max <- s.max;
  Array.iteri
    (fun o src_row ->
      match src_row with
      | None -> ()
      | Some sr ->
        let dr = row dst o in
        for s = 0 to dst.sub - 1 do
          dr.(s) <- dr.(s) + sr.(s)
        done)
    src.octaves

let bins t =
  let out = ref [] in
  for o = n_octaves - 1 downto 0 do
    match t.octaves.(o) with
    | None -> ()
    | Some r ->
      for s = t.sub - 1 downto 0 do
        if r.(s) > 0 then out := (upper_bound t o s, r.(s)) :: !out
      done
  done;
  if t.zero > 0 then (0., t.zero) :: !out else !out

let memory_words t =
  let rows =
    Array.fold_left
      (fun acc row -> match row with None -> acc | Some _ -> acc + t.sub + 2)
      0 t.octaves
  in
  n_octaves + rows + 8
