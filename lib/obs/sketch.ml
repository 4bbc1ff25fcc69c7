(* Octave o covers [2^(lo_exp + o), 2^(lo_exp + o + 1)): sub-microsecond
   through multi-hour latencies in milliseconds. *)
let lo_exp = -16
let hi_exp = 47
let n_octaves = hi_exp - lo_exp + 1

type t = {
  sub_bits : int;
  sub : int;  (* 2^sub_bits sub-buckets per octave *)
  octaves : int array option array;  (* lazily allocated rows *)
  mutable zero : int;  (* non-positive / NaN observations *)
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
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
    sum = 0.;
    min = Float.infinity;
    max = Float.neg_infinity;
  }

let sub_bits t = t.sub_bits
let error_bound t = 1. /. float_of_int (2 * t.sub)
let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count
let min t = t.min
let max t = t.max

(* The octave exponent k with 2^k <= v < 2^(k+1): frexp gives
   v = m * 2^e, m in [0.5, 1), so k = e - 1 (exact powers of two have
   m = 0.5 and stay in their own octave's first sub-bucket). *)
let locate t v =
  let _, e = Float.frexp v in
  let k = e - 1 in
  if k < lo_exp then (0, 0)
  else if k > hi_exp then (n_octaves - 1, t.sub - 1)
  else begin
    let frac = Float.ldexp v (-k) -. 1. in
    (* frac in [0, 1) *)
    let s = Stdlib.min (t.sub - 1) (int_of_float (frac *. float_of_int t.sub)) in
    (k - lo_exp, s)
  end

let row t o =
  match t.octaves.(o) with
  | Some r -> r
  | None ->
    let r = Array.make t.sub 0 in
    t.octaves.(o) <- Some r;
    r

let observe t v =
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.min then t.min <- v;
  if v > t.max then t.max <- v;
  if v <= 0. || Float.is_nan v then t.zero <- t.zero + 1
  else begin
    let o, s = locate t v in
    let r = row t o in
    r.(s) <- r.(s) + 1
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
    if Float.is_nan !hit then t.max (* i beyond the bins: clamp *)
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
  dst.sum <- dst.sum +. src.sum;
  if src.min < dst.min then dst.min <- src.min;
  if src.max > dst.max then dst.max <- src.max;
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
