(* Order statistics over float samples.  Medians and percentiles come
   from [Cloudtx_metrics.Sample_set]; only the quartiles are computed
   here, the way the comparison rule defines them. *)

module Sample_set = Cloudtx_metrics.Sample_set

let sample_set xs =
  let s = Sample_set.create () in
  List.iter (Sample_set.add s) xs;
  s

let median xs = Sample_set.median (sample_set xs)

(* First and third quartiles exactly as Python's
   [statistics.quantiles(xs, n=4)] computes them (its default
   "exclusive" method, extrapolating at the ends of small samples). *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 3)
