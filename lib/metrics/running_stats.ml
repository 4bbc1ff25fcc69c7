type t = { mutable count : int; mutable mean : float }

let create () = { count = 0; mean = 0. }

let add t x =
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count)

let mean t = t.mean
