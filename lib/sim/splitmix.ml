(* The 64-bit state lives unboxed in an 8-byte buffer, read and written
   in place, so a draw allocates no [Int64]. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set t 0 seed;
  t

(* Mixing function from Steele, Lea & Flood, "Fast splittable pseudorandom
   number generators" (OOPSLA 2014). *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let state = Int64.add (get t 0) golden_gamma in
  set t 0 state;
  mix64 state

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  (* Take 62 bits so the value fits a nonnegative native int; the modulo
     bias is at most bound / 2^62, negligible for simulator bounds. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let[@inline] float t =
  (* 53 high bits -> [0, 1) double. *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t ~lo ~hi =
  if lo >= hi then invalid_arg "Splitmix.uniform: lo must be < hi";
  lo +. (float t *. (hi -. lo))

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Splitmix.exponential: mean must be positive";
  let u = float t in
  (* Guard against log 0. *)
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u

let bool t ~p =
  let p = Float.max 0. (Float.min 1. p) in
  float t < p

let split t = create (mix64 (next_int64 t))

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Splitmix.choice: empty array";
  arr.(int t (Array.length arr))
