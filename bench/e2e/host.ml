(* Host-side clocks and GC counters: what a run costs the machine, as
   opposed to the simulated milliseconds the program reports. *)

(* Process CPU seconds (user + system): the benchmark's host time.  On a
   shared machine it is steadier than wall time, which also counts time
   the process spent waiting for a core. *)
let cpu_s () = Sys.time ()

(* Monotonic wall clock, for spans and run deadlines. *)
let now_ns () = Monotonic_clock.now ()
let wall_ms () = Int64.to_float (now_ns ()) /. 1e6

type gc = {
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
}

let gc () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections;
  }

let gc_since (a : gc) =
  let b = gc () in
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    minor_gcs = b.minor_gcs - a.minor_gcs;
    major_gcs = b.major_gcs - a.major_gcs;
  }

(* Words reachable after a full major collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* [timed f] runs [f] and returns its result with the CPU seconds it
   took. *)
let timed f =
  let t0 = cpu_s () in
  let r = f () in
  (r, cpu_s () -. t0)

(* Every measured call starts from a collected heap, so its cost does
   not depend on the garbage the previous call left behind (without
   this, repeated rounds also ratchet the heap far past what one call
   needs). *)
let settle () = Gc.full_major ()
