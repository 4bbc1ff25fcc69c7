(* A struct of arrays: entry [i] is [(times.(i), seqs.(i), values.(i))].
   The times sit unboxed in a float array, so once the arrays have grown
   a push allocates nothing.  Sifting moves a hole rather than swapping,
   with the same comparisons as swapping makes, so entries land where a
   swapping heap would put them. *)
type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable len : int;
}

(* What every value slot at or past [len] holds, so no popped value (the
   simulator's event closure) stays reachable from the array.  Those
   slots are never read, so its value, typed as any ['a], is never
   seen. *)
let vacant () : 'a = Obj.magic ()

let create () =
  { times = Float.Array.create 0; seqs = [||]; values = [||]; len = 0 }

let is_empty h = h.len = 0
let size h = h.len

let grow h =
  let capacity = max 16 (2 * h.len) in
  let times = Float.Array.create capacity in
  Float.Array.blit h.times 0 times 0 h.len;
  let seqs = Array.make capacity 0 in
  Array.blit h.seqs 0 seqs 0 h.len;
  let values = Array.make capacity (vacant ()) in
  Array.blit h.values 0 values 0 h.len;
  h.times <- times;
  h.seqs <- seqs;
  h.values <- values

(* Entry order: by time, then by seq. *)
let[@inline] precedes (t1 : float) (s1 : int) t2 s2 =
  t1 < t2 || (t1 = t2 && s1 < s2)
let[@inline] time_at h i = Float.Array.unsafe_get h.times i
let[@inline] seq_at h i = Array.unsafe_get h.seqs i

let[@inline] put h i ~time ~seq value =
  Float.Array.unsafe_set h.times i time;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.values i value

let[@inline] move h ~src ~dst =
  put h dst ~time:(time_at h src) ~seq:(seq_at h src)
    (Array.unsafe_get h.values src)

let push h ~time ~seq value =
  if h.len = Array.length h.seqs then grow h;
  (* Sift the hole up from the new last slot. *)
  let i = ref h.len in
  h.len <- h.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if precedes time seq (time_at h parent) (seq_at h parent) then begin
      move h ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  put h !i ~time ~seq value

(* Removes the root: the last entry fills the hole that sifts down from
   it, past the earlier child while that child precedes it. *)
let remove_min h =
  let last = h.len - 1 in
  h.len <- last;
  if last > 0 then begin
    let time = time_at h last
    and seq = seq_at h last
    and value = Array.unsafe_get h.values last in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let child =
        if
          l + 1 < last
          && precedes (time_at h (l + 1)) (seq_at h (l + 1)) (time_at h l)
               (seq_at h l)
        then l + 1
        else l
      in
      if child < last && precedes (time_at h child) (seq_at h child) time seq
      then begin
        move h ~src:child ~dst:!i;
        i := child
      end
      else continue := false
    done;
    put h !i ~time ~seq value
  end;
  Array.unsafe_set h.values last (vacant ())

let min_time h =
  if h.len = 0 then invalid_arg "Event_heap.min_time: empty heap";
  time_at h 0

let take h =
  if h.len = 0 then invalid_arg "Event_heap.take: empty heap";
  let value = Array.unsafe_get h.values 0 in
  remove_min h;
  value

let pop h =
  if h.len = 0 then None
  else begin
    let time = time_at h 0 and seq = seq_at h 0 in
    Some (time, seq, take h)
  end

let peek_time h = if h.len = 0 then None else Some (time_at h 0)
