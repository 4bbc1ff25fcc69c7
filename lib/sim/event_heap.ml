type 'a entry = { time : float; seq : int; value : 'a }

type 'a t = { mutable data : 'a entry array; mutable len : int }

let create () = { data = [||]; len = 0 }
let is_empty h = h.len = 0
let size h = h.len

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* What every slot at or past [len] holds, so no popped entry (and the
   closure it carries) stays reachable from the array.  Those slots are
   never read, so its value, typed as any ['a], is never seen. *)
let vacant = { time = 0.; seq = 0; value = () }
let vacant () : 'a entry = Obj.magic vacant

let grow h =
  let capacity = Array.length h.data in
  if h.len = capacity then begin
    let bigger = Array.make (max 16 (2 * capacity)) (vacant ()) in
    Array.blit h.data 0 bigger 0 h.len;
    h.data <- bigger
  end

let push h ~time ~seq value =
  grow h;
  h.data.(h.len) <- { time; seq; value };
  h.len <- h.len + 1;
  (* Sift up. *)
  let i = ref (h.len - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    before h.data.(!i) h.data.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = h.data.(parent) in
    h.data.(parent) <- h.data.(!i);
    h.data.(!i) <- tmp;
    i := parent
  done

let pop h =
  if h.len = 0 then None
  else begin
    let top = h.data.(0) in
    h.len <- h.len - 1;
    h.data.(0) <- h.data.(h.len);
    h.data.(h.len) <- vacant ();
    if h.len > 0 then begin
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && before h.data.(l) h.data.(!smallest) then smallest := l;
        if r < h.len && before h.data.(r) h.data.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.data.(!smallest) in
          h.data.(!smallest) <- h.data.(!i);
          h.data.(!i) <- tmp;
          i := !smallest
        end
      done
    end;
    Some (top.time, top.seq, top.value)
  end

let peek_time h = if h.len = 0 then None else Some h.data.(0).time
