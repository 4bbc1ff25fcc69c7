let format_version = 4

type format = Jsonl | Binary

let format_name = function Jsonl -> "jsonl" | Binary -> "bin"

let format_of_string = function
  | "jsonl" | "json" -> Some Jsonl
  | "bin" | "binary" -> Some Binary
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Binary framing                                                      *)
(* ------------------------------------------------------------------ *)

let binary_magic = "CTXJ"

let binary_header ~version =
  binary_magic ^ String.make 1 (Char.chr (version land 0xff))

let is_binary s =
  String.length s >= String.length binary_magic
  && String.sub s 0 (String.length binary_magic) = binary_magic

(* Word-wise FNV-1a, 32-bit, over [len] bytes of [b] from [pos] — the
   frame checksum, computed by the writer over its frame and by the
   reader over the file's bytes.

   Standard byte-at-a-time FNV-1a is latency-bound: one 3-cycle multiply
   per byte, serially dependent.  This variant runs the same xor/multiply
   recurrence over 4-byte little-endian words (the 0-3 trailing bytes
   are folded byte-wise, so no padding ambiguity), which is ~3x faster
   and still provably detects any corruption: a flipped bit at position
   j <= 31 of a word flips bit j of the following product (the prime is
   odd, and lower bits are unchanged, so there is no carry into j), and
   that difference persists through every later step into the low 32
   bits kept at the end.  The state is an [int32] ref, which the
   compiler keeps unboxed: [Int32.mul] is the recurrence mod 2^32, so
   no mask, tag or untag sits on the multiply chain, and the unaligned
   32-bit load feeds it as it is. *)
external unsafe_get_32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

let fnv1a_32 b pos len =
  let h = ref 0x811c9dc5l in
  let i = ref pos in
  let last_word = pos + len - 4 in
  while !i <= last_word do
    h := Int32.mul (Int32.logxor !h (unsafe_get_32 b !i)) 0x01000193l;
    i := !i + 4
  done;
  let limit = pos + len in
  while !i < limit do
    h :=
      Int32.mul
        (Int32.logxor !h (Int32.of_int (Char.code (Bytes.unsafe_get b !i))))
        0x01000193l;
    incr i
  done;
  Int32.to_int !h land 0xffffffff

let dir_create = 0
let dir_input = 1
let dir_action = 2
let dir_other = 255

let dir_code = function
  | "create" -> dir_create
  | "input" -> dir_input
  | "action" -> dir_action
  | _ -> dir_other

let dir_name = function
  | 0 -> Some "create"
  | 1 -> Some "input"
  | 2 -> Some "action"
  | _ -> None

(* ------------------------------------------------------------------ *)
(* JSONL envelope                                                      *)
(* ------------------------------------------------------------------ *)

let render_header ~version =
  Printf.sprintf "{\"journal\":\"cloudtx\",\"version\":%d}" version

let header = render_header ~version:format_version

let add_jsonl_prefix buf ~seq ~time_ms ~node ~dir =
  Buffer.add_string buf "{\"seq\":";
  Buffer.add_string buf (string_of_int seq);
  Buffer.add_string buf ",\"time_ms\":";
  Buffer.add_string buf (Json.number time_ms);
  Buffer.add_string buf ",\"node\":";
  Json.escape buf node;
  Buffer.add_string buf ",\"dir\":";
  Json.escape buf dir;
  Buffer.add_string buf ",\"payload\":"

let render_jsonl ~seq ~time_ms ~node ~dir ~payload =
  let buf = Buffer.create (64 + String.length payload) in
  add_jsonl_prefix buf ~seq ~time_ms ~node ~dir;
  Buffer.add_string buf payload;
  Buffer.add_char buf '}';
  Buffer.contents buf

let add_frame_body w ~seq ~time_ms ~node ~dir =
  Wbuf.varint w seq;
  Wbuf.f64_le w time_ms;
  Wbuf.varint w (String.length node);
  Wbuf.str w node;
  let code = dir_code dir in
  Wbuf.u8 w code;
  if code = dir_other then begin
    Wbuf.varint w (String.length dir);
    Wbuf.str w dir
  end

(* A frame is built in [w] at its current position: [frame_open]
   writes a length placeholder and the envelope and returns where the
   frame starts; once the payload is written, [frame_close] patches the
   length and appends the checksum. *)
let frame_open w ~seq ~time_ms ~node ~dir =
  let start = Wbuf.length w in
  Wbuf.u32_le w 0;
  add_frame_body w ~seq ~time_ms ~node ~dir;
  start

let frame_close w start =
  let len = Wbuf.length w - start - 4 in
  Wbuf.patch_u32_le w start len;
  Wbuf.u32_le w (fnv1a_32 (Wbuf.unsafe_bytes w) (start + 4) len)

let encode_frame_into w ~seq ~time_ms ~node ~dir ~emit =
  let start = frame_open w ~seq ~time_ms ~node ~dir in
  emit w;
  frame_close w start

(* ------------------------------------------------------------------ *)
(* In-memory buffer                                                    *)
(* ------------------------------------------------------------------ *)

(* Encoded entries — JSONL lines with their newline, or binary frames —
   are packed oldest first into fixed-size byte chunks, so a buffered
   entry costs its bytes and no heap block of its own.  [head] is where
   a chunk's oldest unevicted entry starts and [fill] where the next one
   goes.  An entry never straddles two chunks; one larger than
   [chunk_size] gets a chunk of its own. *)
let chunk_size = 65536

type chunk = { bytes : Bytes.t; mutable head : int; mutable fill : int }

let no_chunk = { bytes = Bytes.empty; head = 0; fill = 0 }

type tap = ..

type t = {
  live : bool;
  format : format;
  clock : unit -> float;
  chunks : chunk Queue.t;  (** Oldest first; the last is [tail]. *)
  mutable tail : chunk;  (** Takes new entries; [no_chunk] when empty. *)
  mutable spare : Bytes.t;
      (** A fully evicted chunk kept for the next one, or [Bytes.empty]:
          a capped journal then reuses its chunks instead of churning
          the major heap, which keeps its peak heap down. *)
  mutable buffered_bytes : int;
  max_buffer_bytes : int;
  mutable dropped : int;
  mutable seq : int;
  mutable oc : out_channel option;
  mutable observers :
    (seq:int -> time_ms:float -> node:string -> dir:string -> payload:string ->
    pos:int -> len:int -> unit)
    list;
      (** Registration order; fan-out per record.  Empty = zero cost. *)
  queued : (unit -> unit) Queue.t;
      (** Deliveries of records written from inside an observer. *)
  mutable delivering : bool;  (** An observer is running. *)
  mutable taps : tap list;
  mutable on_drop : (int -> unit) option;
  scratch : Buffer.t;  (** JSONL line under construction. *)
  wbody : Wbuf.t;  (** Binary frame under construction. *)
}

let noop =
  {
    live = false;
    format = Jsonl;
    clock = (fun () -> 0.);
    chunks = Queue.create ();
    tail = no_chunk;
    spare = Bytes.empty;
    buffered_bytes = 0;
    max_buffer_bytes = max_int;
    dropped = 0;
    seq = 0;
    oc = None;
    observers = [];
    queued = Queue.create ();
    delivering = false;
    taps = [];
    on_drop = None;
    scratch = Buffer.create 0;
    wbody = Wbuf.create 16;
  }

let create ~clock ?(format = Jsonl) ?(max_buffer_bytes = max_int) ?path () =
  let t =
    {
      live = true;
      format;
      clock;
      chunks = Queue.create ();
      tail = no_chunk;
      spare = Bytes.empty;
      buffered_bytes = 0;
      max_buffer_bytes = max 0 max_buffer_bytes;
      dropped = 0;
      seq = 0;
      oc = None;
      observers = [];
      queued = Queue.create ();
      delivering = false;
      taps = [];
      on_drop = None;
      scratch = Buffer.create 256;
      wbody = Wbuf.create 256;
    }
  in
  (match path with
  | None -> ()
  | Some path ->
    let oc = open_out_bin path in
    (match format with
    | Jsonl ->
      output_string oc header;
      output_char oc '\n'
    | Binary -> output_string oc (binary_header ~version:format_version));
    t.oc <- Some oc);
  t

let enabled t = t.live
let format t = t.format
let add_observer t f = if t.live then t.observers <- t.observers @ [ f ]
let taps t = t.taps
let add_tap t x = if t.live then t.taps <- x :: t.taps
let set_on_drop t f = if t.live then t.on_drop <- Some f

(* The oldest entry's length, read from the entry itself: a frame's
   length prefix, or a line's newline. *)
let head_length t c =
  match t.format with
  | Binary ->
    8 + (Int32.to_int (Bytes.get_int32_le c.bytes c.head) land 0xffffffff)
  | Jsonl -> Bytes.index_from c.bytes c.head '\n' + 1 - c.head

let evict_oldest t =
  let c = Queue.peek t.chunks in
  let n = head_length t c in
  c.head <- c.head + n;
  t.buffered_bytes <- t.buffered_bytes - n;
  if c.head = c.fill then begin
    ignore (Queue.pop t.chunks : chunk);
    if c == t.tail then t.tail <- no_chunk;
    if Bytes.length c.bytes = chunk_size then t.spare <- c.bytes
  end

let note_dropped t n =
  if n > 0 then begin
    t.dropped <- t.dropped + n;
    match t.on_drop with None -> () | Some f -> f n
  end

(* Charge an [n]-byte entry against the cap, evicting oldest first until
   it fits; [false] when the entry alone exceeds the cap, so it goes the
   way of everything buffered before it.  Every entry is at least one
   byte long, so a buffer holding none holds no bytes. *)
let admit t n =
  let evicted = ref 0 in
  while t.buffered_bytes > 0 && t.buffered_bytes + n > t.max_buffer_bytes do
    evict_oldest t;
    incr evicted
  done;
  let fits = n <= t.max_buffer_bytes in
  if fits then t.buffered_bytes <- t.buffered_bytes + n else incr evicted;
  note_dropped t !evicted;
  fits

(* The chunk that takes the next [n]-byte entry, at its [fill]. *)
let room t n =
  let c = t.tail in
  if Bytes.length c.bytes - c.fill >= n then c
  else begin
    let bytes =
      if n > chunk_size then Bytes.create n
      else if Bytes.length t.spare = chunk_size then begin
        let b = t.spare in
        t.spare <- Bytes.empty;
        b
      end
      else Bytes.create chunk_size
    in
    let c = { bytes; head = 0; fill = 0 } in
    Queue.push c t.chunks;
    t.tail <- c;
    c
  end

let rec call_each ~seq ~time_ms ~node ~dir ~payload ~pos ~len = function
  | [] -> ()
  | f :: fs ->
    f ~seq ~time_ms ~node ~dir ~payload ~pos ~len;
    call_each ~seq ~time_ms ~node ~dir ~payload ~pos ~len fs

(* Observers read the payload in place, [len] bytes of [payload] from
   [pos].  A record written from inside an observer waits in [queued],
   with a copy of its bytes, until the record being delivered has
   reached every observer, so each observer sees the records in seq
   order.  If an observer raises, the records still waiting are dropped,
   and the next record starts afresh. *)
let notify t ~time_ms ~node ~dir payload ~pos ~len =
  let seq = t.seq in
  if t.delivering then begin
    let payload = String.sub payload pos len in
    Queue.push
      (fun () ->
        call_each ~seq ~time_ms ~node ~dir ~payload ~pos:0 ~len t.observers)
      t.queued
  end
  else begin
    t.delivering <- true;
    match
      call_each ~seq ~time_ms ~node ~dir ~payload ~pos ~len t.observers;
      while not (Queue.is_empty t.queued) do
        Queue.pop t.queued ()
      done
    with
    | () -> t.delivering <- false
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Queue.clear t.queued;
      t.delivering <- false;
      Printexc.raise_with_backtrace e bt
  end

(* Binary record: the whole frame is built in the reused writer
   (checksum straight over its backing bytes), then blitted into the
   buffer and written through from there.  Taking the emitter and its
   value apart keeps a closure per record off the hot path. *)
let record_frame t ~node ~dir ~emit v =
  if t.live then begin
    (match t.format with
    | Binary -> ()
    | Jsonl -> invalid_arg "Journal.record_frame: JSONL journal");
    t.seq <- t.seq + 1;
    let time_ms = t.clock () in
    (* A record written while one is delivered gets a writer of its own:
       the observers are reading the other one's payload in [wbody]. *)
    let w = if t.delivering then Wbuf.create 256 else t.wbody in
    Wbuf.clear w;
    let start = frame_open w ~seq:t.seq ~time_ms ~node ~dir in
    let p0 = Wbuf.length w in
    emit w v;
    let p1 = Wbuf.length w in
    frame_close w start;
    let n = Wbuf.length w in
    if admit t n then begin
      let c = room t n in
      Bytes.blit (Wbuf.unsafe_bytes w) 0 c.bytes c.fill n;
      c.fill <- c.fill + n
    end;
    (match t.oc with
    | None -> ()
    | Some oc -> output oc (Wbuf.unsafe_bytes w) 0 n);
    match t.observers with
    | [] -> ()
    | _ ->
      notify t ~time_ms ~node ~dir
        (Bytes.unsafe_to_string (Wbuf.unsafe_bytes w))
        ~pos:p0 ~len:(p1 - p0)
  end

(* A JSONL line is built in the reused scratch buffer; observers get
   the caller's payload itself.  On a binary journal the text is the
   frame's raw payload. *)
let record t ~node ~dir ~payload =
  if t.live then
    match t.format with
    | Binary -> record_frame t ~node ~dir ~emit:Wbuf.str payload
    | Jsonl ->
      t.seq <- t.seq + 1;
      let time_ms = t.clock () in
      let buf = t.scratch in
      Buffer.clear buf;
      add_jsonl_prefix buf ~seq:t.seq ~time_ms ~node ~dir;
      Buffer.add_string buf payload;
      Buffer.add_string buf "}\n";
      let n = Buffer.length buf in
      if admit t n then begin
        let c = room t n in
        Buffer.blit buf 0 c.bytes c.fill n;
        c.fill <- c.fill + n
      end;
      (match t.oc with None -> () | Some oc -> Buffer.output_buffer oc buf);
      (match t.observers with
      | [] -> ()
      | _ ->
        notify t ~time_ms ~node ~dir payload ~pos:0
          ~len:(String.length payload))

let length t = t.seq
let dropped t = t.dropped

let to_string t =
  let hdr =
    match t.format with
    | Jsonl -> header ^ "\n"
    | Binary -> binary_header ~version:format_version
  in
  let out = Bytes.create (String.length hdr + t.buffered_bytes) in
  Bytes.blit_string hdr 0 out 0 (String.length hdr);
  let pos = ref (String.length hdr) in
  Queue.iter
    (fun c ->
      Bytes.blit c.bytes c.head out !pos (c.fill - c.head);
      pos := !pos + c.fill - c.head)
    t.chunks;
  Bytes.unsafe_to_string out

let close t =
  match t.oc with
  | None -> ()
  | Some oc ->
    t.oc <- None;
    close_out oc

(* ------------------------------------------------------------------ *)
(* Binary reader                                                       *)
(* ------------------------------------------------------------------ *)

type frame = {
  seq : int;
  time_ms : float;
  node : string;
  dir : string;
  payload : string;  (** Raw payload bytes (not JSON). *)
}

type decoded = {
  version : int;
  frames : frame list;
  torn_bytes : int;
      (** Trailing bytes of an incomplete final frame, discarded
          (longest-valid-prefix, as for a torn WAL tail). *)
}

exception Bad_frame of string

(* Where the one frame parser is in the file; one per fold, so reading a
   field returns just the field. *)
type cursor = { mutable at : int }

(* A varint whose value comes out negative reads on, so it is an error:
   past the frame's end or too wide. *)
let read_varint s c limit =
  let n = ref 0 and shift = ref 0 in
  let fin = ref (-1) in
  while !fin < 0 do
    if c.at >= limit then raise (Bad_frame "varint runs past frame end");
    if !shift > 56 then raise (Bad_frame "varint too wide");
    let b = Char.code (String.unsafe_get s c.at) in
    c.at <- c.at + 1;
    n := !n lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then fin := !n
  done;
  !fin

let read_u32_le s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let read_f64_le s c limit =
  if c.at + 8 > limit then raise (Bad_frame "f64 runs past frame end");
  let v = Int64.float_of_bits (Bytes.get_int64_le (Bytes.unsafe_of_string s) c.at) in
  c.at <- c.at + 8;
  v

(* [len] bytes of [s] from [c.at], checked against [limit]; [what] names
   the field in the error. *)
let take s c limit len what =
  if c.at + len > limit then raise (Bad_frame (what ^ " runs past frame end"));
  let v = String.sub s c.at len in
  c.at <- c.at + len;
  v

let rec same_bytes s pos t i =
  i >= String.length t
  || (String.unsafe_get s (pos + i) = String.unsafe_get t i
     && same_bytes s pos t (i + 1))

let fold_binary_in_place s ~init f =
  let magic_len = String.length binary_magic in
  if not (is_binary s) then Error "not a binary journal: bad magic"
  else if String.length s < magic_len + 1 then
    Error "binary journal truncated before version byte"
  else
    let version = Char.code s.[magic_len] in
    match init version with
    | Error m -> Error m
    | Ok acc -> (
      let acc = ref acc in
      let total = String.length s in
      let count = ref 0 in
      let last_seq = ref 0 in
      let torn = ref 0 in
      (* Most frames are for the node of the frame before. *)
      let last_node = ref "" in
      let c = { at = magic_len + 1 } in
      try
        while c.at < total do
          let len = if c.at + 4 > total then -1 else read_u32_le s c.at in
          if len < 0 || c.at + 4 + len + 4 > total then begin
            torn := total - c.at;
            c.at <- total
          end
          else begin
            let limit = c.at + 4 + len in
            c.at <- c.at + 4;
            if read_u32_le s limit <> fnv1a_32 (Bytes.unsafe_of_string s) c.at len
            then raise (Bad_frame "checksum mismatch");
            let seq = read_varint s c limit in
            let time_ms = read_f64_le s c limit in
            let node_len = read_varint s c limit in
            let node =
              if
                String.length !last_node = node_len
                && node_len <= limit - c.at
                && same_bytes s c.at !last_node 0
              then begin
                c.at <- c.at + node_len;
                !last_node
              end
              else take s c limit node_len "node"
            in
            last_node := node;
            if c.at >= limit then raise (Bad_frame "missing dir byte");
            let code = Char.code s.[c.at] in
            c.at <- c.at + 1;
            let dir =
              match dir_name code with
              | Some d -> d
              | None ->
                if code <> dir_other then
                  raise (Bad_frame (Printf.sprintf "unknown dir code %d" code));
                take s c limit (read_varint s c limit) "dir"
            in
            last_seq := seq;
            incr count;
            acc := f !acc ~seq ~time_ms ~node ~dir ~pos:c.at ~len:(limit - c.at);
            c.at <- limit + 4
          end
        done;
        Ok (version, !acc, !torn)
      with Bad_frame m ->
        Error
          (Printf.sprintf "frame %d (expected seq %d): %s" (!count + 1)
             (!last_seq + 1) m))

let decode_binary s =
  Result.map
    (fun (version, frames, torn_bytes) ->
      { version; frames = List.rev frames; torn_bytes })
    (fold_binary_in_place s ~init:(fun _ -> Ok [])
       (fun acc ~seq ~time_ms ~node ~dir ~pos ~len ->
         { seq; time_ms; node; dir; payload = String.sub s pos len } :: acc))
