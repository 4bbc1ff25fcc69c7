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

(* Word-wise FNV-1a, 32-bit: the xor/multiply recurrence over 4-byte
   little-endian words with a byte-wise tail — must match
   [Wbuf.fnv1a_32], which documents the variant and why it still
   detects any bit flip. *)
external unsafe_get_32 : string -> int -> int32 = "%caml_string_get32u"

let fnv1a_32 s pos len =
  let h = ref 0x811c9dc5 in
  let i = ref pos in
  let last_word = pos + len - 4 in
  while !i <= last_word do
    let word = Int32.to_int (unsafe_get_32 s !i) land 0xffffffff in
    h := (!h lxor word) * 0x01000193;
    i := !i + 4
  done;
  let limit = pos + len in
  while !i < limit do
    h := (!h lxor Char.code (String.unsafe_get s !i)) * 0x01000193;
    incr i
  done;
  !h land 0xffffffff

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

(* Whole frame — length placeholder, body, checksum — built in [w]
   starting at its current position; the placeholder is patched once the
   body length is known.  Returns the body's payload span for observers,
   packed [pos lsl 31 lor len] to keep the hot path allocation-free. *)
let frame_into w ~seq ~time_ms ~node ~dir ~emit =
  let start = Wbuf.length w in
  Wbuf.u32_le w 0;
  add_frame_body w ~seq ~time_ms ~node ~dir;
  let p0 = Wbuf.length w in
  emit w;
  let len = Wbuf.length w - start - 4 in
  Wbuf.patch_u32_le w start len;
  Wbuf.u32_le w (Wbuf.fnv1a_32 w (start + 4) len);
  ((p0 - start) lsl 31) lor (len - (p0 - start - 4))

let encode_frame_into w ~seq ~time_ms ~node ~dir ~emit =
  ignore (frame_into w ~seq ~time_ms ~node ~dir ~emit : int)

(* Shared scratch for the standalone encoder (a journal sink uses its
   own writer): encode_frame is not reentrant — [emit] must not itself
   call encode_frame. *)
let encode_scratch = Wbuf.create 512

let encode_frame buf ~seq ~time_ms ~node ~dir ~emit =
  let w = encode_scratch in
  Wbuf.clear w;
  ignore (frame_into w ~seq ~time_ms ~node ~dir ~emit : int);
  Buffer.add_subbytes buf (Wbuf.unsafe_bytes w) 0 (Wbuf.length w)

(* ------------------------------------------------------------------ *)
(* Sink                                                                *)
(* ------------------------------------------------------------------ *)

type t = {
  live : bool;
  format : format;
  clock : unit -> float;
  entries : string Queue.t;
      (** Encoded entries: JSONL lines (no newline) or binary frames. *)
  mutable buffered_bytes : int;
  max_buffer_bytes : int;
  mutable dropped : int;
  mutable seq : int;
  mutable oc : out_channel option;
  mutable observers :
    (seq:int -> time_ms:float -> node:string -> dir:string -> payload:string -> unit)
    list;
      (** Registration order; fan-out per record.  Empty = zero cost. *)
  mutable on_drop : (int -> unit) option;
  scratch : Buffer.t;  (** JSONL line under construction. *)
  wbody : Wbuf.t;  (** Binary frame body under construction. *)
}

let noop =
  {
    live = false;
    format = Jsonl;
    clock = (fun () -> 0.);
    entries = Queue.create ();
    buffered_bytes = 0;
    max_buffer_bytes = max_int;
    dropped = 0;
    seq = 0;
    oc = None;
    observers = [];
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
      entries = Queue.create ();
      buffered_bytes = 0;
      max_buffer_bytes = max 0 max_buffer_bytes;
      dropped = 0;
      seq = 0;
      oc = None;
      observers = [];
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
let set_on_drop t f = if t.live then t.on_drop <- Some f

(* Bytes charged against the in-memory cap: the actual encoded size of
   the entry in its format — JSONL pays for its newline, binary frames
   are self-delimiting. *)
let entry_cost t entry =
  String.length entry + (match t.format with Jsonl -> 1 | Binary -> 0)

let evict t =
  let n = ref 0 in
  while
    t.buffered_bytes > t.max_buffer_bytes && not (Queue.is_empty t.entries)
  do
    let entry = Queue.pop t.entries in
    t.buffered_bytes <- t.buffered_bytes - entry_cost t entry;
    incr n
  done;
  if !n > 0 then begin
    t.dropped <- t.dropped + !n;
    match t.on_drop with None -> () | Some f -> f !n
  end

(* Shared tail of the record paths: buffer the encoded entry, charge the
   cap, write through, notify the observers. *)
let push_entry t ~time_ms ~node ~dir entry payload_pos payload_len =
  Queue.push entry t.entries;
  t.buffered_bytes <- t.buffered_bytes + entry_cost t entry;
  evict t;
  (match t.oc with
  | None -> ()
  | Some oc -> (
    output_string oc entry;
    match t.format with Jsonl -> output_char oc '\n' | Binary -> ()));
  match t.observers with
  | [] -> ()
  | observers ->
    let payload = String.sub entry payload_pos payload_len in
    List.iter
      (fun f -> f ~seq:t.seq ~time_ms ~node ~dir ~payload)
      observers

(* Binary record: the whole frame is built in the reused writer
   (checksum straight over its backing bytes), then extracted as the
   entry string — one allocation per record. *)
let push_binary t ~time_ms ~node ~dir ~emit =
  let w = t.wbody in
  Wbuf.clear w;
  let span = frame_into w ~seq:t.seq ~time_ms ~node ~dir ~emit in
  push_entry t ~time_ms ~node ~dir
    (Wbuf.contents w)
    (span lsr 31)
    (span land ((1 lsl 31) - 1))

(* [emit] renders the payload as JSON text.  On a binary journal the
   rendered text is stored as the frame's raw payload bytes. *)
let record_bytes t ~node ~dir ~emit =
  if t.live then begin
    t.seq <- t.seq + 1;
    let time_ms = t.clock () in
    match t.format with
    | Jsonl ->
      let buf = t.scratch in
      Buffer.clear buf;
      add_jsonl_prefix buf ~seq:t.seq ~time_ms ~node ~dir;
      let p0 = Buffer.length buf in
      emit buf;
      let p1 = Buffer.length buf in
      Buffer.add_char buf '}';
      push_entry t ~time_ms ~node ~dir (Buffer.contents buf) p0 (p1 - p0)
    | Binary ->
      Buffer.clear t.scratch;
      emit t.scratch;
      let payload = Buffer.contents t.scratch in
      push_binary t ~time_ms ~node ~dir ~emit:(fun w -> Wbuf.str w payload)
  end

(* [emit] writes raw payload bytes straight into the frame body — the
   allocation-lean path for binary sinks ([Codec_bin] emitters).  Raises
   on a JSONL journal, whose payloads must be JSON text. *)
let record_frame t ~node ~dir ~emit =
  if t.live then begin
    (match t.format with
    | Binary -> ()
    | Jsonl -> invalid_arg "Journal.record_frame: JSONL journal");
    t.seq <- t.seq + 1;
    let time_ms = t.clock () in
    push_binary t ~time_ms ~node ~dir ~emit
  end

let record t ~node ~dir ~payload =
  record_bytes t ~node ~dir ~emit:(fun buf -> Buffer.add_string buf payload)

let length t = t.seq
let dropped t = t.dropped

let to_string t =
  let hdr =
    match t.format with
    | Jsonl -> header ^ "\n"
    | Binary -> binary_header ~version:format_version
  in
  let buf = Buffer.create (t.buffered_bytes + String.length hdr) in
  Buffer.add_string buf hdr;
  Queue.iter
    (fun entry ->
      Buffer.add_string buf entry;
      match t.format with
      | Jsonl -> Buffer.add_char buf '\n'
      | Binary -> ())
    t.entries;
  Buffer.contents buf

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

let read_varint s pos limit =
  let n = ref 0 and shift = ref 0 and p = ref pos in
  let fin = ref (-1) in
  while !fin < 0 do
    if !p >= limit then raise (Bad_frame "varint runs past frame end");
    if !shift > 56 then raise (Bad_frame "varint too wide");
    let b = Char.code (String.unsafe_get s !p) in
    incr p;
    n := !n lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then fin := !n
  done;
  (!fin, !p)

let read_u32_le s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let read_f64_le s pos limit =
  if pos + 8 > limit then raise (Bad_frame "f64 runs past frame end");
  let b = Bytes.unsafe_of_string s in
  (Int64.float_of_bits (Bytes.get_int64_le b pos), pos + 8)

let decode_frame_body s pos len =
  let limit = pos + len in
  let seq, p = read_varint s pos limit in
  let time_ms, p = read_f64_le s p limit in
  let node_len, p = read_varint s p limit in
  if p + node_len > limit then raise (Bad_frame "node runs past frame end");
  let node = String.sub s p node_len in
  let p = p + node_len in
  if p >= limit then raise (Bad_frame "missing dir byte");
  let code = Char.code s.[p] in
  let p = p + 1 in
  let dir, p =
    match dir_name code with
    | Some d -> (d, p)
    | None ->
      if code <> dir_other then
        raise (Bad_frame (Printf.sprintf "unknown dir code %d" code));
      let dlen, p = read_varint s p limit in
      if p + dlen > limit then raise (Bad_frame "dir runs past frame end");
      (String.sub s p dlen, p + dlen)
  in
  { seq; time_ms; node; dir; payload = String.sub s p (limit - p) }

let fold_binary s ~init f =
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
      let pos = ref (magic_len + 1) in
      let torn = ref 0 in
      let bad what =
        Bad_frame
          (Printf.sprintf "frame %d (expected seq %d): %s" (!count + 1)
             (!last_seq + 1) what)
      in
      try
        while !pos < total do
          if !pos + 4 > total then begin
            torn := total - !pos;
            pos := total
          end
          else begin
            let len = read_u32_le s !pos in
            if !pos + 4 + len + 4 > total then begin
              torn := total - !pos;
              pos := total
            end
            else begin
              let body_pos = !pos + 4 in
              let want = read_u32_le s (body_pos + len) in
              let got = fnv1a_32 s body_pos len in
              if want <> got then raise (bad "checksum mismatch");
              let fr =
                try decode_frame_body s body_pos len
                with Bad_frame m -> raise (bad m)
              in
              last_seq := fr.seq;
              incr count;
              acc := f !acc fr;
              pos := body_pos + len + 4
            end
          end
        done;
        Ok (version, !acc, !torn)
      with Bad_frame m -> Error m)

let decode_binary s =
  Result.map
    (fun (version, frames, torn_bytes) ->
      { version; frames = List.rev frames; torn_bytes })
    (fold_binary s ~init:(fun _ -> Ok []) (fun acc fr -> fr :: acc))
