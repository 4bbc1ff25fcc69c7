(* The one way into and out of a journal.  The drivers record typed
   payloads and events through [record]/[record_event], the only code
   that picks an encoding.  Every consumer (audit, certify, watch,
   blame, report, the chaos campaign, the CLI) reads a journal back
   through here as a stream of typed records: a binary journal decodes
   frame by frame straight to [Codec_bin.payload]s with no JSON at all,
   a JSONL journal parses each line once and decodes its payload with
   the node kinds learned from create records.  Canonical JSONL text is
   one rendering of those records ([of_contents], [convert]). *)

module Journal = Cloudtx_obs.Journal
module Codec = Cloudtx_protocol.Codec
module Codec_bin = Cloudtx_protocol.Codec_bin
module Json = Cloudtx_policy.Json

type body =
  | Payload of Codec_bin.payload
  | Event of Json.t
  | Undecodable of string

type record = { seq : int; time_ms : float; node : string; body : body }

type t = {
  format : Journal.format;
  version : int;
  lines : string list;
  torn_bytes : int;
}

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Payloads                                                            *)
(* ------------------------------------------------------------------ *)

(* Binary payloads are self-tagged, so decoding needs no per-node state.
   Event frames carry the event's JSON text as their raw bytes. *)
let decode_frame ~dir payload =
  if String.equal dir "event" then
    match Json.parse payload with
    | Ok j -> Event j
    | Error m -> Undecodable ("event payload: " ^ m)
  else
    match Codec_bin.payload_of_string payload with
    | Error m -> Undecodable m
    | Ok p ->
      let tagged = Codec_bin.payload_dir p in
      if String.equal tagged dir then Payload p
      else Undecodable (Printf.sprintf "dir %S carries a %s payload" dir tagged)

(* An action record must be the canonical encoding — at the journal's
   version — of the action it decodes to: the auditor compares the
   renderings of replayed and recorded typed actions, and this keeps
   that comparison exactly as strict as comparing the recorded text. *)
let canonical_action ~version = function
  | Codec_bin.Tm_action a -> Some (Codec.tm_action_to_json a)
  | Codec_bin.Ps_action a -> Some (Codec.ps_action_to_json_at ~version a)
  | _ -> None

(* [kinds] maps each created node to its machine kind, which is what
   tells a TM input/action from a PS one in JSON. *)
let decode_json ~version kinds ~node ~dir j =
  let decode kind = Codec_bin.payload_of_json ~dir ~kind j in
  let typed = function
    | Error m -> Undecodable m
    | Ok p -> (
      match canonical_action ~version p with
      | Some c when not (Json.same_rendering c j) ->
        Undecodable
          (Printf.sprintf "action is not in canonical form (want %s)"
             (Codec.to_string c))
      | _ -> Payload p)
  in
  match dir with
  | "event" -> Event j
  | "create" ->
    (match Result.bind (Json.member "kind" j) Json.to_str with
    | Ok k ->
      Hashtbl.replace kinds node
        (if k = "tm" then Codec_bin.Tm else Codec_bin.Ps)
    | Error _ -> ());
    typed (decode Codec_bin.Ps)
  | _ -> (
    match Hashtbl.find_opt kinds node with
    | Some kind -> typed (decode kind)
    | None -> (
      (* The create was evicted from a capped buffer: try PS, then TM. *)
      match decode Codec_bin.Ps with
      | Ok _ as ok -> typed ok
      | Error _ -> typed (decode Codec_bin.Tm)))

(* ------------------------------------------------------------------ *)
(* Folds                                                               *)
(* ------------------------------------------------------------------ *)

let is_blank line = String.trim line = ""

let header_version ~lineno line =
  let bad m = Error (Printf.sprintf "line %d: bad journal header: %s" lineno m) in
  match Json.parse line with
  | Error m -> bad m
  | Ok j -> (
    match Result.bind (Json.member "journal" j) Json.to_str with
    | Error m -> bad m
    | Ok kind when kind <> "cloudtx" ->
      Error (Printf.sprintf "line %d: journal kind %S unknown" lineno kind)
    | Ok _ -> (
      match Result.bind (Json.member "version" j) Json.to_int with
      | Error m -> bad m
      | Ok v when v < 2 || v > Codec.version ->
        Error
          (Printf.sprintf "line %d: journal version %d unsupported (want 2..%d)"
             lineno v Codec.version)
      | Ok v -> Ok v))

let decode_line ~version kinds ~lineno line =
  match Json.parse line with
  | Error m -> Error (Printf.sprintf "line %d: unparseable record: %s" lineno m)
  | Ok j ->
    let field name get =
      Result.map_error
        (fun m -> Printf.sprintf "line %d: record without %s: %s" lineno name m)
        (Result.bind (Json.member name j) get)
    in
    let* seq = field "seq" Json.to_int in
    let* time_ms = field "time_ms" Json.to_float in
    let* node = field "node" Json.to_str in
    let* dir = field "dir" Json.to_str in
    let* payload = field "payload" Result.ok in
    Ok { seq; time_ms; node; body = decode_json ~version kinds ~node ~dir payload }

(* Blank lines are skipped but still counted, so errors name the line of
   the file. *)
let fold_seq lines ~init f =
  let rec records ~version kinds acc lineno lines =
    match lines () with
    | Seq.Nil -> Ok acc
    | Seq.Cons (line, rest) when is_blank line ->
      records ~version kinds acc (lineno + 1) rest
    | Seq.Cons (line, rest) ->
      let* r = decode_line ~version kinds ~lineno line in
      records ~version kinds (f acc r) (lineno + 1) rest
  in
  let rec header lineno lines =
    match lines () with
    | Seq.Nil -> Error "empty journal"
    | Seq.Cons (line, rest) when is_blank line -> header (lineno + 1) rest
    | Seq.Cons (line, rest) ->
      let* version = header_version ~lineno line in
      records ~version (Hashtbl.create 16) (init version) (lineno + 1) rest
  in
  header 1 lines

let fold_lines lines = fold_seq (List.to_seq lines)

(* The lines of [s], cut one at a time as the fold reaches them. *)
let rec lines_from s i () =
  if i > String.length s then Seq.Nil
  else
    let j =
      Option.value ~default:(String.length s) (String.index_from_opt s i '\n')
    in
    Seq.Cons (String.sub s i (j - i), lines_from s (j + 1))

(* Frames are decoded as the fold reaches them; returns the version, the
   result and the torn byte count. *)
let fold_frames s ~init f =
  Journal.fold_binary s
    ~init:(fun version ->
      if version < 3 || version > Journal.format_version then
        Error
          (Printf.sprintf "binary journal header: unsupported version %d"
             version)
      else Ok (init version))
    (fun acc (fr : Journal.frame) ->
      f acc
        {
          seq = fr.Journal.seq;
          time_ms = fr.Journal.time_ms;
          node = fr.Journal.node;
          body = decode_frame ~dir:fr.Journal.dir fr.Journal.payload;
        })

let fold s ~init f =
  if Journal.is_binary s then
    Result.map (fun (_, acc, _) -> acc) (fold_frames s ~init f)
  else fold_seq (lines_from s 0) ~init f

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | s -> Ok s

let fold_file path ~init f = Result.bind (read_file path) (fun s -> fold s ~init f)

(* The journal's one decoding observer, kept with the journal as its
   [Decoded] tap and shared by every consumer, in attach order.

   [record] hands the tap the typed payload it is about to write, keyed
   by the seq that record will get, so the observer delivers the
   driver's own value instead of decoding the bytes it was just
   rendered to; events and raw [Journal.record] writes fill no slot and
   are decoded.  The observer empties the slot before any consumer
   runs, so a record written from inside a consumer finds it free; the
   journal delivers such a record once the current one has reached every
   observer.  If one delivery writes two typed records, the second
   refills the slot before the first is delivered, so the first is
   decoded from its bytes, to the same value. *)
type consumers = {
  mutable consumers : (record -> unit) list;
  mutable handed_seq : int;  (** [0] when the slot is empty. *)
  mutable handed : Codec_bin.payload;
}

type Journal.tap += Decoded of consumers

(* What an empty slot holds: a constant, so emptying it allocates
   nothing and keeps no delivered payload alive. *)
let no_payload = Codec_bin.Tm_input Tm_machine.Retry_fired

let rec feed r = function
  | [] -> ()
  | f :: fs ->
    f r;
    feed r fs

let attach journal f =
  match
    List.find_map
      (function Decoded d -> Some d | _ -> None)
      (Journal.taps journal)
  with
  | Some d -> d.consumers <- d.consumers @ [ f ]
  | None when Journal.enabled journal ->
    let d = { consumers = [ f ]; handed_seq = 0; handed = no_payload } in
    Journal.add_tap journal (Decoded d);
    (* On a JSONL journal a handed create still records its node's kind,
       so a raw write for that node decodes as it would after a decoded
       create. *)
    let decode, note_kind =
      match Journal.format journal with
      | Journal.Binary ->
        ( (fun ~node:_ ~dir payload -> decode_frame ~dir payload),
          fun ~node:_ _ -> () )
      | Journal.Jsonl ->
        let kinds = Hashtbl.create 16 in
        ( (fun ~node ~dir payload ->
            match Json.parse payload with
            | Ok j ->
              decode_json ~version:Journal.format_version kinds ~node ~dir j
            | Error m -> Undecodable m),
          fun ~node -> function
            | Codec_bin.Create_tm _ -> Hashtbl.replace kinds node Codec_bin.Tm
            | Codec_bin.Create_ps _ -> Hashtbl.replace kinds node Codec_bin.Ps
            | _ -> () )
    in
    Journal.add_observer journal (fun ~seq ~time_ms ~node ~dir ~payload ->
        let body =
          if d.handed_seq = seq then begin
            let p = d.handed in
            d.handed_seq <- 0;
            d.handed <- no_payload;
            note_kind ~node p;
            Payload p
          end
          else decode ~node ~dir payload
        in
        feed { seq; time_ms; node; body } d.consumers)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Recording: the one place a record's encoding is chosen              *)
(* ------------------------------------------------------------------ *)

(* Hand [p] to the journal's decoding observer, if it has one, for the
   record about to be written with [seq].  Done once nothing is left
   that could fail before the journal takes the record, so no later
   record can find the slot still filled for its seq. *)
let rec hand_over taps ~seq p =
  match taps with
  | Decoded d :: _ ->
    d.handed_seq <- seq;
    d.handed <- p
  | _ :: taps -> hand_over taps ~seq p
  | [] -> ()

let record journal ~node p =
  if Journal.enabled journal then
    let dir = Codec_bin.payload_dir p in
    let seq = Journal.length journal + 1 in
    match Journal.format journal with
    | Journal.Binary ->
      hand_over (Journal.taps journal) ~seq p;
      Journal.record_frame journal ~node ~dir ~emit:Codec_bin.emit_payload p
    | Journal.Jsonl ->
      let payload = Codec.to_string (Codec_bin.payload_to_json p) in
      hand_over (Journal.taps journal) ~seq p;
      Journal.record journal ~node ~dir ~payload

(* An event is JSON text in both formats (a binary frame carries the
   text as its raw payload, which [decode_frame] parses back). *)
let record_event journal ~node j =
  if Journal.enabled journal then
    Journal.record journal ~node ~dir:"event" ~payload:(Codec.to_string j)

(* ------------------------------------------------------------------ *)
(* Canonical JSONL: a rendering of the records                         *)
(* ------------------------------------------------------------------ *)

let render r =
  let line ~dir payload =
    Ok
      (Journal.render_jsonl ~seq:r.seq ~time_ms:r.time_ms ~node:r.node ~dir
         ~payload)
  in
  match r.body with
  | Payload p ->
    line ~dir:(Codec_bin.payload_dir p)
      (Codec.to_string (Codec_bin.payload_to_json p))
  | Event j -> line ~dir:"event" (Codec.to_string j)
  | Undecodable m -> Error (Printf.sprintf "frame with seq %d: %s" r.seq m)

let split_lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> not (is_blank l))

let of_contents s =
  if Journal.is_binary s then
    let* version, rendered, torn_bytes =
      fold_frames s ~init:(fun _ -> Ok []) (fun acc r ->
          let* acc = acc in
          let* line = render r in
          Ok (line :: acc))
    in
    let* rendered = rendered in
    Ok
      {
        format = Journal.Binary;
        version;
        lines = Journal.render_header ~version :: List.rev rendered;
        torn_bytes;
      }
  else
    let lines = split_lines s in
    let version =
      match lines with
      | header :: _ -> Result.value ~default:0 (header_version ~lineno:1 header)
      | [] -> 0
    in
    Ok { format = Journal.Jsonl; version; lines; torn_bytes = 0 }

let of_file path = Result.bind (read_file path) of_contents

(* ------------------------------------------------------------------ *)
(* Conversion                                                          *)
(* ------------------------------------------------------------------ *)

(* JSONL -> binary re-encodes every typed record, so only journals the
   current codec fully understands convert; anything else (older
   versions, undecodable payloads) errors out rather than silently
   rewriting history. *)
let jsonl_to_binary lines =
  let buf = Buffer.create 4096 in
  let* converted =
    fold_lines lines
      ~init:(fun version ->
        if version <> Journal.format_version then
          Error
            (Printf.sprintf
               "cannot convert a v%d journal to binary: binary journals are \
                v%d-only (older versions encode some records differently)"
               version Journal.format_version)
        else begin
          Buffer.add_string buf (Journal.binary_header ~version);
          Ok ()
        end)
      (fun acc r ->
        let* () = acc in
        let frame ~dir emit =
          Journal.encode_frame buf ~seq:r.seq ~time_ms:r.time_ms ~node:r.node
            ~dir ~emit;
          Ok ()
        in
        match r.body with
        | Payload p ->
          frame ~dir:(Codec_bin.payload_dir p) (fun b ->
              Codec_bin.emit_payload b p)
        | Event j ->
          let text = Codec.to_string j in
          frame ~dir:"event" (fun b -> Cloudtx_obs.Wbuf.str b text)
        | Undecodable m -> Error (Printf.sprintf "seq %d: %s" r.seq m))
  in
  let* () = converted in
  Ok (Buffer.contents buf)

let convert ~to_ contents =
  let* loaded = of_contents contents in
  match (loaded.format, to_) with
  | Journal.Jsonl, Journal.Jsonl | Journal.Binary, Journal.Binary ->
    Ok contents
  | Journal.Binary, Journal.Jsonl ->
    Ok (String.concat "\n" loaded.lines ^ "\n")
  | Journal.Jsonl, Journal.Binary -> jsonl_to_binary loaded.lines
