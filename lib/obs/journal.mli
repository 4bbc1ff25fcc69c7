(** Protocol flight recorder: an append-only event journal.

    Records every protocol machine step — machine creation, each input
    fed to a machine, and each action the machine emitted in response —
    in one of two formats sharing the same record semantics:

    - {b Jsonl} (export/debug view): one JSON object per line,

    {[ {"seq":N,"time_ms":T,"node":"...","dir":"...","payload":...} ]}

      preceded by a single header line
      [{"journal":"cloudtx","version":V}].  The payload is an opaque,
      already-rendered JSON fragment supplied by the caller (the
      protocol codec lives above this library in the dependency order).

    - {b Binary} (hot path): a 5-byte header ["CTXJ" ^ version] followed
      by length-prefixed, FNV-1a-checksummed frames carrying the same
      envelope fields (seq, time_ms, node, dir) plus raw payload bytes.
      The frame grammar is payload-agnostic; the typed payload encoding
      lives in [Cloudtx_protocol.Codec_bin].  See DESIGN.md for the full
      grammar.

    [seq] starts at 1 and increases by exactly 1 per record, so a gap
    proves a dropped record.  [dir] is ["create"], ["input"] or
    ["action"].

    The journal buffers every encoded entry in memory ({!to_string})
    and, when opened with a [path], also writes each entry through to
    the file as it is recorded, so a crash loses at most the final
    partial entry.  The in-memory buffer is bounded by
    [max_buffer_bytes], charged in {e actual encoded bytes per format}
    (JSONL lines pay for their newline; binary frames are
    self-delimiting): once exceeded, the oldest buffered entries are
    evicted (drop-oldest) and counted in {!dropped} — the resulting
    [seq] gap is exactly what the replay auditor flags, so a truncated
    buffer is self-describing.  An entry larger than the cap is evicted
    as it is recorded.  Eviction never affects the write-through file or
    {!add_observer} delivery.

    The buffer packs entries into 64 KiB byte chunks, oldest first; an
    entry larger than a chunk gets a chunk of its own, and a fully
    evicted chunk is freed (one is kept for reuse).  So the buffer holds
    its encoded bytes plus the evicted start of the oldest chunk, the
    unused end of the newest, one spare chunk, and at each chunk's end
    fewer bytes than the entry that did not fit there — no heap block
    per entry.

    Zero cost when disabled: {!noop} never records and every operation is
    a single branch.  Instrumentation that renders payloads must guard on
    {!enabled} so the disabled path allocates nothing. *)

type t

type format = Jsonl | Binary

val format_name : format -> string

(** Accepts ["jsonl"]/["json"] and ["bin"]/["binary"]. *)
val format_of_string : string -> format option

(** Shared disabled journal; all operations are no-ops. *)
val noop : t

(** [create ~clock ?format ?max_buffer_bytes ?path ()] builds a live
    journal; [clock] supplies timestamps (milliseconds by convention).
    [format] selects the encoding (default {!Jsonl}).
    [max_buffer_bytes] caps the in-memory buffer (default: unbounded).
    With [path] every entry is also written through to that file
    (truncating it first). *)
val create :
  clock:(unit -> float) ->
  ?format:format ->
  ?max_buffer_bytes:int ->
  ?path:string ->
  unit ->
  t

val enabled : t -> bool

(** The journal's encoding.  [Cloudtx_core.Journal_io.record] is the
    one writer that dispatches on it (JSON text for {!Jsonl}, [Codec_bin]
    bytes for {!Binary}); the drivers hand it typed payloads. *)
val format : t -> format

(** [add_observer t f] registers a streaming tap: [f] is called once per
    record, after it is journaled, with the envelope fields and the raw
    payload ({e in the journal's format} — JSON text for a JSONL journal,
    [Codec_bin] bytes for a binary one).  [Cloudtx_core.Journal_io.attach]
    registers one such observer, the journal's decoding observer, which
    feeds the live health monitor ([run --monitor]), the blame collector
    and the chaos assertions the same records a [watch <file>] replay
    reads; for the records [Journal_io.record] writes it takes the typed
    payload handed over through its tap (below) rather than these
    bytes.  Observers form a list and are invoked in registration order.
    A record written from inside an observer is delivered once the
    current record has reached every observer, so each observer sees the
    records in seq order.  If an observer raises, the exception reaches
    the writer of the record being delivered, and records still waiting
    are not delivered.  An empty list costs a single branch per record.
    No-op on {!noop}. *)
val add_observer :
  t ->
  (seq:int -> time_ms:float -> node:string -> dir:string -> payload:string -> unit) ->
  unit

(** {1 Per-journal state}

    A layer above can keep its state for a journal with the journal
    itself, so that state lives exactly as long as the journal does
    ([Cloudtx_core.Journal_io.attach] keeps its one decoding observer
    here, with the slot through which [Journal_io.record] hands it the
    typed payload of the record being written). *)

type tap = ..

(** The taps added so far, most recent first. *)
val taps : t -> tap list

(** [add_tap t x] adds [x] to [t]'s taps.  No-op on {!noop}, which
    keeps nothing. *)
val add_tap : t -> tap -> unit

(** [set_on_drop t f] — [f n] is called whenever [n] buffered records are
    evicted by the byte cap (for wiring a [journal.dropped] counter). *)
val set_on_drop : t -> (int -> unit) -> unit

(** Total records evicted from the in-memory buffer so far. *)
val dropped : t -> int

(** [record t ~node ~dir ~payload] appends one record; [payload] must be
    a valid, canonically-rendered JSON fragment for a JSONL journal (so
    it holds no newline: the buffer finds a line's end by its newline),
    or the raw [Codec_bin] payload bytes for a binary one.  On a binary
    journal a JSON text payload is stored as the frame's raw bytes, as
    for resilience events.  Observers are handed [payload] itself. *)
val record : t -> node:string -> dir:string -> payload:string -> unit

(** [record_frame t ~node ~dir ~emit v] — allocation-lean append for
    binary journals: [emit w v] writes raw payload bytes (e.g.
    [Codec_bin.emit_payload]) straight into the journal's reused frame
    writer; the record is framed with no intermediate copies, and
    passing the emitter and its value apart allocates no closure per
    record.  [emit] is not called when the journal is disabled.

    @raise Invalid_argument on a live JSONL journal, whose payloads must
    be JSON text. *)
val record_frame :
  t -> node:string -> dir:string -> emit:(Wbuf.t -> 'a -> unit) -> 'a -> unit

(** Number of records appended so far (excluding the header). *)
val length : t -> int

(** The full journal — header plus every buffered entry, exactly as the
    write-through file would contain them. *)
val to_string : t -> string

(** Flush and close the write-through file, if any; idempotent.  The
    in-memory buffer stays readable. *)
val close : t -> unit

(** {1 Format internals}

    Shared with [Cloudtx_core.Journal_io] (conversion, auto-detection)
    and the corruption tests. *)

val format_version : int

(** The JSONL header line (current version), and its rendering at an
    arbitrary version (for converting older journals). *)
val header : string

val render_header : version:int -> string

(** [render_jsonl ~seq ~time_ms ~node ~dir ~payload] is the canonical
    JSONL record envelope around an already-rendered JSON payload —
    byte-identical to what a JSONL journal writes. *)
val render_jsonl :
  seq:int -> time_ms:float -> node:string -> dir:string -> payload:string ->
  string

(** ["CTXJ"], and the 5-byte binary file header. *)
val binary_magic : string

val binary_header : version:int -> string

(** [is_binary s] — does [s] start with the binary magic? *)
val is_binary : string -> bool

(** [encode_frame buf ~seq ~time_ms ~node ~dir ~emit] appends one
    complete binary frame (length prefix, body, checksum) to [buf];
    [emit] writes the raw payload bytes into the frame-body writer.
    This is the converter's building block — the journal itself uses an
    internal variant of the same encoding.  Not reentrant: [emit] must
    not itself call [encode_frame]. *)
val encode_frame :
  Buffer.t ->
  seq:int ->
  time_ms:float ->
  node:string ->
  dir:string ->
  emit:(Wbuf.t -> unit) ->
  unit

(** [encode_frame_into w ...] appends the frame to [w] itself (at its
    current position, no intermediate copy), built as the binary sink
    builds its frames — the zero-copy variant, for streaming encoders. *)
val encode_frame_into :
  Wbuf.t ->
  seq:int ->
  time_ms:float ->
  node:string ->
  dir:string ->
  emit:(Wbuf.t -> unit) ->
  unit

(** One decoded binary frame; [payload] is raw bytes. *)
type frame = {
  seq : int;
  time_ms : float;
  node : string;
  dir : string;
  payload : string;
}

type decoded = {
  version : int;
  frames : frame list;
  torn_bytes : int;
      (** Length of an incomplete trailing frame that was discarded
          (longest-valid-prefix, as for a torn WAL tail); [0] when the
          file ends on a frame boundary. *)
}

(** Decode a whole binary journal (header plus frames).  A truncated
    final frame is tolerated and reported via [torn_bytes]; a {e
    complete} frame whose checksum does not match its body is an error
    naming the frame and the seq it was expected to carry. *)
val decode_binary : string -> (decoded, string) result

(** [fold_binary s ~init f] — {!decode_binary} one frame at a time,
    without building the frame list: [init] sees the header's version
    (an [Error] stops there), then [f] folds over the frames in order.
    Returns the version, the result and the torn byte count. *)
val fold_binary :
  string ->
  init:(int -> ('a, string) result) ->
  ('a -> frame -> 'a) ->
  (int * 'a * int, string) result
