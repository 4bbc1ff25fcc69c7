(** The one way into and out of a journal: typed records in, a stream
    of typed records back.

    The flight recorder writes journals in two formats (JSONL and
    binary; see [Cloudtx_obs.Journal]), and {!val:record} and
    {!record_event} are the only writers that choose between them.
    Every consumer — {!Audit}, {!Certify}, {!Health}, {!Blame}, the
    chaos campaign — reads one through this module, as {!type:record}s
    whose payload is already the typed
    {!Cloudtx_protocol.Codec_bin.payload}:

    - a binary journal decodes one frame at a time, in place
      ([Journal.fold_binary_in_place] → [Codec_bin.payload_of_span]),
      with no JSON on the way and no copy of the payload.  Each read
      ({!fold}, {!fold_file}, {!of_contents}) makes one
      [Codec_bin.context], so each distinct policy and credential in
      the file is decoded once and shared by the records that carry it;
      the context goes with the read;
    - a JSONL journal parses each line once and decodes its payload with
      [Codec_bin.payload_of_json], telling TM from PS records by the
      node kinds learned from create records (a node whose create is
      missing — evicted from a capped buffer — is tried as PS, then TM).
      An action record must also be the canonical encoding of the action
      it decodes to, at the header's version, so the auditor comparing
      the renderings of typed actions is as strict as comparing the
      recorded text.

    Both paths yield the same records for the same run, so no consumer
    can tell the formats apart.  JSONL reads share nothing, as before.
    Live ({!attach}), a record written by {!val:record} arrives as the
    typed payload it was written from, with no decoding at all; the
    bytes the tap does decode go through [Codec_bin.payload_of_string],
    which shares nothing.  Canonical JSONL text is a rendering of
    the records ({!of_contents}, {!convert}), used by [journal cat] and
    [journal convert]. *)

module Journal = Cloudtx_obs.Journal

type body =
  | Payload of Cloudtx_protocol.Codec_bin.payload
      (** A machine create, input or action; the payload's constructor
          carries the envelope [dir]. *)
  | Event of Cloudtx_policy.Json.t
      (** A [dir = "event"] driver-side resilience record (breaker
          transition, admission verdict), parsed. *)
  | Undecodable of string
      (** The envelope was sound but the payload was not: best-effort
          consumers count it, the auditor fails on it. *)

type record = { seq : int; time_ms : float; node : string; body : body }

(** [fold contents ~init f] decodes a whole journal, auto-detecting the
    format, and folds [f] over its records in journal order.  [init] is
    given the header's format version (2..current for JSONL, 3..current
    for binary).  [Error] names the line or frame for a bad header, an
    unparseable or incomplete record envelope, or a binary frame that
    fails its checksum; a torn trailing binary frame is dropped silently.
    Never raises (unless [init] or [f] does). *)
val fold : string -> init:(int -> 'a) -> ('a -> record -> 'a) -> ('a, string) result

(** {!fold} over JSONL lines, header first. *)
val fold_lines :
  string list -> init:(int -> 'a) -> ('a -> record -> 'a) -> ('a, string) result

(** {!fold} over a file's contents; [Error] also on an unreadable file. *)
val fold_file :
  string -> init:(int -> 'a) -> ('a -> record -> 'a) -> ('a, string) result

(** [attach journal f] feeds [f] every record [journal] records from
    now on, as it is recorded.  A journal has one decoding observer
    ([Journal.add_observer]), registered by its first [attach] and kept
    with the journal ([Journal.add_tap]).  A record written by
    {!val:record} reaches it with the typed payload it was written
    from, handed over as recorded, so it is neither parsed nor decoded;
    only events ({!record_event}) and raw [Journal.record] writes are
    decoded from their bytes, once each.  Either way, the same record
    value is handed to every attached [f], in attach order, and it
    renders exactly as the record {!fold} reads back from the written
    journal.  So all consumers see a record at the first [attach]'s
    place among the journal's raw observers.  A record written from
    inside an [f] is delivered once the current record has reached
    every [f] and every raw observer, so each sees the records in seq
    order.  No-op on a disabled journal such as [Journal.noop], which
    keeps nothing. *)
val attach : Journal.t -> (record -> unit) -> unit

(** {1 Recording}

    The only code that chooses a record's encoding.  Callers keep their
    own [Journal.enabled] guard, so a disabled journal costs them no
    payload; both functions are no-ops on one. *)

(** [record journal ~node p] appends one machine step under
    [Codec_bin.payload_dir p]: on a JSONL journal
    [Codec_bin.payload_to_json p] rendered with [Codec.to_string], on a
    binary one [Codec_bin.emit_payload] run inside the frame writer.
    The journal's {!attach} consumers receive [p] itself. *)
val record :
  Journal.t -> node:string -> Cloudtx_protocol.Codec_bin.payload -> unit

(** [record_event journal ~node j] appends a [dir = "event"] record whose
    payload is [j]'s JSON text, in both formats; it reads back as
    [Event j]. *)
val record_event : Journal.t -> node:string -> Cloudtx_policy.Json.t -> unit

(** The encoding for a journal that writes no file: binary.  Such a
    journal is read only live, through {!attach}, and back from its
    buffer through {!of_contents}, and neither can tell the formats
    apart; binary records without rendering any JSON.  The chaos
    campaign records in it whenever it is given no journal path. *)
val in_memory_format : Journal.format

(** {1 Canonical JSONL and conversion} *)

(** [render r] is [r]'s canonical JSONL line, byte-identical to what a
    JSONL journal records for it; [Error] names an [Undecodable]
    record's seq. *)
val render : record -> (string, string) result

(** A journal rendered as canonical JSONL. *)
type t = {
  format : Journal.format;  (** Detected input format. *)
  version : int;
      (** Journal format version from the header (best-effort [0] for a
          JSONL journal with an unreadable header). *)
  lines : string list;
      (** Canonical JSONL: header line first, then one line per record.
          A JSONL journal's own non-blank lines, verbatim. *)
  torn_bytes : int;
      (** Bytes of an incomplete trailing binary frame that were
          tolerated and discarded (longest-valid-prefix); [0] for JSONL
          or a cleanly-ended binary journal. *)
}

(** Load a journal from raw contents / from a file.  A binary journal's
    records are rendered back to the byte-identical lines a JSONL
    journal records; errors name the first bad frame (and the seq it
    carried or was expected to carry). *)
val of_contents : string -> (t, string) result

val of_file : string -> (t, string) result

(** [convert ~to_ contents] re-encodes a whole journal.  Same-format
    conversion is the identity; binary→JSONL is {!of_contents}'s
    canonical lines; JSONL→binary re-encodes every record through the
    typed codec and refuses journals whose version is not current
    (older versions encode some records differently, and a silent
    upgrade would break the auditor's byte-exact replay). *)
val convert : to_:Journal.format -> string -> (string, string) result
