(** Compact binary codec for flight-recorder journal payloads.

    {!Codec} is the canonical JSON vocabulary; this module is its
    byte-for-byte-equivalent binary twin, used by binary journals.
    Design points:

    - {b Allocation-lean encode.}  {!emit_payload} writes directly into
      a caller-supplied [Cloudtx_obs.Wbuf.t] (the journal's reused frame
      writer) — no intermediate JSON tree, no intermediate strings.  The
      drivers do not call it themselves: they hand a typed {!payload} to
      [Cloudtx_core.Journal_io.record], which picks the encoding.
    - {b Self-describing payloads.}  A journal payload starts with a
      kind tag byte (0 create-tm, 1 create-ps, 2 tm-input, 3 tm-action,
      4 ps-input, 5 ps-action; since v4, 6 is create-tm with a
      non-[Fixed] timeout policy appended after the config — kind 0
      keeps the v3 layout byte-for-byte), so a binary journal decodes
      without tracking per-node machine kinds.
    - {b One typed payload for both formats.}  {!payload_of_string}
      (binary) and {!payload_of_json} (JSONL) decode to the same
      {!payload} sum, which is what every journal consumer reads; the
      typed record stream is [Cloudtx_core.Journal_io]'s.
      {!payload_to_json} is a payload's canonical JSON through
      {!Codec}: what a JSONL journal records, and what a binary record
      renders back to as JSONL text.

    Wire grammar (composed inside the journal's checksummed frames; see
    DESIGN.md): variant tags are single bytes in declaration order,
    fixed forever within a journal format version; ints are
    zigzag-LEB128 varints; strings are varint-length-prefixed bytes;
    floats are IEEE-754 binary64 little-endian (bit-exact, so float
    rendering round-trips); options are a presence byte; lists are a
    varint count followed by the elements.  Scheme and consistency-level
    names travel as strings (their [of_string] is the decoder).

    Decoders validate exactly as {!Codec}'s JSON decoders do (policies
    and credentials rebuild through [of_wire], rules re-check range
    restriction) and never raise. *)

module Wbuf = Cloudtx_obs.Wbuf
module Json = Cloudtx_policy.Json

(** One journal record payload, tagged with what it is. *)
type payload =
  | Create_tm of {
      config : Tm_machine.config;
      txn : Cloudtx_txn.Transaction.t;
      submitted_at : float;
    }
  | Create_ps of { variant : Cloudtx_txn.Tpc.variant; inquiry_timeout : float }
  | Tm_input of Tm_machine.input
  | Tm_action of Tm_machine.action
  | Ps_input of Ps_machine.input
  | Ps_action of Ps_machine.action

(** {1 Whole payloads} *)

(** The journal envelope [dir] a payload is recorded under: ["create"],
    ["input"] or ["action"]. *)
val payload_dir : payload -> string

(** [emit_payload b p] writes one complete payload, kind tag included,
    into [b] — the binary journal's one emitter, run inside the frame
    writer by [Cloudtx_core.Journal_io.record]. *)
val emit_payload : Wbuf.t -> payload -> unit
val payload_to_string : payload -> string

(** [same_tm_action a b] iff {!emit_payload} writes the same bytes for
    [Tm_action a] and [Tm_action b]; [same_ps_action] likewise.  Floats
    compare by their bits, policies and credentials by the fields they
    encode (their memos are not encoded), and nothing is allocated.  Two
    actions' JSON renderings agree exactly when these do, except for
    NaNs with different payload bits, which render alike; a JSONL
    journal carries no NaN. *)
val same_tm_action : Tm_machine.action -> Tm_machine.action -> bool

val same_ps_action : Ps_machine.action -> Ps_machine.action -> bool

(** Decode one payload; trailing bytes are an error (frames delimit
    payloads exactly).  Shares nothing: every policy and credential is
    a fresh value, as the live tap needs. *)
val payload_of_string : string -> (payload, string) result

(** {1 Decoding a whole journal}

    A journal repeats a few policies and credentials thousands of times:
    every [eval] action carries the subject's credentials, every
    [evaluated] input the policies it used.  A decode context belongs to
    one read of one journal ([Cloudtx_core.Journal_io] makes one per
    read) and decodes each distinct policy and credential once.

    - {!payload_of_span} decodes in place, from the payload's bytes in
      the journal string itself.
    - A policy or credential whose bytes the same context has decoded
      before is the value decoded then, and two values share only when
      every byte agrees.  The bytes are first compared with those of
      the value of that kind handed out last: encodings are prefix-free,
      so bytes that begin with all of them are that value.  Otherwise
      they are found by a skip that checks bounds and allocates nothing,
      hashed where they lie, looked up and compared in full.  Bytes the
      skip cannot get through are decoded as {!payload_of_string} does,
      so an error reads the same.
    - Consumers cannot tell: the only mutable fields of [Policy.t] and
      [Credential.t] are the compiled-plan and signature-verdict memos,
      and each follows from the value's other fields.
    - The context's tables hold one entry per distinct policy and
      credential the read met, and go with the context. *)

type context

(** A fresh context, for one read. *)
val context : unit -> context

(** [payload_of_span c s ~pos ~len] is {!payload_of_string} of the [len]
    bytes of [s] from [pos], without copying them, sharing policies and
    credentials through [c]: the same payload, or the same error.
    @raise Invalid_argument if the span is not within [s]. *)
val payload_of_span :
  context -> string -> pos:int -> len:int -> (payload, string) result

(** {1 JSON bridge} *)

(** Canonical JSON for a payload; rendered with [Codec.to_string], it
    is the payload text of the payload's JSONL journal record. *)
val payload_to_json : payload -> Json.t

type node_kind = Tm | Ps

(** Decode a JSONL record's payload into a typed {!payload}.  [dir] is
    the record's envelope dir; [kind] resolves whether an input/action
    belongs to a TM or PS node (the caller tracks this from create
    records).  A participant create without [inquiry_timeout] (journals
    from before the termination protocol) decodes with [0.]. *)
val payload_of_json :
  dir:string -> kind:node_kind -> Json.t -> (payload, string) result
