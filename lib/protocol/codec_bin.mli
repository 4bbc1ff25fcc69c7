(** Compact binary codec for flight-recorder journal payloads.

    {!Codec} is the canonical JSON vocabulary; this module is its
    byte-for-byte-equivalent binary twin, used by binary journals
    ([Cloudtx_obs.Journal.Binary]).  Design points:

    - {b Allocation-lean encode.}  Every [emit_*] writes directly into a
      caller-supplied [Cloudtx_obs.Wbuf.t] (the journal's reused frame
      writer) — no intermediate JSON tree, no intermediate strings.
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
      {!payload_to_json} re-renders a payload through {!Codec} to
      exactly the canonical JSON a JSONL journal would have recorded —
      used only to render records back to JSONL text.

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

(** {1 Hot-path emitters}

    Each writes one complete payload (kind tag included) into [b].
    These are what the Manager/Participant drivers call for binary
    journals, via [Journal.record_frame]. *)

val emit_create_tm :
  Wbuf.t ->
  config:Tm_machine.config ->
  txn:Cloudtx_txn.Transaction.t ->
  submitted_at:float ->
  unit

val emit_create_ps :
  Wbuf.t -> variant:Cloudtx_txn.Tpc.variant -> inquiry_timeout:float -> unit

val emit_tm_input_payload : Wbuf.t -> Tm_machine.input -> unit
val emit_tm_action_payload : Wbuf.t -> Tm_machine.action -> unit
val emit_ps_input_payload : Wbuf.t -> Ps_machine.input -> unit
val emit_ps_action_payload : Wbuf.t -> Ps_machine.action -> unit

(** {1 Whole payloads} *)

(** The journal envelope [dir] a payload is recorded under: ["create"],
    ["input"] or ["action"]. *)
val payload_dir : payload -> string

val emit_payload : Wbuf.t -> payload -> unit
val payload_to_string : payload -> string

(** Decode one payload; trailing bytes are an error (frames delimit
    payloads exactly). *)
val payload_of_string : string -> (payload, string) result

(** {1 JSON bridge} *)

(** Canonical JSON for a payload — byte-identical (once rendered with
    [Codec.to_string]) to what the drivers record in a JSONL journal. *)
val payload_to_json : payload -> Json.t

type node_kind = Tm | Ps

(** Decode a JSONL record's payload into a typed {!payload}.  [dir] is
    the record's envelope dir; [kind] resolves whether an input/action
    belongs to a TM or PS node (the caller tracks this from create
    records).  A participant create without [inquiry_timeout] (journals
    from before the termination protocol) decodes with [0.]. *)
val payload_of_json :
  dir:string -> kind:node_kind -> Json.t -> (payload, string) result
