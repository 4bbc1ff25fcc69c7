(** Minimal JSON, for the policy/credential wire format and every JSONL
    reader (journals, reports, plans, WAL lines).

    Self-contained (the sealed environment carries no JSON package):
    a value type, a renderer and a one-pass parser sufficient for the
    codec's needs — objects, arrays, strings with escapes, numbers,
    booleans and null. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact rendering (no insignificant whitespace).  A finite float
    renders so that {!parse} then {!to_float} give back its bits:
    [Float (-0.)] is ["-0.0"], since ["-0"] reads as [Int 0]. *)
val to_string : t -> string

(** [same_rendering a b] iff [to_string a = to_string b], decided
    without rendering whole trees (a parsed ["5"] is [Int 5], which
    renders like [Float 5.]). *)
val same_rendering : t -> t -> bool

(** [parse s] parses exactly one JSON value spanning the whole input, in
    one pass that allocates per value, not per character.  Returns
    [Error description] on malformed input; the description names the
    byte offset where parsing stopped.  Trees, error texts and offsets
    are those of a character-at-a-time recursive descent, which
    test/test_codec.ml keeps as the reference.

    A number token is the longest run of [0-9 - + . e E]: an integer
    when [int_of_string] accepts it, otherwise a float when
    [float_of_string] does.  A float that is not finite (["1e999"]) is
    an [Error "number out of range ..."]: {!to_string} could not write
    it back.  A [\uXXXX] escape below 256 is that byte; any other stays
    the six characters of its text. *)
val parse : string -> (t, string) result

(** {1 Accessors} — all return [Error] with a path-aware message. *)

val member : string -> t -> (t, string) result
val to_str : t -> (string, string) result
val to_int : t -> (int, string) result
val to_float : t -> (float, string) result
val to_bool : t -> (bool, string) result
val to_list : t -> (t list, string) result

(** Monadic bind over [result], for decoder pipelines. *)
val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
