(** Minimal JSON, for the policy/credential wire format.

    Self-contained (the sealed environment carries no JSON package):
    a value type, a renderer and a recursive-descent parser sufficient
    for the codec's needs — objects, arrays, strings with escapes,
    integers, booleans and null. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact rendering (no insignificant whitespace). *)
val to_string : t -> string

(** [same_rendering a b] iff [to_string a = to_string b], decided
    without rendering whole trees (a parsed ["5"] is [Int 5], which
    renders like [Float 5.]). *)
val same_rendering : t -> t -> bool

(** [parse s] parses exactly one JSON value spanning the whole input.
    Returns [Error description] on malformed input. *)
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
