(** Allocation-lean byte writer for the binary journal hot path.

    A growable byte buffer that, unlike [Buffer.t], exposes its backing
    [Bytes.t]: the journal checksums and blits a record's body without
    materializing intermediate strings.  Binary payload encoders
    ({!Cloudtx_protocol.Codec_bin}) write into one of these.

    Not thread-safe; writers are meant to be reused ([clear]) across
    records. *)

type t

(** [create n] — a writer with [n] bytes preallocated. *)
val create : int -> t

(** Reset to empty; keeps the backing storage. *)
val clear : t -> unit

(** Bytes written so far. *)
val length : t -> int

(** The backing storage.  Only indices [< length w] hold written data,
    and the reference is invalidated by the next write (growth swaps the
    backing bytes) — read before writing again. *)
val unsafe_bytes : t -> Bytes.t

(** Ensure room for [n] more bytes (writers grow on demand anyway; this
    just hoists the check). *)
val reserve : t -> int -> unit

(** Append one byte (low 8 bits of the int). *)
val u8 : t -> int -> unit

val char : t -> char -> unit

(** Unsigned LEB128 varint. *)
val varint : t -> int -> unit

(** 32-bit little-endian. *)
val u32_le : t -> int -> unit

(** [patch_u32_le w pos n] overwrites 4 already-written bytes at [pos]
    (e.g. a length prefix reserved before the length was known). *)
val patch_u32_le : t -> int -> int -> unit

(** IEEE-754 binary64, little-endian bit pattern. *)
val f64_le : t -> float -> unit

(** Append raw string bytes (no length prefix). *)
val str : t -> string -> unit

(** [lstr w s] appends [varint (length s)] followed by [s] — the
    varint-length-prefixed string the payload codec uses for every
    string field, fused into a single bounds check. *)
val lstr : t -> string -> unit

val contents : t -> string
