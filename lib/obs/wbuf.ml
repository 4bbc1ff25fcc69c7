(* Allocation-lean byte writer for the binary journal hot path.

   [Buffer.t] pays a cross-module call and a resize check per byte, and
   extracting bytes for checksumming forces a [Buffer.contents] copy.
   This writer exposes its backing [Bytes.t] directly, so the journal
   frames a record (length prefix, FNV-1a checksum) with zero
   intermediate strings: one reserve, unsafe stores, and a single final
   blit into the entry. *)

type t = { mutable bytes : Bytes.t; mutable pos : int }

(* Unaligned 64-bit store; bounds are the caller's problem ([reserve]).
   Unlike [Bytes.set_int64_le] this lets the compiler keep the
   [Int64.bits_of_float] intermediate unboxed. *)
external unsafe_set_64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create n = { bytes = Bytes.create (max 16 n); pos = 0 }
let clear w = w.pos <- 0
let length w = w.pos
let unsafe_bytes w = w.bytes

let grow w needed =
  let cap = ref (max 16 (2 * Bytes.length w.bytes)) in
  while !cap < w.pos + needed do
    cap := 2 * !cap
  done;
  let b = Bytes.create !cap in
  Bytes.blit w.bytes 0 b 0 w.pos;
  w.bytes <- b

let[@inline] reserve w n =
  if w.pos + n > Bytes.length w.bytes then grow w n

let[@inline] u8 w n =
  reserve w 1;
  Bytes.unsafe_set w.bytes w.pos (Char.unsafe_chr (n land 0xff));
  w.pos <- w.pos + 1

let[@inline] char w c =
  reserve w 1;
  Bytes.unsafe_set w.bytes w.pos c;
  w.pos <- w.pos + 1

(* Unsigned LEB128; a 63-bit int needs at most 9 bytes. *)
let varint w n =
  reserve w 9;
  let b = w.bytes in
  let pos = ref w.pos and n = ref n in
  let continue = ref true in
  while !continue do
    let byte = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Bytes.unsafe_set b !pos (Char.unsafe_chr byte);
      continue := false
    end
    else Bytes.unsafe_set b !pos (Char.unsafe_chr (byte lor 0x80));
    incr pos
  done;
  w.pos <- !pos

let[@inline] set_u32_le_raw b pos n =
  Bytes.unsafe_set b pos (Char.unsafe_chr (n land 0xff));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr ((n lsr 8) land 0xff));
  Bytes.unsafe_set b (pos + 2) (Char.unsafe_chr ((n lsr 16) land 0xff));
  Bytes.unsafe_set b (pos + 3) (Char.unsafe_chr ((n lsr 24) land 0xff))

let u32_le w n =
  reserve w 4;
  set_u32_le_raw w.bytes w.pos n;
  w.pos <- w.pos + 4

(* Patch an already-written span (e.g. a length prefix reserved before
   the length was known). *)
let patch_u32_le w pos n =
  if pos < 0 || pos + 4 > w.pos then invalid_arg "Wbuf.patch_u32_le";
  set_u32_le_raw w.bytes pos n

let[@inline] f64_le w f =
  reserve w 8;
  unsafe_set_64 w.bytes w.pos (Int64.bits_of_float f);
  w.pos <- w.pos + 8

let str w s =
  let len = String.length s in
  reserve w len;
  let b = w.bytes and pos = w.pos in
  (* Short strings (field names, node ids) are the common case; a byte
     loop beats the blit's call overhead there. *)
  if len <= 12 then
    for i = 0 to len - 1 do
      Bytes.unsafe_set b (pos + i) (String.unsafe_get s i)
    done
  else Bytes.blit_string s 0 b pos len;
  w.pos <- pos + len

(* Varint-length-prefixed string in one reserve — the hottest shape in
   the payload codec (ids, keys, node names), almost always < 128 bytes
   so the length is a single byte. *)
let lstr w s =
  let len = String.length s in
  if len < 0x80 then begin
    reserve w (len + 1);
    let b = w.bytes and pos = w.pos in
    Bytes.unsafe_set b pos (Char.unsafe_chr len);
    if len <= 12 then
      for i = 0 to len - 1 do
        Bytes.unsafe_set b (pos + 1 + i) (String.unsafe_get s i)
      done
    else Bytes.blit_string s 0 b (pos + 1) len;
    w.pos <- pos + len + 1
  end
  else begin
    varint w len;
    str w s
  end

let contents w = Bytes.sub_string w.bytes 0 w.pos
