type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let to_string t =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f ->
      (* Round-trippable float rendering; "%.17g" writes -0. as "-0",
         which would read back as [Int 0]. *)
      Buffer.add_string buf
        (if f = 0. && Float.sign_bit f then "-0.0"
         else Printf.sprintf "%.17g" f)
    | String s -> Cloudtx_obs.Json.escape buf s
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Cloudtx_obs.Json.escape buf k;
          Buffer.add_char buf ':';
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go t;
  Buffer.contents buf

let rec same_rendering a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y
    when Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) ->
    true
  | (Int _ | Float _), (Int _ | Float _) ->
    String.equal (to_string a) (to_string b)
  | String x, String y -> String.equal x y
  | Bool x, Bool y -> x = y
  | Null, Null -> true
  | List xs, List ys -> List.equal same_rendering xs ys
  | Obj xs, Obj ys ->
    List.equal (fun (k, x) (l, y) -> String.equal k l && same_rendering x y) xs ys
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* One pass over the input by index, allocating per value and never per
   character: a string without escapes is one [String.sub], an integer
   token of an optional '-' and at most 18 digits (which cannot
   overflow) is read in place, and literals are compared in place.
   Escapes, floats and longer integers go through the stdlib conversions,
   so every input gets the tree, or the error text and offset, that a
   character-at-a-time recursive descent gives; the one exception is a
   float that is not finite, which is an error here. *)

exception Bad of string

type cursor = { s : string; len : int; mutable pos : int }

let fail c fmt =
  Printf.ksprintf
    (fun m -> raise (Bad (Printf.sprintf "%s at offset %d" m c.pos)))
    fmt

let eat c ch =
  if c.pos < c.len && String.unsafe_get c.s c.pos = ch then begin
    c.pos <- c.pos + 1;
    true
  end
  else false

let rec skip_ws c =
  if c.pos < c.len then
    match String.unsafe_get c.s c.pos with
    | ' ' | '\t' | '\n' | '\r' ->
      c.pos <- c.pos + 1;
      skip_ws c
    | _ -> ()

let expect c ch =
  if c.pos >= c.len then fail c "expected '%c', found end of input" ch
  else
    let got = String.unsafe_get c.s c.pos in
    if got = ch then c.pos <- c.pos + 1
    else fail c "expected '%c', found '%c'" ch got

(* [word]'s first character is the one the caller dispatched on. *)
let literal c word value =
  let n = String.length word in
  if c.pos + n > c.len then fail c "invalid literal";
  for i = 1 to n - 1 do
    if String.unsafe_get c.s (c.pos + i) <> String.unsafe_get word i then
      fail c "invalid literal"
  done;
  c.pos <- c.pos + n;
  value

(* The index of the first quote or backslash at or after [i], or [len]. *)
let rec plain_run s len i =
  if i >= len then len
  else
    match String.unsafe_get s i with
    | '"' | '\\' -> i
    | _ -> plain_run s len (i + 1)

(* The character a one-letter escape stands for. *)
let unescape c = function
  | ('"' | '\\' | '/') as ch -> ch
  | 'n' -> '\n'
  | 'r' -> '\r'
  | 't' -> '\t'
  | 'b' -> '\b'
  | 'f' -> '\012'
  | ch -> fail c "bad escape '\\%c'" ch

(* [c.pos] is just past the 'u'.  Codec strings are byte-oriented: a
   code below 256 becomes that byte, any other stays the text \uXXXX. *)
let unicode_escape c buf =
  if c.pos + 4 > c.len then fail c "truncated \\u escape";
  let hex = String.sub c.s c.pos 4 in
  let code =
    try int_of_string ("0x" ^ hex) with _ -> fail c "bad \\u escape"
  in
  if code < 256 then Buffer.add_char buf (Char.chr code)
  else begin
    Buffer.add_string buf "\\u";
    Buffer.add_string buf hex
  end;
  c.pos <- c.pos + 4

(* The rest of a string with escapes, from [c.pos] to the closing quote. *)
let rec escaped c buf =
  if c.pos >= c.len then fail c "unterminated string"
  else
    match String.unsafe_get c.s c.pos with
    | '"' ->
      c.pos <- c.pos + 1;
      Buffer.contents buf
    | '\\' ->
      c.pos <- c.pos + 1;
      if c.pos >= c.len then fail c "unterminated escape";
      (match String.unsafe_get c.s c.pos with
      | 'u' ->
        c.pos <- c.pos + 1;
        unicode_escape c buf
      | ch ->
        Buffer.add_char buf (unescape c ch);
        c.pos <- c.pos + 1);
      escaped c buf
    | _ ->
      let stop = plain_run c.s c.len c.pos in
      Buffer.add_substring buf c.s c.pos (stop - c.pos);
      c.pos <- stop;
      escaped c buf

(* A string's contents; [c.pos] is just past the opening quote. *)
let string_body c =
  let start = c.pos in
  let stop = plain_run c.s c.len start in
  if stop < c.len && String.unsafe_get c.s stop = '"' then begin
    c.pos <- stop + 1;
    String.sub c.s start (stop - start)
  end
  else escaped c (Buffer.create (stop - start + 16))

let is_number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

(* A number token is the longest run of number characters. *)
let number c =
  let s = c.s and start = c.pos in
  let stop = ref start in
  while !stop < c.len && is_number_char (String.unsafe_get s !stop) do
    incr stop
  done;
  let stop = !stop in
  c.pos <- stop;
  let first = if String.unsafe_get s start = '-' then start + 1 else start in
  let i = ref first and n = ref 0 in
  while !i < stop && is_digit (String.unsafe_get s !i) do
    n := (10 * !n) + Char.code (String.unsafe_get s !i) - Char.code '0';
    incr i
  done;
  if !i = stop && stop > first && stop - first <= 18 then
    Int (if first > start then - !n else !n)
  else
    let text = String.sub s start (stop - start) in
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> (
      match float_of_string_opt text with
      | Some f when Float.is_finite f -> Float f
      | Some _ -> fail c "number out of range %S" text
      | None -> fail c "bad number %S" text)

let rec value c =
  skip_ws c;
  if c.pos >= c.len then fail c "unexpected end of input"
  else
    match String.unsafe_get c.s c.pos with
    | '"' ->
      c.pos <- c.pos + 1;
      String (string_body c)
    | 't' -> literal c "true" (Bool true)
    | 'f' -> literal c "false" (Bool false)
    | 'n' -> literal c "null" Null
    | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if eat c ']' then List [] else List (items c [])
    | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if eat c '}' then Obj [] else Obj (fields c [])
    | '0' .. '9' | '-' -> number c
    | ch -> fail c "unexpected character '%c'" ch

and items c acc =
  let acc = value c :: acc in
  skip_ws c;
  if eat c ',' then items c acc
  else if eat c ']' then List.rev acc
  else fail c "expected ',' or ']'"

and fields c acc =
  skip_ws c;
  expect c '"';
  let key = string_body c in
  skip_ws c;
  expect c ':';
  let acc = (key, value c) :: acc in
  skip_ws c;
  if eat c ',' then fields c acc
  else if eat c '}' then List.rev acc
  else fail c "expected ',' or '}'"

let parse s =
  let c = { s; len = String.length s; pos = 0 } in
  match value c with
  | v ->
    skip_ws c;
    if c.pos <> c.len then
      Error (Printf.sprintf "trailing input at offset %d" c.pos)
    else Ok v
  | exception Bad m -> Error m

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> (
    match List.assoc_opt key fields with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" key))
  | _ -> Error (Printf.sprintf "expected object with field %S" key)

let to_str = function String s -> Ok s | _ -> Error "expected string"
let to_int = function Int n -> Ok n | _ -> Error "expected integer"

let to_float = function
  | Float f -> Ok f
  | Int n -> Ok (float_of_int n)
  | _ -> Error "expected number"

let to_bool = function Bool b -> Ok b | _ -> Error "expected boolean"
let to_list = function List items -> Ok items | _ -> Error "expected array"

let ( let* ) = Result.bind
