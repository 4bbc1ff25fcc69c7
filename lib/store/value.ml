type t = Int of int | Text of string

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Text x, Text y -> String.equal x y
  | Int _, Text _ | Text _, Int _ -> false

let as_int = function Int n -> Some n | Text _ -> None

let pp ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Text s -> Format.fprintf ppf "%S" s

let to_string t = Format.asprintf "%a" pp t

type update = Set of t | Add of int

let apply update prev =
  match (update, prev) with
  | Set v, _ -> Some v
  | Add k, Some (Int n) -> Some (Int (n + k))
  | Add _, (Some (Text _) | None) -> None

