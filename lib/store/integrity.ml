type lookup = string -> Value.t option

type t = { name : string; keys : string list; check : lookup -> bool }

(* The combinators below read only the keys they declare, so they build
   the record directly; [make] wraps a caller's check instead. *)
let declared ~name ~keys check = { name; keys; check }

let make ~name ~keys check =
  let scoped lookup k = if List.mem k keys then lookup k else None in
  declared ~name ~keys (fun lookup -> check (scoped lookup))

let int_at lookup key = Option.bind (lookup key) Value.as_int

let non_negative key =
  declared ~name:(Printf.sprintf "non_negative(%s)" key) ~keys:[ key ]
    (fun lookup ->
      match int_at lookup key with Some n -> n >= 0 | None -> false)

let range key ~lo ~hi =
  declared ~name:(Printf.sprintf "range(%s,%d,%d)" key lo hi) ~keys:[ key ]
    (fun lookup ->
      match int_at lookup key with Some n -> n >= lo && n <= hi | None -> false)

let sum_of lookup keys =
  List.fold_left
    (fun acc key ->
      match (acc, int_at lookup key) with
      | Some total, Some n -> Some (total + n)
      | None, _ | _, None -> None)
    (Some 0) keys

let sum_at_most keys ~bound =
  declared ~name:(Printf.sprintf "sum_at_most(%s,%d)" (String.concat "+" keys) bound)
    ~keys (fun lookup ->
      match sum_of lookup keys with Some s -> s <= bound | None -> false)

let sum_preserved keys ~total =
  declared ~name:(Printf.sprintf "sum_preserved(%s,%d)" (String.concat "+" keys) total)
    ~keys (fun lookup ->
      match sum_of lookup keys with Some s -> s = total | None -> false)

let check_all constraints lookup =
  List.filter_map
    (fun c -> if c.check lookup then None else Some c.name)
    constraints
