type t = (string, Policy.t) Hashtbl.t

let create () : t = Hashtbl.create 8

let install t (p : Policy.t) =
  match Hashtbl.find_opt t p.Policy.domain with
  | Some held when held.Policy.version >= p.Policy.version -> `Stale
  | held ->
    (* Superseded versions stay reachable (the administrator's history,
       messages in flight); without this each would keep its plan. *)
    Option.iter Policy.forget_plan held;
    Hashtbl.replace t p.Policy.domain p;
    `Installed

let get t ~domain = Hashtbl.find_opt t domain
let version t ~domain = Option.map (fun p -> p.Policy.version) (get t ~domain)

let domains t =
  Hashtbl.fold (fun d _ acc -> d :: acc) t [] |> List.sort String.compare
