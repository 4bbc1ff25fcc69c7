(* ------------------------------------------------------------------ *)
(* Fact base: every fact once, and each predicate's facts in a list    *)
(* ------------------------------------------------------------------ *)

(* A ground fact as an array: the predicate, then the arguments. *)
module Facts = Hashtbl.Make (struct
  type t = string array

  let equal = ( = )
  let hash = Hashtbl.hash
end)

type db = {
  members : unit Facts.t;
  by_pred : (string, string array list) Hashtbl.t; (* newest first *)
}

let rows db pred = Option.value ~default:[] (Hashtbl.find_opt db.by_pred pred)

(* Adds the fact; false when it was already there. *)
let add db fact =
  if Facts.mem db.members fact then false
  else begin
    Facts.add db.members fact ();
    Hashtbl.replace db.by_pred fact.(0) (fact :: rows db fact.(0));
    true
  end

let tuple_of_fact (a : Rule.fact) =
  let t = Array.make (List.length a.Rule.args + 1) a.Rule.pred in
  List.iteri
    (fun i -> function
      | Rule.Const s -> t.(i + 1) <- s
      | Rule.Var x ->
        invalid_arg (Printf.sprintf "Infer: non-ground fact (variable %s)" x))
    a.Rule.args;
  t

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

(* Positive body atoms are matched left to right, so which variables are
   bound at each argument is known when a rule is compiled: a variable's
   first occurrence binds its slot, later ones compare against it. *)
type arg =
  | Lit of string  (* a constant the fact's value must equal *)
  | Bind of int  (* a variable's first occurrence: store into the slot *)
  | Same of int  (* a bound variable: the fact's value must equal the slot *)

type catom = { pred : string; args : arg array }

type crule = {
  head : catom;  (* Lit and Same only *)
  pos : catom list;  (* in body order *)
  neg : catom list;  (* Lit and Same only *)
  slots : int;
}

(* [recursive] is false when no rule reads a predicate its own stratum
   derives: then one pass over the rules reaches the fixpoint. *)
type stratum = { rules : crule list; recursive : bool }
type plan = stratum list (* lowest first *)

let compile_rule (r : Rule.t) =
  let slots = Hashtbl.create 8 in
  let body_arg = function
    | Rule.Const c -> Lit c
    | Rule.Var x -> (
      match Hashtbl.find_opt slots x with
      | Some s -> Same s
      | None ->
        let s = Hashtbl.length slots in
        Hashtbl.add slots x s;
        Bind s)
  in
  let bound_arg = function
    | Rule.Const c -> Lit c
    | Rule.Var x -> (
      match Hashtbl.find_opt slots x with
      | Some s -> Same s
      | None ->
        invalid_arg
          (Printf.sprintf "Infer: variable %s not bound by a positive literal" x))
  in
  let catom arg (a : Rule.atom) =
    { pred = a.Rule.pred; args = Array.of_list (List.map arg a.Rule.args) }
  in
  (* Positives first: they assign the slots the head and negations read. *)
  let pos = List.map (catom body_arg) (Rule.positive_body r) in
  let neg = List.map (catom bound_arg) (Rule.negative_body r) in
  { head = catom bound_arg r.Rule.head; pos; neg; slots = Hashtbl.length slots }

(* stratum(head) >= stratum(positive dep); > stratum(negative dep).
   Iterate to fixpoint; a stratum exceeding the predicate count means a
   cycle through negation. *)
let stratify rules =
  let strata = Hashtbl.create 16 in
  let get p = Option.value ~default:0 (Hashtbl.find_opt strata p) in
  let n_preds =
    List.length
      (List.sort_uniq String.compare
         (List.concat_map
            (fun (r : Rule.t) ->
              r.Rule.head.Rule.pred
              :: List.map
                   (fun (a : Rule.atom) -> a.Rule.pred)
                   (Rule.positive_body r @ Rule.negative_body r))
            rules))
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Rule.t) ->
        let h = r.Rule.head.Rule.pred in
        let bump target =
          if get h < target then begin
            if target > n_preds then
              invalid_arg "Infer: rules are not stratifiable (negation cycle)";
            Hashtbl.replace strata h target;
            changed := true
          end
        in
        List.iter
          (fun (a : Rule.atom) -> bump (get a.Rule.pred))
          (Rule.positive_body r);
        List.iter
          (fun (a : Rule.atom) -> bump (get a.Rule.pred + 1))
          (Rule.negative_body r))
      rules
  done;
  (* Group rules by head stratum, ascending. *)
  let tagged =
    List.map (fun (r : Rule.t) -> (get r.Rule.head.Rule.pred, r)) rules
  in
  let max_stratum = List.fold_left (fun acc (s, _) -> max acc s) 0 tagged in
  List.init (max_stratum + 1) (fun s ->
      List.filter_map (fun (s', r) -> if s = s' then Some r else None) tagged)

let compile rules =
  List.filter_map
    (function
      | [] -> None
      | group ->
        let rules = List.map compile_rule group in
        let derives p = List.exists (fun r -> String.equal r.head.pred p) rules in
        let recursive =
          List.exists (fun r -> List.exists (fun a -> derives a.pred) r.pos) rules
        in
        Some { rules; recursive })
    (stratify rules)

(* ------------------------------------------------------------------ *)
(* Saturation                                                          *)
(* ------------------------------------------------------------------ *)

let rec match_from env args fact i =
  i = Array.length args
  ||
  let v = fact.(i + 1) in
  (match args.(i) with
  | Lit c -> String.equal c v
  | Same s -> String.equal env.(s) v
  | Bind s ->
    env.(s) <- v;
    true)
  && match_from env args fact (i + 1)

(* Does [fact] match [a] under [env]? Writes [a]'s [Bind] slots. *)
let matches env a fact =
  Array.length fact = Array.length a.args + 1 && match_from env a.args fact 0

let instantiate env a =
  let t = Array.make (Array.length a.args + 1) a.pred in
  Array.iteri
    (fun i arg ->
      t.(i + 1) <- (match arg with Lit c -> c | Same s | Bind s -> env.(s)))
    a.args;
  t

(* Derives the head instances the rule yields on [db]; true if any was
   new.  A fact added while the rule runs may be missed until the next
   pass, which a recursive stratum makes. *)
let fire db r =
  let env = Array.make r.slots "" in
  let changed = ref false in
  let rec join = function
    | [] ->
      if
        List.for_all (fun a -> not (Facts.mem db.members (instantiate env a))) r.neg
        && add db (instantiate env r.head)
      then changed := true
    | a :: rest ->
      List.iter (fun fact -> if matches env a fact then join rest) (rows db a.pred)
  in
  join r.pos;
  !changed

let run plan ~facts =
  let db = { members = Facts.create 16; by_pred = Hashtbl.create 8 } in
  List.iter (fun f -> ignore (add db (tuple_of_fact f))) facts;
  List.iter
    (fun { rules; recursive } ->
      let pass () =
        List.fold_left (fun changed r -> fire db r || changed) false rules
      in
      if recursive then while pass () do () done else ignore (pass ()))
    plan;
  db

let saturate ~rules ~facts = run (compile rules) ~facts

(* ------------------------------------------------------------------ *)
(* Reading the database                                                *)
(* ------------------------------------------------------------------ *)

let facts db =
  Facts.fold
    (fun fact () acc -> (fact.(0), List.tl (Array.to_list fact)) :: acc)
    db.members []
  |> List.sort compare
  |> List.map (fun (pred, args) -> Rule.fact pred args)
let size db = Facts.length db.members

let holds db atom =
  if not (Rule.is_ground atom) then
    invalid_arg "Infer.holds: query atom must be ground";
  Facts.mem db.members (tuple_of_fact atom)

type binding = (string * string) list

(* Match one atom against one ground fact's arguments under an
   environment; return the extended environment on success. *)
let match_atom env (atom : Rule.atom) args : binding option =
  if List.length atom.Rule.args <> List.length args then None
  else begin
    let step env term value =
      match env with
      | None -> None
      | Some env -> (
        match term with
        | Rule.Const c -> if String.equal c value then Some env else None
        | Rule.Var x -> (
          match List.assoc_opt x env with
          | Some bound -> if String.equal bound value then Some env else None
          | None -> Some ((x, value) :: env)))
    in
    List.fold_left2 step (Some env) atom.Rule.args args
  end

(* Bindings come out in descending fact order. *)
let query db pattern =
  List.fold_left
    (fun acc args ->
      match match_atom [] pattern args with None -> acc | Some env -> env :: acc)
    []
    (List.sort compare
       (List.map
          (fun fact -> List.tl (Array.to_list fact))
          (rows db pattern.Rule.pred)))

let satisfies ~rules ~facts goal = holds (saturate ~rules ~facts) goal
