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

(* [pred] indexes the plan's predicate table. *)
type catom = { pred : int; args : arg array }

type crule = {
  head : catom;  (* Lit and Same only *)
  pos : catom array;  (* in body order *)
  neg : catom array;  (* Lit and Same only *)
  recursive_at : int array;
      (* the positions in [pos] whose predicate the rule's own stratum
         derives: the atoms a semi-naive round feeds the new rows *)
}

(* [recursive] is false when no rule reads a predicate its own stratum
   derives: then one pass over the rules reaches the fixpoint. *)
type stratum = { rules : crule array; recursive : bool }

type plan = {
  preds : string array;  (* every predicate a rule mentions, by index *)
  index : (string, int) Hashtbl.t;  (* and back; read-only after [compile] *)
  strata : stratum array;  (* lowest first *)
  slots : int;  (* the most variables one rule binds *)
}

let index_of plan pred =
  match Hashtbl.find plan.index pred with p -> p | exception Not_found -> -1

(* [derived p] tells whether the rule's own stratum derives [p]. *)
let compile_rule index ~derived (r : Rule.t) =
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
    {
      pred = Hashtbl.find index a.Rule.pred;
      args = Array.of_list (List.map arg a.Rule.args);
    }
  in
  (* Positives first: they assign the slots the head and negations read. *)
  let pos = Array.of_list (List.map (catom body_arg) (Rule.positive_body r)) in
  let neg = Array.of_list (List.map (catom bound_arg) (Rule.negative_body r)) in
  let head = catom bound_arg r.Rule.head in
  let recursive_at =
    List.filter
      (fun k -> derived pos.(k).pred)
      (List.init (Array.length pos) Fun.id)
  in
  ( { head; pos; neg; recursive_at = Array.of_list recursive_at },
    Hashtbl.length slots )

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
  let groups = stratify rules in
  let index = Hashtbl.create 16 in
  let intern (a : Rule.atom) =
    if not (Hashtbl.mem index a.Rule.pred) then
      Hashtbl.add index a.Rule.pred (Hashtbl.length index)
  in
  List.iter
    (fun (r : Rule.t) ->
      intern r.Rule.head;
      List.iter intern (Rule.positive_body r);
      List.iter intern (Rule.negative_body r))
    rules;
  let preds = Array.make (Hashtbl.length index) "" in
  Hashtbl.iter (fun pred p -> preds.(p) <- pred) index;
  let slots = ref 0 in
  let stratum group =
    let heads =
      List.map
        (fun (r : Rule.t) -> Hashtbl.find index r.Rule.head.Rule.pred)
        group
    in
    let derived p = List.mem p heads in
    let rules =
      List.map
        (fun r ->
          let crule, n = compile_rule index ~derived r in
          slots := max !slots n;
          crule)
        group
    in
    {
      rules = Array.of_list rules;
      recursive = List.exists (fun r -> r.recursive_at <> [||]) rules;
    }
  in
  let strata =
    List.filter_map
      (function [] -> None | group -> Some (stratum group))
      groups
  in
  { preds; index; strata = Array.of_list strata; slots = !slots }

(* ------------------------------------------------------------------ *)
(* Fact base: each predicate's rows, newest first                      *)
(* ------------------------------------------------------------------ *)

(* A row is a ground fact's arguments; its predicate is the index of the
   list that holds it.  A predicate's rows are few, so membership is a
   scan: no hash table is built per evaluation. *)
type db = {
  plan : plan;
  rows : string array list array;  (* by predicate index *)
  mutable aside : Rule.fact list;
      (* facts of predicates no rule mentions, as given, newest first;
         duplicates are dropped when read *)
  (* Join scratch, owned by this evaluation: a plan is shared. *)
  env : string array;  (* the slots of the rule being joined *)
  mutable delta : int;  (* the positive atom fed [from] up to [stop], or -1 *)
  mutable from : string array list;
  mutable stop : string array list;
}

let non_ground x =
  invalid_arg (Printf.sprintf "Infer: non-ground fact (variable %s)" x)

let rec check_ground = function
  | [] -> ()
  | Rule.Const _ :: rest -> check_ground rest
  | Rule.Var x :: _ -> non_ground x

(* Is [row] the ground argument list [args]? *)
let rec row_is row i = function
  | [] -> i = Array.length row
  | Rule.Const s :: rest ->
    i < Array.length row && String.equal row.(i) s && row_is row (i + 1) rest
  | Rule.Var _ :: _ -> false

let rec fill row i = function
  | [] -> row
  | Rule.Const s :: rest ->
    row.(i) <- s;
    fill row (i + 1) rest
  | Rule.Var x :: _ -> non_ground x

let rec has_row args = function
  | [] -> false
  | row :: rest -> row_is row 0 args || has_row args rest

(* [row_is] sees no row in a non-ground fact, so [fill] names its first
   variable. *)
let add_base db (f : Rule.fact) =
  match index_of db.plan f.Rule.pred with
  | -1 ->
    check_ground f.Rule.args;
    db.aside <- f :: db.aside
  | p ->
    let rows = db.rows.(p) in
    if not (has_row f.Rule.args rows) then
      let row = Array.make (List.length f.Rule.args) "" in
      db.rows.(p) <- fill row 0 f.Rule.args :: rows

(* ------------------------------------------------------------------ *)
(* Saturation                                                          *)
(* ------------------------------------------------------------------ *)

(* Does [row] match [args] under [env]?  Writes [args]' [Bind] slots;
   the caller has checked the arity. *)
let rec matches env args row i =
  i = Array.length args
  || (match args.(i) with
     | Lit c -> String.equal c row.(i)
     | Same s -> String.equal env.(s) row.(i)
     | Bind s ->
       env.(s) <- row.(i);
       true)
     && matches env args row (i + 1)

(* Is [row] the instance of [args] under [env]? *)
let rec is_instance env args row i =
  i = Array.length args
  || String.equal row.(i)
       (match args.(i) with Lit c -> c | Same s | Bind s -> env.(s))
     && is_instance env args row (i + 1)

let rec has_instance env args = function
  | [] -> false
  | row :: rest ->
    (Array.length row = Array.length args && is_instance env args row 0)
    || has_instance env args rest

let instantiate env args =
  let row = Array.make (Array.length args) "" in
  for i = 0 to Array.length args - 1 do
    row.(i) <- (match args.(i) with Lit c -> c | Same s | Bind s -> env.(s))
  done;
  row

let rec negated db neg i =
  i < Array.length neg
  && (has_instance db.env neg.(i).args db.rows.(neg.(i).pred)
     || negated db neg (i + 1))

(* The rule's body holds under [db.env]: adds the head's instance unless a
   negation fails or it is already there; true if it was new. *)
let derive db r =
  let p = r.head.pred in
  (not (negated db r.neg 0))
  && (not (has_instance db.env r.head.args db.rows.(p)))
  &&
  (db.rows.(p) <- instantiate db.env r.head.args :: db.rows.(p);
   true)

(* Joins [r]'s positive atoms from position [k] on and derives the head
   for every match; true if any head was new.  The atom at [db.delta]
   ranges over its rows from [db.from] down to [db.stop], every other
   atom over all of its predicate's rows as they stand when it is
   reached.  A fact added while the rule runs may be missed until the
   next round, which a recursive stratum makes. *)
let rec join db r k =
  if k = Array.length r.pos then derive db r
  else if k = db.delta then scan db r k db.from db.stop false
  else scan db r k db.rows.(r.pos.(k).pred) [] false

and scan db r k rows stop changed =
  if rows == stop then changed
  else
    match rows with
    | [] -> changed
    | row :: rest ->
      let args = r.pos.(k).args in
      let changed =
        (Array.length row = Array.length args
        && matches db.env args row 0
        && join db r (k + 1))
        || changed
      in
      scan db r k rest stop changed

let full_pass db rules =
  db.delta <- -1;
  let changed = ref false in
  for i = 0 to Array.length rules - 1 do
    if join db rules.(i) 0 then changed := true
  done;
  !changed

(* Semi-naive: after a full pass, each round joins every recursive atom
   against only the rows the previous round added, so a derivation is
   tried again only when one of its premises is new.  [prev] and [cur]
   are each predicate's rows before and after the last round. *)
let saturate_recursive db rules =
  let prev = ref (Array.copy db.rows) in
  ignore (full_pass db rules);
  let cur = ref (Array.copy db.rows) in
  while Array.exists2 ( != ) !cur !prev do
    for i = 0 to Array.length rules - 1 do
      let r = rules.(i) in
      for j = 0 to Array.length r.recursive_at - 1 do
        let k = r.recursive_at.(j) in
        let p = r.pos.(k).pred in
        if !cur.(p) != !prev.(p) then begin
          db.delta <- k;
          db.from <- !cur.(p);
          db.stop <- !prev.(p);
          ignore (join db r 0)
        end
      done
    done;
    prev := !cur;
    cur := Array.copy db.rows
  done

let run plan ~facts =
  let db =
    {
      plan;
      rows = Array.make (Array.length plan.preds) [];
      aside = [];
      env = Array.make plan.slots "";
      delta = -1;
      from = [];
      stop = [];
    }
  in
  List.iter (add_base db) facts;
  for s = 0 to Array.length plan.strata - 1 do
    let { rules; recursive } = plan.strata.(s) in
    if recursive then saturate_recursive db rules
    else ignore (full_pass db rules)
  done;
  db

let saturate ~rules ~facts = run (compile rules) ~facts

(* ------------------------------------------------------------------ *)
(* Reading the database                                                *)
(* ------------------------------------------------------------------ *)

let ground_args (f : Rule.fact) =
  List.map (function Rule.Const s -> s | Rule.Var _ -> assert false) f.Rule.args

(* Every fact as (predicate, arguments), once, ascending. *)
let tuples db =
  let acc =
    ref
      (List.map
         (fun (f : Rule.fact) -> (f.Rule.pred, ground_args f))
         db.aside)
  in
  Array.iteri
    (fun p rows ->
      List.iter
        (fun row -> acc := (db.plan.preds.(p), Array.to_list row) :: !acc)
        rows)
    db.rows;
  List.sort_uniq compare !acc

let facts db = List.map (fun (pred, args) -> Rule.fact pred args) (tuples db)
let size db = List.length (tuples db)

let holds db (atom : Rule.atom) =
  if not (Rule.is_ground atom) then
    invalid_arg "Infer.holds: query atom must be ground";
  match index_of db.plan atom.Rule.pred with
  | -1 -> List.exists (Rule.atom_equal atom) db.aside
  | p -> has_row atom.Rule.args db.rows.(p)

let rec mem3 a b c = function
  | [] -> false
  | row :: rest ->
    (Array.length row = 3
    && String.equal row.(0) a
    && String.equal row.(1) b
    && String.equal row.(2) c)
    || mem3 a b c rest

let holds3 db pred a b c =
  match index_of db.plan pred with
  | -1 -> holds db (Rule.fact pred [ a; b; c ])
  | p -> mem3 a b c db.rows.(p)

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
  let args =
    match index_of db.plan pattern.Rule.pred with
    | -1 ->
      List.filter_map
        (fun (f : Rule.fact) ->
          if String.equal f.Rule.pred pattern.Rule.pred then
            Some (ground_args f)
          else None)
        db.aside
    | p -> List.map Array.to_list db.rows.(p)
  in
  List.fold_left
    (fun acc args ->
      match match_atom [] pattern args with None -> acc | Some env -> env :: acc)
    [] (List.sort_uniq compare args)

let satisfies ~rules ~facts goal = holds (saturate ~rules ~facts) goal
