type term = Var of string | Const of string
type atom = { pred : string; args : term list }
type fact = atom
type literal = Pos of atom | Neg of atom
type t = { head : atom; body : literal list }

let v name = Var name
let c value = Const value
let atom pred args = { pred; args }

let is_ground a = List.for_all (function Const _ -> true | Var _ -> false) a.args

let fact pred args = { pred; args = List.map (fun s -> Const s) args }

let vars_of a =
  List.filter_map (function Var x -> Some x | Const _ -> None) a.args

let rule_literals head body =
  let positive_vars =
    List.concat_map (function Pos a -> vars_of a | Neg _ -> []) body
  in
  let check_bound what vars =
    match List.filter (fun x -> not (List.mem x positive_vars)) vars with
    | [] -> ()
    | x :: _ ->
      invalid_arg
        (Printf.sprintf "Rule.rule: %s variable %s not bound in body" what x)
  in
  check_bound "head" (vars_of head);
  List.iter
    (function Neg a -> check_bound "negated" (vars_of a) | Pos _ -> ())
    body;
  { head; body }

let rule head body = rule_literals head (List.map (fun a -> Pos a) body)

let positive_body t =
  List.filter_map (function Pos a -> Some a | Neg _ -> None) t.body

let negative_body t =
  List.filter_map (function Neg a -> Some a | Pos _ -> None) t.body

let term_equal a b =
  match (a, b) with
  | Var x, Var y -> String.equal x y
  | Const x, Const y -> String.equal x y
  | Var _, Const _ | Const _, Var _ -> false

let atom_equal a b =
  String.equal a.pred b.pred
  && List.length a.args = List.length b.args
  && List.for_all2 term_equal a.args b.args

(* Constants print bare when the Datalog parser would read them back as
   the same constant; otherwise quoted. *)
let const_needs_quoting s =
  let ident_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '-'
  in
  String.length s = 0
  || (not (s.[0] >= 'a' && s.[0] <= 'z')) && s.[0] <> '_'
  || (not (String.for_all ident_char s))
  || String.equal s "not"

(* Built in a [Buffer], not through [Format]: credential signatures and
   proof-cache keys render every fact on every proof. *)
let atom_to_string a =
  let b = Buffer.create 32 in
  Buffer.add_string b a.pred;
  Buffer.add_char b '(';
  List.iteri
    (fun i term ->
      if i > 0 then Buffer.add_string b ", ";
      match term with
      | Var x -> Buffer.add_string b (String.capitalize_ascii x)
      | Const s when const_needs_quoting s ->
        Buffer.add_char b '"';
        Buffer.add_string b s;
        Buffer.add_char b '"'
      | Const s -> Buffer.add_string b s)
    a.args;
  Buffer.add_char b ')';
  Buffer.contents b

let pp_atom ppf a = Format.pp_print_string ppf (atom_to_string a)

let pp_literal ppf = function
  | Pos a -> pp_atom ppf a
  | Neg a -> Format.fprintf ppf "not %a" pp_atom a

let pp ppf r =
  match r.body with
  | [] -> Format.fprintf ppf "%a." pp_atom r.head
  | body ->
    Format.fprintf ppf "%a :- %a." pp_atom r.head
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         pp_literal)
      body

let to_string r = Format.asprintf "%a" pp r
