type id = string

type kind =
  | Attribute
  | Access of { action : string; item : string }

type check = Unchecked | Signed | Forged

type t = {
  id : id;
  subject : string;
  issuer : string;
  kind : kind;
  facts : Rule.fact list;
  issued_at : float;
  expires_at : float;
  signature : string;
  mutable check : check;
}

let payload ~id ~subject ~issuer ~kind ~facts ~issued_at ~expires_at =
  let kind_tag =
    match kind with
    | Attribute -> "attr"
    | Access { action; item } -> Printf.sprintf "access:%s:%s" action item
  in
  let fact_tags = List.map Rule.atom_to_string facts in
  String.concat "|"
    (id :: subject :: issuer :: kind_tag
     :: string_of_float issued_at :: string_of_float expires_at :: fact_tags)

(* Simulated signature: issuer-keyed digest of the payload. *)
let sign ~issuer body = Digest.to_hex (Digest.string (issuer ^ "##" ^ body))

let make ~id ~subject ~issuer ~kind ~facts ~issued_at ~expires_at =
  if expires_at <= issued_at then
    invalid_arg "Credential.make: expires_at must follow issued_at";
  List.iter
    (fun f ->
      if not (Rule.is_ground f) then
        invalid_arg "Credential.make: facts must be ground")
    facts;
  let body = payload ~id ~subject ~issuer ~kind ~facts ~issued_at ~expires_at in
  { id; subject; issuer; kind; facts; issued_at; expires_at;
    signature = sign ~issuer body; check = Unchecked }

let forge t ~facts = { t with facts; check = Unchecked }

let of_wire ~id ~subject ~issuer ~kind ~facts ~issued_at ~expires_at ~signature =
  if expires_at <= issued_at then
    invalid_arg "Credential.of_wire: expires_at must follow issued_at";
  { id; subject; issuer; kind; facts; issued_at; expires_at; signature;
    check = Unchecked }

(* The other fields never change, so neither does the verdict: render the
   payload and digest it once per value. *)
let signature_valid t =
  match t.check with
  | Signed -> true
  | Forged -> false
  | Unchecked ->
    let body =
      payload ~id:t.id ~subject:t.subject ~issuer:t.issuer ~kind:t.kind
        ~facts:t.facts ~issued_at:t.issued_at ~expires_at:t.expires_at
    in
    let valid = String.equal t.signature (sign ~issuer:t.issuer body) in
    t.check <- (if valid then Signed else Forged);
    valid

type syntactic_failure = Not_yet_valid | Expired | Bad_signature

let syntactically_valid t ~at =
  if not (signature_valid t) then Error Bad_signature
  else if at < t.issued_at then Error Not_yet_valid
  else if at >= t.expires_at then Error Expired
  else Ok ()

let pp ppf t =
  Format.fprintf ppf "credential %s: subject=%s issuer=%s [%g, %g)" t.id
    t.subject t.issuer t.issued_at t.expires_at
