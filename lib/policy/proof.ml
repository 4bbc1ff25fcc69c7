type request = { subject : string; action : string; items : string list }

type env = {
  find_ca : string -> Ca.t option;
  trusted_server : string -> bool;
  context : unit -> Rule.fact list;
}

type failure =
  | Syntactic of Credential.id * Credential.syntactic_failure
  | Revoked of Credential.id
  | Untrusted_issuer of Credential.id
  | Denied of string

type t = {
  query_id : string;
  server : string;
  domain : string;
  policy_version : Policy.version;
  evaluated_at : float;
  credential_ids : Credential.id list;
  request : request;
  result : bool;
  failures : failure list;
}

(* Validate one credential; on success return the facts it contributes. *)
let vet env ~at (cred : Credential.t) : (Rule.fact list, failure) result =
  match Credential.syntactically_valid cred ~at with
  | Error why -> Error (Syntactic (cred.Credential.id, why))
  | Ok () -> (
    match (env.find_ca cred.Credential.issuer, cred.Credential.kind) with
    | Some ca, _ ->
      if Ca.semantically_valid ca cred ~at then Ok cred.Credential.facts
      else Error (Revoked cred.Credential.id)
    | None, Credential.Access { action; item } ->
      if env.trusted_server cred.Credential.issuer then
        Ok
          (Policy.capability_fact ~subject:cred.Credential.subject ~action
             ~item
          :: cred.Credential.facts)
      else Error (Untrusted_issuer cred.Credential.id)
    | None, Credential.Attribute -> Error (Untrusted_issuer cred.Credential.id))

(* The facts of the credentials in [creds] that pass [vet], in order,
   ahead of [tail]; the failures of the others go to [failed], newest
   first. *)
let rec vet_all env ~at failed tail = function
  | [] -> tail
  | cred :: rest -> (
    match vet env ~at cred with
    | Error f ->
      failed := f :: !failed;
      vet_all env ~at failed tail rest
    | Ok claims -> (
      match vet_all env ~at failed tail rest with
      | [] -> claims
      | facts -> claims @ facts))

let request_fact pred value = { Rule.pred; args = [ Rule.Const value ] }

(* The memo's key is everything the inference step reads: the policy's
   identity and the fact base, sorted so that the order credentials come
   in does not matter. *)
type key = {
  domain : string;
  version : Policy.version;
  accept_capabilities : bool;
  facts : Rule.fact list;
}

(* Keyed by a hash of the whole key; the entry keeps its key, so a hit is
   checked in full. *)
type cache = (int, key * string list) Hashtbl.t

let cache () = Hashtbl.create 64

let mix h x = (h * 0x100000001b3) lxor x

let hash_string h s =
  let h = ref (mix h (String.length s)) in
  for i = 0 to String.length s - 1 do
    h := mix !h (Char.code (String.unsafe_get s i))
  done;
  !h

let hash_term h = function
  | Rule.Const c -> hash_string (mix h 1) c
  | Rule.Var v -> hash_string (mix h 2) v

let hash_fact h (f : Rule.fact) =
  List.fold_left hash_term (hash_string h f.Rule.pred) f.Rule.args

let hash_key k =
  List.fold_left hash_fact
    (mix
       (mix (hash_string 0 k.domain) k.version)
       (Bool.to_int k.accept_capabilities))
    k.facts

let compare_term a b =
  match (a, b) with
  | Rule.Const x, Rule.Const y | Rule.Var x, Rule.Var y -> String.compare x y
  | Rule.Const _, Rule.Var _ -> -1
  | Rule.Var _, Rule.Const _ -> 1

let compare_fact (a : Rule.fact) (b : Rule.fact) =
  match String.compare a.Rule.pred b.Rule.pred with
  | 0 -> List.compare compare_term a.Rule.args b.Rule.args
  | c -> c

let same_key a b =
  a.version = b.version
  && a.accept_capabilities = b.accept_capabilities
  && String.equal a.domain b.domain
  && List.equal Rule.atom_equal a.facts b.facts

(* [denied] as the request lists its items: a key does not see their
   order. *)
let in_request_order request = function
  | [] -> []
  | denied -> List.filter (fun item -> List.mem item denied) request.items

let evaluate ?cache ~query_id ~server ~policy ~creds ~env ~at request =
  let failed = ref [] in
  let claims = vet_all env ~at failed [] creds in
  (* Facts describing the request itself, so range-restricted rules can
     bind their head variables: permit(S,A,I) :- role(S, clerk),
     req_action(A), req_item(I). *)
  let facts =
    request_fact "req_subject" request.subject
    :: request_fact "req_action" request.action
    :: List.fold_right
         (fun item facts -> request_fact "req_item" item :: facts)
         request.items
         (env.context () @ claims)
  in
  let saturate_and_check () =
    Policy.permits_all policy ~facts ~subject:request.subject
      ~action:request.action ~items:request.items
  in
  let denied =
    match cache with
    | None -> saturate_and_check ()
    | Some table -> (
      let key =
        {
          domain = policy.Policy.domain;
          version = policy.Policy.version;
          accept_capabilities = policy.Policy.accept_capabilities;
          facts = List.sort compare_fact facts;
        }
      in
      let h = hash_key key in
      match Hashtbl.find table h with
      | k, denied when same_key k key -> in_request_order request denied
      | _ -> saturate_and_check ()
      | exception Not_found ->
        let denied = saturate_and_check () in
        Hashtbl.add table h (key, denied);
        denied)
  in
  let failures =
    List.rev_append !failed (List.map (fun item -> Denied item) denied)
  in
  (* The proof is valid only when every credential passed and every item is
     permitted: a transaction built on a partly-invalid credential set must
     not count as trusted. *)
  let result = failures = [] in
  {
    query_id;
    server;
    domain = policy.Policy.domain;
    policy_version = policy.Policy.version;
    evaluated_at = at;
    credential_ids = List.map (fun c -> c.Credential.id) creds;
    request;
    result;
    failures;
  }

let pp ppf t =
  Format.fprintf ppf "proof[%s@%s %s v%d t=%g %s]" t.query_id t.server t.domain
    t.policy_version t.evaluated_at
    (if t.result then "TRUE" else "FALSE")
