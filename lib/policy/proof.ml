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

let evaluate ~query_id ~server ~policy ~creds ~env ~at request =
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
  let denied =
    Policy.permits_all policy ~facts ~subject:request.subject
      ~action:request.action ~items:request.items
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
