module Cluster = Cloudtx_core.Cluster
module Participant = Cloudtx_core.Participant
module Transaction = Cloudtx_txn.Transaction
module Query = Cloudtx_txn.Query
module Splitmix = Cloudtx_sim.Splitmix
module Value = Cloudtx_store.Value
module Integrity = Cloudtx_store.Integrity
module Server = Cloudtx_store.Server
module Rule = Cloudtx_policy.Rule
module Datalog = Cloudtx_policy.Datalog
module Ca = Cloudtx_policy.Ca
module Credential = Cloudtx_policy.Credential

type t = {
  cluster : Cluster.t;
  domain : string;
  branches : string list;
  accounts_of : string -> string list;
  customers : string list;
  tellers : string list;
  auditors : string list;
  credentials_of : string -> Credential.t list;
  owner_of : string -> string;
  ca : Ca.t;
}

(* Customers move their own funds and may deposit into any account;
   tellers move anyone's; auditors read only.  Authored in the concrete
   policy syntax (which also exercises the Datalog parser on the main
   code path). *)
let bank_rules =
  let program =
    {|% the bank's access policy
      permit(S, A, I) :- role(S, customer), owns(S, I),
                         req_action(A), req_item(I).
      permit(S, deposit, I) :- role(S, customer), req_item(I).
      permit(S, A, I) :- role(S, teller), req_action(A), req_item(I).
      permit(S, read, I) :- role(S, auditor), req_item(I).|}
  in
  match Datalog.parse_program program with
  | Ok rules -> rules
  | Error m -> invalid_arg ("Banking.bank_rules: " ^ m)

let branch_name b = Printf.sprintf "branch-%d" (b + 1)
let account_name b j = Printf.sprintf "acct-%d-%d" (b + 1) (j + 1)

let build ?(seed = 19L) ?(latency = Cloudtx_sim.Latency.lan) ?(n_branches = 3)
    ?(accounts_per_branch = 6) () =
  let n_customers = 3 and opening_balance = 100 in
  let domain = "bank" in
  let ca = Ca.create "bank-ca" in
  let accounts b = List.init accounts_per_branch (account_name b) in
  let specs =
    List.init n_branches (fun b ->
        let items =
          List.map (fun a -> (a, Value.Int opening_balance)) (accounts b)
        in
        let constraints = List.map Integrity.non_negative (accounts b) in
        Cluster.server_spec ~name:(branch_name b) ~constraints ~items ())
  in
  let cluster =
    Cluster.create ~seed ~latency ~cas:[ ca ] ~servers:specs
      ~domains:[ (domain, bank_rules) ]
      ()
  in
  let customers = List.init n_customers (fun i -> Printf.sprintf "cust-%d" (i + 1)) in
  let tellers = [ "teller-1" ] in
  let auditors = [ "auditor-1" ] in
  let owner_of account =
    (* acct-<b>-<j> belongs to cust-((j-1) mod n_customers + 1). *)
    match String.split_on_char '-' account with
    | [ "acct"; _; j ] ->
      Printf.sprintf "cust-%d" (((int_of_string j - 1) mod n_customers) + 1)
    | _ -> invalid_arg (Printf.sprintf "Banking.owner_of: bad account %s" account)
  in
  let year = 1e12 in
  let issue subject facts =
    Ca.issue ca ~id:(subject ^ "-cred") ~subject ~facts ~now:0. ~ttl:year
  in
  let all_accounts =
    List.concat (List.init n_branches (fun b -> accounts b))
  in
  let creds = Hashtbl.create 8 in
  List.iter
    (fun subject ->
      let owned =
        List.filter (fun a -> String.equal (owner_of a) subject) all_accounts
      in
      let facts =
        Rule.fact "role" [ subject; "customer" ]
        :: List.map (fun a -> Rule.fact "owns" [ subject; a ]) owned
      in
      Hashtbl.replace creds subject [ issue subject facts ])
    customers;
  List.iter
    (fun subject ->
      Hashtbl.replace creds subject
        [ issue subject [ Rule.fact "role" [ subject; "teller" ] ] ])
    tellers;
  List.iter
    (fun subject ->
      Hashtbl.replace creds subject
        [ issue subject [ Rule.fact "role" [ subject; "auditor" ] ] ])
    auditors;
  {
    cluster;
    domain;
    branches = List.init n_branches branch_name;
    accounts_of =
      (fun branch ->
        match String.split_on_char '-' branch with
        | [ "branch"; b ] -> accounts (int_of_string b - 1)
        | _ -> invalid_arg (Printf.sprintf "Banking: unknown branch %s" branch));
    customers;
    tellers;
    auditors;
    credentials_of =
      (fun subject ->
        match Hashtbl.find_opt creds subject with
        | Some cs -> cs
        | None -> invalid_arg (Printf.sprintf "Banking: unknown subject %s" subject));
    owner_of;
    ca;
  }

let branch_of_account account =
  match String.split_on_char '-' account with
  | [ "acct"; b; _ ] -> Printf.sprintf "branch-%s" b
  | _ -> invalid_arg (Printf.sprintf "Banking: bad account %s" account)

let transfer t ~id ~by ~from_acct ~to_acct ~amount =
  if amount <= 0 then invalid_arg "Banking.transfer: amount must be positive";
  let from_branch = branch_of_account from_acct in
  let to_branch = branch_of_account to_acct in
  (* Debit (requires authority over the source account) and credit
     (authorized as a deposit), possibly at the same branch. *)
  let queries =
    [
      Query.make ~id:(id ^ "-q1") ~server:from_branch ~reads:[ from_acct ]
        ~writes:[ (from_acct, Value.Add (-amount)) ]
        ();
      Query.make ~id:(id ^ "-q2") ~server:to_branch
        ~writes:[ (to_acct, Value.Add amount) ]
        ~action:"deposit" ();
    ]
  in
  Transaction.make ~id ~subject:by ~credentials:(t.credentials_of by) queries

let audit t ~id ~by ~branch =
  Transaction.make ~id ~subject:by ~credentials:(t.credentials_of by)
    [ Query.make ~id:(id ^ "-q1") ~server:branch ~reads:(t.accounts_of branch) () ]

let random_transfer t rng ~id ~overdraft_ratio =
  let customers = Array.of_list t.customers in
  let by = Splitmix.choice rng customers in
  let all_accounts = List.concat_map t.accounts_of t.branches in
  let owned =
    Array.of_list
      (List.filter (fun a -> String.equal (t.owner_of a) by) all_accounts)
  in
  let from_acct = Splitmix.choice rng owned in
  let to_acct = Splitmix.choice rng (Array.of_list all_accounts) in
  let to_acct =
    if String.equal to_acct from_acct then List.hd all_accounts else to_acct
  in
  let amount =
    if Splitmix.bool rng ~p:overdraft_ratio then 10_000
    else 1 + Splitmix.int rng 40
  in
  transfer t ~id ~by ~from_acct ~to_acct ~amount

let balance t account =
  let branch = branch_of_account account in
  let server = Participant.server (Cluster.participant t.cluster branch) in
  Option.bind (Server.get server account) Value.as_int

let total_funds t =
  List.fold_left
    (fun acc branch ->
      let server = Participant.server (Cluster.participant t.cluster branch) in
      List.fold_left
        (fun acc account ->
          match Option.bind (Server.get server account) Value.as_int with
          | Some n -> acc + n
          | None -> acc)
        acc (t.accounts_of branch))
    0 t.branches
