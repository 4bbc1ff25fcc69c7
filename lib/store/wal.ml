type record =
  | Begin_txn of { txn : string }
  | Prepared of {
      txn : string;
      writes : (string * Value.t) list;
      integrity_vote : bool;
      proof_truth : bool;
      policy_versions : (string * int) list;
    }
  | Decision of { txn : string; commit : bool }
  | End_txn of { txn : string }

type entry = { lsn : int; time : float; forced : bool; record : record }

type t = {
  mutable entries : entry list; (* newest first *)
  mutable next_lsn : int;
  mutable forces : int;
  mutable observer : (time:float -> forced:bool -> tag:string -> unit) option;
}

let create () = { entries = []; next_lsn = 0; forces = 0; observer = None }
let set_observer t obs = t.observer <- obs

let record_tag = function
  | Begin_txn _ -> "begin"
  | Prepared _ -> "prepared"
  | Decision _ -> "decision"
  | End_txn _ -> "end"

let append t ~time ~forced record =
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  if forced then t.forces <- t.forces + 1;
  t.entries <- { lsn; time; forced; record } :: t.entries;
  (match t.observer with
  | None -> ()
  | Some f -> f ~time ~forced ~tag:(record_tag record));
  lsn

let force_count t = t.forces
let length t = List.length t.entries
let entries t = List.rev t.entries

(* Newest first, so the unforced tail is the list's unforced prefix. *)
let crash t =
  let rec durable = function
    | e :: rest when not e.forced -> durable rest
    | kept -> kept
  in
  t.entries <- durable t.entries

let txn_of = function
  | Begin_txn { txn } | Decision { txn; _ } | End_txn { txn } -> txn
  | Prepared { txn; _ } -> txn

type state =
  [ `No_trace
  | `Active
  | `Prepared of (string * Value.t) list * (string * int) list
  | `Committed of (string * Value.t) list
  | `Aborted
  | `Finished ]

(* One transaction's analysis, advanced record by record in log order:
   its state so far, and the last prepared record's writes, versions and
   vote, which a later decision commits or a restart re-seeds. *)
type analysis = {
  mutable state : state;
  mutable prepared : (string * Value.t) list * (string * int) list;
  mutable vote : bool;
  mutable decided : bool;
}

let fresh () =
  { state = `No_trace; prepared = ([], []); vote = false; decided = false }

let analyze a = function
  | Begin_txn _ -> (
    match a.state with `No_trace -> a.state <- `Active | _ -> ())
  | Prepared { writes; integrity_vote; policy_versions; _ } ->
    a.prepared <- (writes, policy_versions);
    a.vote <- integrity_vote;
    a.state <- `Prepared a.prepared
  | Decision { commit; _ } ->
    a.state <- (if commit then `Committed (fst a.prepared) else `Aborted)
  | End_txn _ -> a.state <- `Finished

let recover_txn t ~txn =
  let a = fresh () in
  List.iter
    (fun e -> if String.equal (txn_of e.record) txn then analyze a e.record)
    (entries t);
  a.state

type recovery = {
  txns : (string * state * bool) list;
  decided : string list;
}

let recover t =
  let by_txn = Hashtbl.create 16 in
  let order = ref [] and decided = ref [] in
  List.iter
    (fun e ->
      let txn = txn_of e.record in
      let a =
        match Hashtbl.find_opt by_txn txn with
        | Some a -> a
        | None ->
          let a = fresh () in
          Hashtbl.add by_txn txn a;
          order := (txn, a) :: !order;
          a
      in
      (match e.record with
      | Decision _ when not a.decided ->
        a.decided <- true;
        decided := txn :: !decided
      | Begin_txn _ | Prepared _ | Decision _ | End_txn _ -> ());
      analyze a e.record)
    (entries t);
  {
    txns = List.rev_map (fun (txn, a) -> (txn, a.state, a.vote)) !order;
    decided = List.rev !decided;
  }
