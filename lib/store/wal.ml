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
  | Checkpoint of { active : string list }

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
  | Checkpoint _ -> "checkpoint"

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

let truncate_after t lsn =
  t.entries <- List.filter (fun e -> e.lsn <= lsn) t.entries

let txn_of = function
  | Begin_txn { txn } | Decision { txn; _ } | End_txn { txn } -> txn
  | Prepared { txn; _ } -> txn
  | Checkpoint _ -> ""

let checkpoint t ~time ~active = append t ~time ~forced:true (Checkpoint { active })

let truncate_to_checkpoint t =
  (* Find the newest checkpoint (entries are stored newest first). *)
  let rec find = function
    | [] -> None
    | e :: rest -> (
      match e.record with
      | Checkpoint { active } -> Some (e.lsn, active)
      | Begin_txn _ | Prepared _ | Decision _ | End_txn _ -> find rest)
  in
  match find t.entries with
  | None -> 0
  | Some (ck_lsn, active) ->
    let before = List.length t.entries in
    t.entries <-
      List.filter
        (fun e ->
          e.lsn >= ck_lsn || List.mem (txn_of e.record) active)
        t.entries;
    before - List.length t.entries

(* ------------------------------------------------------------------ *)
(* Durable representation                                              *)
(* ------------------------------------------------------------------ *)

module Json = Cloudtx_policy.Json
open Json

(* FNV-1a 32-bit: cheap per-line integrity check.  A torn write — the
   tail of the file lost or a record cut mid-line by a crash — fails the
   checksum (or the parse) and recovery keeps the longest valid prefix,
   which is exactly the on-disk prefix the force discipline guarantees. *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xffffffff)
    s;
  !h

let value_to_json = function
  | Value.Int n -> Obj [ ("int", Int n) ]
  | Value.Text s -> Obj [ ("text", String s) ]

let value_of_json j =
  match member "int" j with
  | Ok n ->
    let* n = to_int n in
    Ok (Value.Int n)
  | Error _ ->
    let* s = Result.bind (member "text" j) to_str in
    Ok (Value.Text s)

let writes_to_json writes =
  List
    (List.map
       (fun (k, v) -> Obj [ ("key", String k); ("value", value_to_json v) ])
       writes)

let writes_of_json j =
  let* l = to_list j in
  List.fold_left
    (fun acc w ->
      let* acc = acc in
      let* k = Result.bind (member "key" w) to_str in
      let* v = Result.bind (member "value" w) value_of_json in
      Ok ((k, v) :: acc))
    (Ok []) l
  |> Result.map List.rev

let record_to_json r =
  let tag = String (record_tag r) in
  match r with
  | Begin_txn { txn } -> Obj [ ("tag", tag); ("txn", String txn) ]
  | Prepared { txn; writes; integrity_vote; proof_truth; policy_versions } ->
    Obj
      [
        ("tag", tag);
        ("txn", String txn);
        ("writes", writes_to_json writes);
        ("integrity_vote", Bool integrity_vote);
        ("proof_truth", Bool proof_truth);
        ( "policy_versions",
          List
            (List.map
               (fun (d, v) -> Obj [ ("domain", String d); ("version", Int v) ])
               policy_versions) );
      ]
  | Decision { txn; commit } ->
    Obj [ ("tag", tag); ("txn", String txn); ("commit", Bool commit) ]
  | End_txn { txn } -> Obj [ ("tag", tag); ("txn", String txn) ]
  | Checkpoint { active } ->
    Obj [ ("tag", tag); ("active", List (List.map (fun a -> String a) active)) ]

let record_of_json j =
  let* tag = Result.bind (member "tag" j) to_str in
  match tag with
  | "begin" ->
    let* txn = Result.bind (member "txn" j) to_str in
    Ok (Begin_txn { txn })
  | "prepared" ->
    let* txn = Result.bind (member "txn" j) to_str in
    let* writes = Result.bind (member "writes" j) writes_of_json in
    let* integrity_vote = Result.bind (member "integrity_vote" j) to_bool in
    let* proof_truth = Result.bind (member "proof_truth" j) to_bool in
    let* versions = Result.bind (member "policy_versions" j) to_list in
    let* policy_versions =
      List.fold_left
        (fun acc v ->
          let* acc = acc in
          let* d = Result.bind (member "domain" v) to_str in
          let* n = Result.bind (member "version" v) to_int in
          Ok ((d, n) :: acc))
        (Ok []) versions
      |> Result.map List.rev
    in
    Ok (Prepared { txn; writes; integrity_vote; proof_truth; policy_versions })
  | "decision" ->
    let* txn = Result.bind (member "txn" j) to_str in
    let* commit = Result.bind (member "commit" j) to_bool in
    Ok (Decision { txn; commit })
  | "end" ->
    let* txn = Result.bind (member "txn" j) to_str in
    Ok (End_txn { txn })
  | "checkpoint" ->
    let* active = Result.bind (member "active" j) to_list in
    let* active =
      List.fold_left
        (fun acc a ->
          let* acc = acc in
          let* s = to_str a in
          Ok (s :: acc))
        (Ok []) active
      |> Result.map List.rev
    in
    Ok (Checkpoint { active })
  | other -> Error (Printf.sprintf "unknown WAL record tag %S" other)

let entry_line e =
  let payload =
    Json.to_string
      (Obj
         [
           ("lsn", Int e.lsn);
           ("time", Float e.time);
           ("forced", Bool e.forced);
           ("record", record_to_json e.record);
         ])
  in
  Printf.sprintf "%08x %s" (fnv1a payload) payload

let serialize t =
  String.concat "\n" (List.map entry_line (entries t)) ^ "\n"

let entry_of_line line =
  if String.length line < 9 || line.[8] <> ' ' then Error "malformed line"
  else
    let sum = String.sub line 0 8 in
    let payload = String.sub line 9 (String.length line - 9) in
    match int_of_string_opt ("0x" ^ sum) with
    | None -> Error "malformed checksum"
    | Some sum when sum <> fnv1a payload -> Error "checksum mismatch"
    | Some _ ->
      let* j = Json.parse payload in
      let* lsn = Result.bind (member "lsn" j) to_int in
      let* time = Result.bind (member "time" j) to_float in
      let* forced = Result.bind (member "forced" j) to_bool in
      let* record = Result.bind (member "record" j) record_of_json in
      Ok { lsn; time; forced; record }

let load data =
  let lines = String.split_on_char '\n' data in
  let t = create () in
  let dropped = ref 0 in
  let torn = ref false in
  List.iter
    (fun line ->
      if String.equal (String.trim line) "" then ()
      else if !torn then incr dropped
      else
        match entry_of_line line with
        | Ok e ->
          t.entries <- e :: t.entries;
          t.next_lsn <- max t.next_lsn (e.lsn + 1);
          if e.forced then t.forces <- t.forces + 1
        | Error _ ->
          (* First invalid line: everything from here on is the torn
             tail — keep the valid prefix only. *)
          torn := true;
          incr dropped)
    lines;
  (t, !dropped)

type state =
  [ `No_trace
  | `Active
  | `Prepared of (string * Value.t) list * (string * int) list
  | `Committed of (string * Value.t) list
  | `Aborted
  | `Finished ]

(* One transaction's analysis, advanced record by record in log order:
   its state so far, and the last prepared record's writes and versions,
   which a later decision commits. *)
type analysis = {
  mutable state : state;
  mutable prepared : (string * Value.t) list * (string * int) list;
}

let fresh () = { state = `No_trace; prepared = ([], []) }

let analyze a = function
  | Begin_txn _ -> (
    match a.state with `No_trace -> a.state <- `Active | _ -> ())
  | Prepared { writes; policy_versions; _ } ->
    a.prepared <- (writes, policy_versions);
    a.state <- `Prepared a.prepared
  | Decision { commit; _ } ->
    a.state <- (if commit then `Committed (fst a.prepared) else `Aborted)
  | End_txn _ -> a.state <- `Finished
  | Checkpoint _ -> ()

let recover_txn t ~txn =
  let a = fresh () in
  List.iter
    (fun e -> if String.equal (txn_of e.record) txn then analyze a e.record)
    (entries t);
  a.state

let recover_all t =
  let by_txn = Hashtbl.create 16 in
  let order =
    List.fold_left
      (fun order e ->
        match e.record with
        | Checkpoint _ -> order
        | r ->
          let txn = txn_of r in
          let a, order =
            match Hashtbl.find_opt by_txn txn with
            | Some a -> (a, order)
            | None ->
              let a = fresh () in
              Hashtbl.add by_txn txn a;
              (a, (txn, a) :: order)
          in
          analyze a r;
          order)
      [] (entries t)
  in
  List.rev_map (fun (txn, a) -> (txn, a.state)) order
