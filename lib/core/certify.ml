module Codec_bin = Cloudtx_protocol.Codec_bin
module Tm = Cloudtx_protocol.Tm_machine
module Ps = Cloudtx_protocol.Ps_machine
module Query = Cloudtx_txn.Query
module Transaction = Cloudtx_txn.Transaction
module Value = Cloudtx_store.Value
module Dsg = Cloudtx_obs.Dsg

type edge_kind = Wr | Ww | Rw

type edge = {
  src : string;
  dst : string;
  kind : edge_kind;
  node : string;
  key : string;
  src_seq : int;
  dst_seq : int;
}

type anomaly_kind =
  | Lost_update
  | Write_skew
  | Non_repeatable_read
  | Read_skew
  | Dirty_read
  | Serialization_cycle

type anomaly = {
  anomaly : anomaly_kind;
  txns : string list;
  cycle : edge list;
  seq_range : int * int;
  detail : string;
}

type verdict =
  | Serializable of { order : string list; si : bool }
  | Anomalous of anomaly

type report = {
  records : int;
  decode_errors : int;
  committed : string list;
  aborted : string list;
  reads_mapped : int;
  versions : int;
  edges : edge list;
  verdict : verdict;
}

let kind_name = function Wr -> "wr" | Ww -> "ww" | Rw -> "rw"

let anomaly_name = function
  | Lost_update -> "lost update"
  | Write_skew -> "write skew"
  | Non_repeatable_read -> "non-repeatable read"
  | Read_skew -> "read skew"
  | Dirty_read -> "dirty read"
  | Serialization_cycle -> "serialization cycle"

(* ------------------------------------------------------------------ *)
(* Extraction: journal records -> history events                       *)
(* ------------------------------------------------------------------ *)

(* Events the analysis walks, kept in journal order. *)
type event =
  | Read of {
      r_seq : int;
      r_node : string;
      r_txn : string;
      r_key : string;
      r_value : Value.t option;
      r_snapshot : bool;
      r_ts : float;  (* transaction start: snapshot reads map by it *)
    }
  | Buffer of {
      b_seq : int;
      b_node : string;
      b_txn : string;
      b_key : string;
      b_update : Value.update;
    }
  | Apply of {
      a_seq : int;
      a_time : float;
      a_node : string;
      a_epoch : int;
      a_txn : string;
      a_commit : bool;
      a_writes : (string * int) list;  (* [] in pre-v3 journals *)
    }
  | Settle of { s_seq : int; s_node : string; s_txn : string }
      (* Forget: workspace gone without an Apply *)

type ex = {
  tms : (string, string) Hashtbl.t;  (* TM node -> its transaction, until
                                        it finishes *)
  epochs : (string, int) Hashtbl.t;  (* PS node -> create count *)
  pending_exec : (string * string * string, bool * float) Hashtbl.t;
      (* (node, txn, query id) -> (snapshot, start ts) of an Exec whose
         result is still to come *)
  first_seq : (string, int) Hashtbl.t;  (* txn -> first appearance *)
  tm_outcome : (string, bool) Hashtbl.t;  (* TM Finish: txn -> committed *)
  mutable events : event list;  (* reversed *)
  mutable records : int;
  mutable decode_errors : int;
}

let create_ex () =
  {
    tms = Hashtbl.create 16;
    epochs = Hashtbl.create 16;
    pending_exec = Hashtbl.create 64;
    first_seq = Hashtbl.create 16;
    tm_outcome = Hashtbl.create 16;
    events = [];
    records = 0;
    decode_errors = 0;
  }

let push ex ev = ex.events <- ev :: ex.events

let note_txn ex ~seq txn =
  if not (Hashtbl.mem ex.first_seq txn) then Hashtbl.replace ex.first_seq txn seq

let epoch_of ex node = Option.value ~default:1 (Hashtbl.find_opt ex.epochs node)

(* The participant dispatches each [Exec]'s result right after it, so an
   entry is taken at its one [Exec_result]: a blocked query that is
   granted its locks later is executed by a fresh [Exec]. *)
let take_exec ex key =
  match Hashtbl.find_opt ex.pending_exec key with
  | None -> (false, 0.)
  | Some exec ->
    Hashtbl.remove ex.pending_exec key;
    exec

let on_ps_input ex ~seq ~node input =
  match input with
  | Ps.Exec_result { txn; query; result; _ } -> (
    let r_snapshot, r_ts = take_exec ex (node, txn, query.Query.id) in
    match result with
    | Ps.Executed reads ->
      note_txn ex ~seq txn;
      (* The store buffers the query's writes before computing the overlay
         reads, so the Buffer events precede the Read events of the same
         record: a read-modify-write query reads its own write. *)
      List.iter
        (fun (b_key, b_update) ->
          push ex (Buffer { b_seq = seq; b_node = node; b_txn = txn; b_key; b_update }))
        query.Query.writes;
      List.iter
        (fun (r_key, r_value) ->
          push ex
            (Read { r_seq = seq; r_node = node; r_txn = txn; r_key; r_value; r_snapshot; r_ts }))
        reads
    | Ps.Blocked | Ps.Die -> ())
  | _ -> ()

let on_ps_action ex ~seq ~time_ms ~node action =
  match action with
  | Ps.Exec { txn; ts; query; snapshot; _ } ->
    note_txn ex ~seq txn;
    Hashtbl.replace ex.pending_exec (node, txn, query.Query.id) (snapshot, ts)
  | Ps.Apply { txn; commit; writes; _ } ->
    note_txn ex ~seq txn;
    push ex
      (Apply
         {
           a_seq = seq;
           a_time = time_ms;
           a_node = node;
           a_epoch = epoch_of ex node;
           a_txn = txn;
           a_commit = commit;
           a_writes = writes;
         })
  | Ps.Forget { txn } -> push ex (Settle { s_seq = seq; s_node = node; s_txn = txn })
  | _ -> ()

let on_tm_action ex ~node ~txn action =
  match action with
  | Tm.Finish { committed; _ } ->
    Hashtbl.remove ex.tms node;
    Hashtbl.replace ex.tm_outcome txn committed
  | _ -> ()

let step ex (r : Journal_io.record) =
  let seq = r.Journal_io.seq and node = r.Journal_io.node in
  ex.records <- ex.records + 1;
  match r.Journal_io.body with
  | Journal_io.Undecodable _ -> ex.decode_errors <- ex.decode_errors + 1
  (* Driver-side resilience events: no data accesses, nothing to certify. *)
  | Journal_io.Event _ -> ()
  | Journal_io.Payload (Codec_bin.Create_tm { txn; _ }) ->
    Hashtbl.replace ex.tms node txn.Transaction.id
  | Journal_io.Payload (Codec_bin.Create_ps _) ->
    (* Repeated creates mark machine restarts: a new crash epoch. *)
    Hashtbl.replace ex.epochs node
      (match Hashtbl.find_opt ex.epochs node with Some e -> e + 1 | None -> 1)
  | Journal_io.Payload (Codec_bin.Ps_input input) -> on_ps_input ex ~seq ~node input
  | Journal_io.Payload (Codec_bin.Ps_action action) ->
    on_ps_action ex ~seq ~time_ms:r.Journal_io.time_ms ~node action
  | Journal_io.Payload (Codec_bin.Tm_action action) -> (
    match Hashtbl.find_opt ex.tms node with
    | Some txn -> on_tm_action ex ~node ~txn action
    | None -> ())
  | Journal_io.Payload (Codec_bin.Tm_input _) -> ()

(* ------------------------------------------------------------------ *)
(* Analysis: events -> version chains, read mappings, DSG              *)
(* ------------------------------------------------------------------ *)

(* One installed version of (node, key); index 0 of every chain is the
   implicit initial version (v_txn = ""). *)
type version = {
  v_txn : string;
  v_seq : int;
  v_time : float;
  v_epoch : int;
  v_version : int option;  (* machine stamp; None in pre-v3 journals *)
}

let initial = { v_txn = ""; v_seq = 0; v_time = 0.; v_epoch = 0; v_version = Some 0 }

type mapping = {
  m_txn : string;  (* the reader *)
  m_node : string;
  m_key : string;
  m_idx : int;  (* chain index of the version it observed *)
  m_seq : int;
  m_value : Value.t option;
}

(* Workspace value model: what a fold of known updates yields.  Unknown
   spreads from unjournaled bases (a key's unread initial value, a
   recovered transaction whose buffered updates predate the journal). *)
type sim = Unknown | Known of Value.t option

let sim_update u prev =
  match (u, prev) with
  | Value.Set v, _ -> Known (Some v)
  | Value.Add _, Unknown -> Unknown
  | u, Known prev -> Known (Value.apply u prev)

let opt_value_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Value.equal a b
  | _ -> false

let value_str = function
  | None -> "-"
  | Some (Value.Int n) -> string_of_int n
  | Some (Value.Text s) -> Printf.sprintf "%S" s

let kind_rank = function Wr -> 0 | Ww -> 1 | Rw -> 2

let describe_edge e =
  Printf.sprintf "%s -%s(%s@%s #%d->#%d)-> %s" e.src (kind_name e.kind) e.key
    e.node e.src_seq e.dst_seq e.dst

let analyze ex =
  let events = List.rev ex.events in
  let committed_tbl = Hashtbl.create 16 in
  let aborted_tbl = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match ev with
      | Apply { a_txn; a_commit = true; _ } -> Hashtbl.replace committed_tbl a_txn ()
      | Apply { a_txn; a_commit = false; _ } -> Hashtbl.replace aborted_tbl a_txn ()
      | _ -> ())
    events;
  Hashtbl.iter
    (fun txn committed ->
      if committed then Hashtbl.replace committed_tbl txn ()
      else Hashtbl.replace aborted_tbl txn ())
    ex.tm_outcome;
  Hashtbl.iter (fun txn () -> Hashtbl.remove aborted_tbl txn) committed_tbl;
  let is_committed txn = Hashtbl.mem committed_tbl txn in
  let first_seq txn =
    Option.value ~default:max_int (Hashtbl.find_opt ex.first_seq txn)
  in
  let txn_order a b =
    match compare (first_seq a) (first_seq b) with
    | 0 -> String.compare a b
    | c -> c
  in
  let sorted_txns tbl =
    Hashtbl.fold (fun txn () acc -> txn :: acc) tbl [] |> List.sort txn_order
  in
  let committed = sorted_txns committed_tbl in
  let aborted = sorted_txns aborted_tbl in

  (* First walk: buffered workspace updates, settle seqs, version chains. *)
  let buffered : (string * string * string, (int * Value.update) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let buffered_keys : (string * string, string list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let settled : (string * string, int) Hashtbl.t = Hashtbl.create 32 in
  let chains : (string * string, version list ref) Hashtbl.t = Hashtbl.create 32 in
  let chain_ref node key =
    match Hashtbl.find_opt chains (node, key) with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace chains (node, key) r;
      r
  in
  List.iter
    (fun ev ->
      match ev with
      | Buffer { b_seq; b_node; b_txn; b_key; b_update } ->
        let r =
          match Hashtbl.find_opt buffered (b_txn, b_node, b_key) with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.replace buffered (b_txn, b_node, b_key) r;
            r
        in
        r := (b_seq, b_update) :: !r;
        let keys =
          match Hashtbl.find_opt buffered_keys (b_txn, b_node) with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.replace buffered_keys (b_txn, b_node) r;
            r
        in
        if not (List.mem b_key !keys) then keys := !keys @ [ b_key ]
      | Apply { a_seq; a_time; a_node; a_epoch; a_txn; a_commit; a_writes } ->
        if not (Hashtbl.mem settled (a_txn, a_node)) then
          Hashtbl.replace settled (a_txn, a_node) a_seq;
        if a_commit then begin
          let keyed =
            match a_writes with
            | _ :: _ -> a_writes |> List.map (fun (k, v) -> (k, Some v))
            | [] ->
              (* Pre-v3 journal: fall back to the keys the workspace
                 buffered, in journal order. *)
              (match Hashtbl.find_opt buffered_keys (a_txn, a_node) with
              | Some keys -> List.map (fun k -> (k, None)) !keys
              | None -> [])
          in
          List.iter
            (fun (key, v_version) ->
              chain_ref a_node key :=
                {
                  v_txn = a_txn;
                  v_seq = a_seq;
                  v_time = a_time;
                  v_epoch = a_epoch;
                  v_version;
                }
                :: !(chain_ref a_node key))
            keyed
        end
      | Settle { s_seq; s_node; s_txn } ->
        if not (Hashtbl.mem settled (s_txn, s_node)) then
          Hashtbl.replace settled (s_txn, s_node) s_seq
      | Read _ -> ())
    events;

  (* Finalize chains: order by (epoch, machine version stamp) — falling
     back to journal order where stamps are absent — then collapse
     consecutive same-installer entries (a decision re-delivered across a
     crash epoch re-applies the same commit) and prepend the implicit
     initial version. *)
  let chain_keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) chains [] |> List.sort compare
  in
  let finalized = Hashtbl.create 32 in
  List.iter
    (fun (node, key) ->
      let entries = List.rev !(Hashtbl.find (chains : _ Hashtbl.t) (node, key)) in
      let indexed = List.mapi (fun i e -> (i, e)) entries in
      let sort_key (i, e) =
        match e.v_version with
        | Some v -> (e.v_epoch, 0, v, i)
        | None -> (e.v_epoch, 1, i, i)
      in
      let sorted =
        List.stable_sort (fun a b -> compare (sort_key a) (sort_key b)) indexed
        |> List.map snd
      in
      let collapsed =
        List.fold_left
          (fun acc e ->
            match acc with
            | prev :: _ when String.equal prev.v_txn e.v_txn -> acc
            | _ -> e :: acc)
          [] sorted
        |> List.rev
      in
      Hashtbl.replace finalized (node, key) (Array.of_list (initial :: collapsed)))
    chain_keys;
  let chain node key =
    match Hashtbl.find_opt finalized (node, key) with
    | Some c -> c
    | None -> [| initial |]
  in
  let versions =
    List.fold_left
      (fun acc k -> acc + Array.length (Hashtbl.find finalized k) - 1)
      0 chain_keys
  in

  (* Workspace folds for the value-level checks. *)
  let updates_before txn node key ~seq =
    match Hashtbl.find_opt buffered (txn, node, key) with
    | None -> []
    | Some r -> List.rev !r |> List.filter (fun (s, _) -> s <= seq)
  in
  let learned : (string * string * int, Value.t option) Hashtbl.t =
    Hashtbl.create 32
  in
  (* Simulated committed value at chain index [idx]: fold each installer's
     known updates over the previous version, seeded by learned initial
     values (the store's opening state is not journaled — the first clean
     read of a version teaches us its value). *)
  let chain_value node key ~idx =
    let c = chain node key in
    let rec go i acc =
      if i > idx then acc
      else
        let acc =
          match Hashtbl.find_opt learned (node, key, i) with
          | Some v -> Known v
          | None ->
            if i = 0 then acc
            else begin
              let e = c.(i) in
              match updates_before e.v_txn node key ~seq:e.v_seq with
              | [] -> Unknown
              | updates ->
                List.fold_left (fun acc (_, u) -> sim_update u acc) acc updates
            end
        in
        go (i + 1) acc
    in
    go 0 Unknown
  in

  (* Second walk: map each committed transaction's external reads to the
     version it observed; check observed values against the simulation
     and attribute divergences to uncommitted workspaces (dirty reads). *)
  let mappings = ref [] in
  let dirty = ref [] in
  let reads_mapped = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | Read { r_seq; r_node; r_txn; r_key; r_value; r_snapshot; r_ts }
        when is_committed r_txn ->
        let own =
          updates_before r_txn r_node r_key ~seq:r_seq <> []
        in
        if not own then begin
          let c = chain r_node r_key in
          let visible i =
            if r_snapshot then c.(i).v_time <= r_ts else c.(i).v_seq < r_seq
          in
          let idx = ref 0 in
          Array.iteri (fun i _ -> if visible i then idx := i) c;
          let idx = !idx in
          incr reads_mapped;
          mappings :=
            { m_txn = r_txn; m_node = r_node; m_key = r_key; m_idx = idx;
              m_seq = r_seq; m_value = r_value }
            :: !mappings;
          match chain_value r_node r_key ~idx with
          | Unknown -> Hashtbl.replace learned (r_node, r_key, idx) r_value
          | Known expected ->
            if not (opt_value_equal expected r_value) then begin
              (* The read does not match any committed state: find the
                 uncommitted workspace it leaked from. *)
              let writers =
                Hashtbl.fold
                  (fun (txn, node, key) r acc ->
                    if
                      String.equal node r_node && String.equal key r_key
                      && not (String.equal txn r_txn)
                      && List.exists (fun (s, _) -> s < r_seq) (List.rev !r)
                      &&
                      match Hashtbl.find_opt settled (txn, node) with
                      | Some s -> s > r_seq
                      | None -> true
                    then txn :: acc
                    else acc)
                  buffered []
                |> List.sort txn_order
              in
              let attributed =
                List.find_opt
                  (fun txn ->
                    let overlay =
                      List.fold_left
                        (fun acc (_, u) -> sim_update u acc)
                        (Known expected)
                        (updates_before txn r_node r_key ~seq:r_seq)
                    in
                    match overlay with
                    | Known o -> opt_value_equal o r_value
                    | Unknown -> false)
                  writers
              in
              let mk ~txns ~lo ~detail =
                {
                  anomaly = Dirty_read;
                  txns;
                  cycle = [];
                  seq_range = (lo, r_seq);
                  detail;
                }
              in
              let a =
                match attributed with
                | Some writer ->
                  let w_seq =
                    match updates_before writer r_node r_key ~seq:r_seq with
                    | (s, _) :: _ -> s
                    | [] -> r_seq
                  in
                  mk ~txns:[ r_txn; writer ] ~lo:w_seq
                    ~detail:
                      (Printf.sprintf
                         "%s read %s=%s at #%d: the uncommitted workspace %s \
                          buffered at #%d, not the committed value %s"
                         r_txn r_key (value_str r_value) r_seq writer w_seq
                         (value_str
                            (match chain_value r_node r_key ~idx with
                            | Known v -> v
                            | Unknown -> None)))
                | None ->
                  mk ~txns:[ r_txn ] ~lo:(c.(idx).v_seq)
                    ~detail:
                      (Printf.sprintf
                         "%s read %s=%s at #%d: matches no committed version \
                          (expected %s from #%d)"
                         r_txn r_key (value_str r_value) r_seq
                         (value_str expected) c.(idx).v_seq)
              in
              dirty := a :: !dirty
            end
        end
      | _ -> ())
    events;
  let mappings = List.rev !mappings in
  let dirty = List.rev !dirty in

  (* DSG edges with seq provenance. *)
  let raw_edges = ref [] in
  let seen_edges = Hashtbl.create 64 in
  List.iter
    (fun (node, key) ->
      let c = chain node key in
      for i = 1 to Array.length c - 2 do
        raw_edges :=
          {
            src = c.(i).v_txn;
            dst = c.(i + 1).v_txn;
            kind = Ww;
            node;
            key;
            src_seq = c.(i).v_seq;
            dst_seq = c.(i + 1).v_seq;
          }
          :: !raw_edges
      done)
    chain_keys;
  List.iter
    (fun m ->
      let c = chain m.m_node m.m_key in
      let v = c.(m.m_idx) in
      if m.m_idx > 0 && not (String.equal v.v_txn m.m_txn) then
        raw_edges :=
          {
            src = v.v_txn;
            dst = m.m_txn;
            kind = Wr;
            node = m.m_node;
            key = m.m_key;
            src_seq = v.v_seq;
            dst_seq = m.m_seq;
          }
          :: !raw_edges;
      if m.m_idx + 1 < Array.length c then begin
        let succ = c.(m.m_idx + 1) in
        if not (String.equal succ.v_txn m.m_txn) then
          raw_edges :=
            {
              src = m.m_txn;
              dst = succ.v_txn;
              kind = Rw;
              node = m.m_node;
              key = m.m_key;
              src_seq = m.m_seq;
              dst_seq = succ.v_seq;
            }
            :: !raw_edges
      end)
    mappings;
  let edges =
    List.sort
      (fun a b ->
        (* By seqs first, without building tuples for the common case. *)
        match Int.compare a.src_seq b.src_seq with
        | 0 -> (
          match Int.compare a.dst_seq b.dst_seq with
          | 0 ->
            compare
              (kind_rank a.kind, a.src, a.dst, a.node, a.key)
              (kind_rank b.kind, b.src, b.dst, b.node, b.key)
          | c -> c)
        | c -> c)
      !raw_edges
    |> List.filter (fun e ->
           let id = (e.src, e.dst, kind_rank e.kind, e.node, e.key) in
           let fresh = not (Hashtbl.mem seen_edges id) in
           if fresh then Hashtbl.replace seen_edges id ();
           fresh)
  in

  (committed, aborted, versions, !reads_mapped, edges, dirty)

(* ------------------------------------------------------------------ *)
(* Decision: topological witness, minimal cycle, SI membership         *)
(* ------------------------------------------------------------------ *)

module Int_set = Set.Make (Int)

let decide ~committed ~edges ~dirty =
  match dirty with
  | a :: _ -> Anomalous a
  | [] ->
    (* Out-edges of each transaction, in edge-list order. *)
    let adj = Hashtbl.create 64 in
    List.iter
      (fun e ->
        Hashtbl.replace adj e.src
          (e :: Option.value ~default:[] (Hashtbl.find_opt adj e.src)))
      (List.rev edges);
    let out u = Option.value ~default:[] (Hashtbl.find_opt adj u) in
    let nodes = Array.of_list committed in
    let index = Hashtbl.create 16 in
    Array.iteri (fun i n -> Hashtbl.replace index n i) nodes;
    let indeg = Array.make (Array.length nodes) 0 in
    List.iter
      (fun e ->
        match Hashtbl.find_opt index e.dst with
        | Some i -> indeg.(i) <- indeg.(i) + 1
        | None -> ())
      edges;
    (* Kahn, always taking the earliest ready transaction: [committed]
       is ordered by first journal appearance, so the witness respects
       time. *)
    let ready = ref Int_set.empty in
    Array.iteri (fun i d -> if d = 0 then ready := Int_set.add i !ready) indeg;
    let taken = Array.make (Array.length nodes) false in
    let order = ref [] in
    while not (Int_set.is_empty !ready) do
      let i = Int_set.min_elt !ready in
      ready := Int_set.remove i !ready;
      taken.(i) <- true;
      order := nodes.(i) :: !order;
      List.iter
        (fun e ->
          match Hashtbl.find_opt index e.dst with
          | Some j ->
            indeg.(j) <- indeg.(j) - 1;
            if indeg.(j) = 0 then ready := Int_set.add j !ready
          | None -> ())
        (out nodes.(i))
    done;
    let stuck = List.filteri (fun i _ -> not taken.(i)) committed in
    if stuck = [] then begin
      (* Acyclic: serializable; the Fekete SI test is trivially met. *)
      Serializable { order = List.rev !order; si = true }
    end
    else begin
      (* Shortest cycle over the stuck subgraph, deterministically: BFS
         from each stuck node in order, neighbors in edge-list order. *)
      let is_stuck = Hashtbl.create 16 in
      List.iter (fun n -> Hashtbl.replace is_stuck n ()) stuck;
      let best = ref None in
      List.iter
        (fun start ->
          let parent = Hashtbl.create 16 in
          let visited = Hashtbl.create 16 in
          Hashtbl.replace visited start ();
          let q = Queue.create () in
          Queue.add start q;
          let found = ref None in
          while !found = None && not (Queue.is_empty q) do
            let u = Queue.pop q in
            List.iter
              (fun e ->
                if !found = None && Hashtbl.mem is_stuck e.dst then
                  if String.equal e.dst start then found := Some e
                  else if not (Hashtbl.mem visited e.dst) then begin
                    Hashtbl.replace visited e.dst ();
                    Hashtbl.replace parent e.dst e;
                    Queue.add e.dst q
                  end)
              (out u)
          done;
          match !found with
          | None -> ()
          | Some last ->
            let rec back u acc =
              if String.equal u start then acc
              else
                let e = Hashtbl.find parent u in
                back e.src (e :: acc)
            in
            let cycle = back last.src [] @ [ last ] in
            let better =
              match !best with
              | None -> true
              | Some b -> List.length cycle < List.length b
            in
            if better then best := Some cycle)
        stuck;
      let cycle = Option.value ~default:[] !best in
      let kinds = List.sort compare (List.map (fun e -> kind_rank e.kind) cycle) in
      let keys = List.sort_uniq String.compare (List.map (fun e -> e.key) cycle) in
      let anomaly =
        match (cycle, kinds) with
        | [ _; _ ], [ 1; 2 ] (* ww + rw *) ->
          if List.length keys = 1 then Lost_update else Serialization_cycle
        | [ _; _ ], [ 2; 2 ] (* rw + rw *) -> Write_skew
        | [ _; _ ], [ 0; 2 ] (* wr + rw *) ->
          if List.length keys = 1 then Non_repeatable_read else Read_skew
        | _ -> Serialization_cycle
      in
      let txns = List.map (fun e -> e.src) cycle in
      let seqs =
        List.concat_map (fun e -> [ e.src_seq; e.dst_seq ]) cycle
        |> List.filter (fun s -> s > 0)
      in
      let seq_range =
        match seqs with
        | [] -> (0, 0)
        | s :: rest ->
          List.fold_left (fun (lo, hi) s -> (min lo s, max hi s)) (s, s) rest
      in
      Anomalous
        {
          anomaly;
          txns;
          cycle;
          seq_range;
          detail = String.concat "; " (List.map describe_edge cycle);
        }
    end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

type t = ex

let create = create_ex

let finish ex =
  let committed, aborted, versions, reads_mapped, edges, dirty = analyze ex in
  let verdict = decide ~committed ~edges ~dirty in
  {
    records = ex.records;
    decode_errors = ex.decode_errors;
    committed;
    aborted;
    reads_mapped;
    versions;
    edges;
    verdict;
  }

let certify fold =
  Result.map finish (fold ~init:(fun _ -> create ()) (fun ex r -> step ex r; ex))

let run ~lines = certify (Journal_io.fold_lines lines)
let of_file path = certify (Journal_io.fold_file path)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let describe_anomaly a =
  let evidence =
    let lo, hi = a.seq_range in
    Printf.sprintf "seqs %d..%d" lo hi
  in
  match a.cycle with
  | [] -> Printf.sprintf "%s: %s (%s)" (anomaly_name a.anomaly) a.detail evidence
  | cycle ->
    Printf.sprintf "%s: %s (%s)" (anomaly_name a.anomaly)
      (String.concat "; " (List.map describe_edge cycle))
      evidence

let summary r =
  let base =
    Printf.sprintf "%d committed / %d aborted, %d versions, %d edges"
      (List.length r.committed) (List.length r.aborted) r.versions
      (List.length r.edges)
  in
  match r.verdict with
  | Serializable { order; si } ->
    Printf.sprintf "%s: serializable%s%s" base
      (if si then " (si ok)" else " (si violated)")
      (match order with
      | [] -> ""
      | order -> ", witness " ^ String.concat "<" order)
  | Anomalous a ->
    Printf.sprintf "%s: ANOMALY %s [%s], seqs %d..%d" base
      (anomaly_name a.anomaly)
      (String.concat " " a.txns)
      (fst a.seq_range) (snd a.seq_range)

let to_dsg r =
  let in_cycle =
    match r.verdict with
    | Anomalous { cycle; txns; _ } -> (cycle, txns)
    | Serializable _ -> ([], [])
  in
  let cycle_edges, cycle_txns = in_cycle in
  let nodes =
    List.map
      (fun txn ->
        let attrs = [ ("shape", "box") ] in
        let attrs =
          if List.mem txn cycle_txns then
            attrs @ [ ("color", "red"); ("penwidth", "2") ]
          else attrs
        in
        { Dsg.id = txn; attrs })
      r.committed
  in
  let same_edge a b =
    String.equal a.src b.src && String.equal a.dst b.dst && a.kind = b.kind
    && String.equal a.node b.node && String.equal a.key b.key
  in
  let edges =
    List.map
      (fun e ->
        let label =
          Printf.sprintf "%s %s@%s #%d->#%d" (kind_name e.kind) e.key e.node
            e.src_seq e.dst_seq
        in
        let attrs =
          [ ("kind", kind_name e.kind); ("key", e.key); ("node", e.node) ]
        in
        let attrs =
          if List.exists (same_edge e) cycle_edges then
            attrs @ [ ("color", "red"); ("penwidth", "2") ]
          else attrs
        in
        { Dsg.src = e.src; dst = e.dst; label; attrs })
      r.edges
  in
  Dsg.create ~nodes ~edges
