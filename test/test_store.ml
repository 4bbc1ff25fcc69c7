(* Unit and property tests for the store: values, locks (wait-die),
   integrity constraints, WAL and the data server. *)

module Value = Cloudtx_store.Value
module Lock_manager = Cloudtx_store.Lock_manager
module Integrity = Cloudtx_store.Integrity
module Wal = Cloudtx_store.Wal
module Server = Cloudtx_store.Server

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let test_value () =
  Alcotest.(check bool) "int equal" true (Value.equal (Value.Int 3) (Value.Int 3));
  Alcotest.(check bool) "kind differs" false
    (Value.equal (Value.Int 3) (Value.Text "3"));
  Alcotest.(check (option int)) "as_int" (Some 3) (Value.as_int (Value.Int 3));
  Alcotest.(check (option int)) "text as_int" None (Value.as_int (Value.Text "x"));
  Alcotest.(check string) "to_string" "3" (Value.to_string (Value.Int 3))

(* ------------------------------------------------------------------ *)
(* Lock manager                                                        *)
(* ------------------------------------------------------------------ *)

let test_shared_compatible () =
  let lm = Lock_manager.create () in
  Alcotest.(check bool) "t1 S" true
    (Lock_manager.acquire lm ~txn:"t1" ~ts:1. ~key:"k" Lock_manager.Shared
    = Lock_manager.Granted);
  Alcotest.(check bool) "t2 S" true
    (Lock_manager.acquire lm ~txn:"t2" ~ts:2. ~key:"k" Lock_manager.Shared
    = Lock_manager.Granted);
  Alcotest.(check int) "two holders" 2 (List.length (Lock_manager.holders lm ~key:"k"))

let test_wait_die () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:"holder" ~ts:5. ~key:"k" Lock_manager.Exclusive);
  (* Older requester (smaller ts) waits. *)
  Alcotest.(check bool) "older waits" true
    (Lock_manager.acquire lm ~txn:"old" ~ts:1. ~key:"k" Lock_manager.Shared
    = Lock_manager.Queued);
  (* Younger requester dies. *)
  Alcotest.(check bool) "younger dies" true
    (Lock_manager.acquire lm ~txn:"young" ~ts:9. ~key:"k" Lock_manager.Shared
    = Lock_manager.Die);
  Alcotest.(check (list string)) "queue" [ "old" ] (Lock_manager.waiters lm ~key:"k")

let test_release_promotes () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:"holder" ~ts:5. ~key:"k" Lock_manager.Exclusive);
  ignore (Lock_manager.acquire lm ~txn:"old" ~ts:1. ~key:"k" Lock_manager.Exclusive);
  let release = Lock_manager.release_all lm ~txn:"holder" in
  Alcotest.(check int) "one promotion" 1 (List.length release.Lock_manager.granted);
  Alcotest.(check int) "no kills" 0 (List.length release.Lock_manager.killed);
  (match release.Lock_manager.granted with
  | [ (txn, key, mode) ] ->
    Alcotest.(check string) "who" "old" txn;
    Alcotest.(check string) "key" "k" key;
    Alcotest.(check bool) "mode" true (mode = Lock_manager.Exclusive)
  | _ -> Alcotest.fail "expected one promotion");
  Alcotest.(check (list (pair string Alcotest.reject))) "holder gone" []
    (List.map (fun (t, _) -> (t, ())) (Lock_manager.holders lm ~key:"k") |> List.filter (fun (t, _) -> t = "holder"))

let test_reacquire_idempotent () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:"t" ~ts:1. ~key:"k" Lock_manager.Shared);
  Alcotest.(check bool) "re-acquire S" true
    (Lock_manager.acquire lm ~txn:"t" ~ts:1. ~key:"k" Lock_manager.Shared
    = Lock_manager.Granted);
  Alcotest.(check int) "still one holder" 1
    (List.length (Lock_manager.holders lm ~key:"k"))

let test_upgrade () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:"t" ~ts:1. ~key:"k" Lock_manager.Shared);
  Alcotest.(check bool) "sole holder upgrades" true
    (Lock_manager.acquire lm ~txn:"t" ~ts:1. ~key:"k" Lock_manager.Exclusive
    = Lock_manager.Granted);
  (* With another Shared holder, an older upgrader queues. *)
  let lm2 = Lock_manager.create () in
  ignore (Lock_manager.acquire lm2 ~txn:"a" ~ts:1. ~key:"k" Lock_manager.Shared);
  ignore (Lock_manager.acquire lm2 ~txn:"b" ~ts:2. ~key:"k" Lock_manager.Shared);
  Alcotest.(check bool) "upgrade blocked" true
    (Lock_manager.acquire lm2 ~txn:"a" ~ts:1. ~key:"k" Lock_manager.Exclusive
    = Lock_manager.Queued);
  (* Releasing b grants a's queued upgrade. *)
  let release = Lock_manager.release_all lm2 ~txn:"b" in
  Alcotest.(check bool) "upgrade granted on release" true
    (List.exists
       (fun (t, _, m) -> t = "a" && m = Lock_manager.Exclusive)
       release.Lock_manager.granted)

let test_promotion_reapplies_wait_die () =
  (* holder young(10) on k; old(1) and mid(5) queue (both older than 10).
     When young releases, old becomes the holder; mid is now YOUNGER than
     the holder — keeping it queued would be a young-waits-for-old edge
     (the distributed-deadlock hole), so it must die at promotion. *)
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:"young" ~ts:10. ~key:"k" Lock_manager.Exclusive);
  Alcotest.(check bool) "old queues" true
    (Lock_manager.acquire lm ~txn:"old" ~ts:1. ~key:"k" Lock_manager.Exclusive
    = Lock_manager.Queued);
  Alcotest.(check bool) "mid queues" true
    (Lock_manager.acquire lm ~txn:"mid" ~ts:5. ~key:"k" Lock_manager.Exclusive
    = Lock_manager.Queued);
  let release = Lock_manager.release_all lm ~txn:"young" in
  Alcotest.(check bool) "old granted" true
    (List.exists (fun (t, _, _) -> t = "old") release.Lock_manager.granted);
  Alcotest.(check bool) "mid killed" true
    (List.exists (fun (t, _) -> t = "mid") release.Lock_manager.killed);
  Alcotest.(check (list string)) "queue empty" [] (Lock_manager.waiters lm ~key:"k")

let test_held_by_and_clear () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:"t" ~ts:1. ~key:"a" Lock_manager.Shared);
  ignore (Lock_manager.acquire lm ~txn:"t" ~ts:1. ~key:"b" Lock_manager.Exclusive);
  Alcotest.(check (list string)) "held" [ "a"; "b" ] (Lock_manager.held_by lm ~txn:"t");
  Lock_manager.clear lm;
  Alcotest.(check (list string)) "cleared" [] (Lock_manager.held_by lm ~txn:"t")

let prop_wait_die_no_deadlock =
  (* Random lock workloads: every request resolves to Granted/Queued/Die,
     and a queued transaction is always strictly older than some holder,
     so the waits-for relation only points old->young: no cycles. *)
  QCheck.Test.make ~name:"wait-die admits no old->young waits" ~count:200
    QCheck.(
      list_of_size Gen.(1 -- 40)
        (triple (int_range 0 5) (int_range 0 4) bool))
    (fun ops ->
      let lm = Lock_manager.create () in
      List.for_all
        (fun (txn_i, key_i, exclusive) ->
          let txn = Printf.sprintf "t%d" txn_i in
          let ts = float_of_int txn_i in
          let key = Printf.sprintf "k%d" key_i in
          let mode =
            if exclusive then Lock_manager.Exclusive else Lock_manager.Shared
          in
          match Lock_manager.acquire lm ~txn ~ts ~key mode with
          | Lock_manager.Granted | Lock_manager.Die -> true
          | Lock_manager.Queued ->
            (* Queued implies strictly older than every conflicting holder. *)
            List.for_all
              (fun (holder, _) ->
                String.equal holder txn
                || ts < float_of_string (String.sub holder 1 (String.length holder - 1)))
              (Lock_manager.holders lm ~key))
        ops)

(* ------------------------------------------------------------------ *)
(* Release order = the full-scan lock manager's                        *)
(* ------------------------------------------------------------------ *)

(* The reference: the lock manager as it was when a release walked the
   whole table with [Hashtbl.iter], verbatim.  The promotions and kills
   a release returns go back to the participants in this order, so a
   release that visits only the transaction's own states must visit
   them in the table's iteration order. *)
module Full_scan = struct
  type mode = Shared | Exclusive

  type request = { txn : string; ts : float; mode : mode }

  type lock_state = {
    mutable holders : request list; (* all Shared, or a single Exclusive *)
    mutable queue : request list; (* oldest-ts first *)
  }

  type outcome = Granted | Queued | Die

  type observer = {
    on_acquire : txn:string -> key:string -> mode:mode -> outcome:outcome -> unit;
    on_promoted : txn:string -> key:string -> mode:mode -> unit;
    on_killed : txn:string -> key:string -> unit;
  }

  type t = {
    table : (string, lock_state) Hashtbl.t;
    mutable observer : observer option;
  }

  let create () = { table = Hashtbl.create 64; observer = None }
  let set_observer t obs = t.observer <- obs

  let state t key =
    match Hashtbl.find_opt t.table key with
    | Some s -> s
    | None ->
      let s = { holders = []; queue = [] } in
      Hashtbl.add t.table key s;
      s

  let compatible requested holders =
    match requested with
    | Shared -> List.for_all (fun r -> r.mode = Shared) holders
    | Exclusive -> holders = []

  let insert_by_ts req queue =
    let rec go = function
      | [] -> [ req ]
      | r :: rest when r.ts <= req.ts -> r :: go rest
      | rest -> req :: rest
    in
    go queue

  (* Wait-die: the requester may wait only if it is older (strictly smaller
     timestamp) than every conflicting holder; equal or younger dies.  Equal
     timestamps die to break symmetry deterministically. *)
  let wait_die requester holders =
    if List.for_all (fun h -> requester.ts < h.ts) holders then Queued else Die

  let acquire_locked t ~txn ~ts ~key mode =
    let s = state t key in
    let mine, others = List.partition (fun r -> String.equal r.txn txn) s.holders in
    match (mine, mode) with
    | [ held ], Shared ->
      ignore held;
      Granted
    | [ held ], Exclusive ->
      if held.mode = Exclusive then Granted
      else if others = [] then begin
        (* Upgrade: sole Shared holder becomes Exclusive. *)
        s.holders <- [ { held with mode = Exclusive } ];
        Granted
      end
      else begin
        let req = { txn; ts; mode } in
        match wait_die req others with
        | Queued ->
          s.queue <- insert_by_ts req s.queue;
          Queued
        | other -> other
      end
    | [], _ ->
      let req = { txn; ts; mode } in
      if compatible mode s.holders && s.queue = [] then begin
        s.holders <- req :: s.holders;
        Granted
      end
      else if compatible mode s.holders
              && List.for_all (fun q -> q.ts > ts) s.queue
      then begin
        (* No conflicting holder and strictly older than every waiter: jump
           the queue rather than deadlock behind a younger upgrade. *)
        s.holders <- req :: s.holders;
        Granted
      end
      else begin
        let conflicting =
          List.filter (fun h -> not (compatible mode [ h ])) s.holders
        in
        let blockers = if conflicting = [] then s.queue else conflicting in
        match wait_die req blockers with
        | Queued ->
          s.queue <- insert_by_ts req s.queue;
          Queued
        | other -> other
      end
    | _ :: _ :: _, _ -> assert false (* one request per txn per key *)

  let acquire t ~txn ~ts ~key mode =
    let outcome = acquire_locked t ~txn ~ts ~key mode in
    (match t.observer with
    | None -> ()
    | Some obs -> obs.on_acquire ~txn ~key ~mode ~outcome);
    outcome

  type release = {
    granted : (string * string * mode) list;
    killed : (string * string) list;
  }

  (* Promote queued requests that have become compatible, respecting queue
     order (no barging past an incompatible older waiter); then re-apply
     wait-die to the survivors — a waiter younger than a conflicting current
     holder would be a young-waits-for-old edge, which admits deadlock, so
     it dies now. *)
  let promote key s granted killed =
    let rec go () =
      match s.queue with
      | [] -> ()
      | req :: rest ->
        (* Upgrade waiting in queue: holder already has Shared on this key. *)
        let own, others =
          List.partition (fun h -> String.equal h.txn req.txn) s.holders
        in
        let can_grant =
          match (own, req.mode) with
          | [ _ ], Exclusive -> others = []
          | [ _ ], Shared -> true
          | [], m -> compatible m s.holders
          | _ :: _ :: _, _ -> assert false
        in
        if can_grant then begin
          s.holders <- req :: List.filter (fun h -> not (String.equal h.txn req.txn)) s.holders;
          s.queue <- rest;
          granted := (req.txn, key, req.mode) :: !granted;
          go ()
        end
    in
    go ();
    let survives req =
      let conflicting =
        List.filter
          (fun h ->
            (not (String.equal h.txn req.txn)) && not (compatible req.mode [ h ]))
          s.holders
      in
      if List.for_all (fun h -> req.ts < h.ts) conflicting then true
      else begin
        killed := (req.txn, key) :: !killed;
        false
      end
    in
    s.queue <- List.filter survives s.queue

  let release_all t ~txn =
    let granted = ref [] in
    let killed = ref [] in
    let mine r = String.equal r.txn txn in
    let others r = not (mine r) in
    (* Key order matters: the promotions and kills go back in this order. *)
    Hashtbl.iter
      (fun key s ->
        if List.exists mine s.holders || List.exists mine s.queue then begin
          s.holders <- List.filter others s.holders;
          s.queue <- List.filter others s.queue;
          promote key s granted killed
        end)
      t.table;
    let result = { granted = List.rev !granted; killed = List.rev !killed } in
    (match t.observer with
    | None -> ()
    | Some obs ->
      List.iter
        (fun (txn, key, mode) -> obs.on_promoted ~txn ~key ~mode)
        result.granted;
      List.iter (fun (txn, key) -> obs.on_killed ~txn ~key) result.killed);
    result

  let holders t ~key =
    match Hashtbl.find_opt t.table key with
    | None -> []
    | Some s -> List.map (fun r -> (r.txn, r.mode)) s.holders

  let waiters t ~key =
    match Hashtbl.find_opt t.table key with
    | None -> []
    | Some s -> List.map (fun r -> r.txn) s.queue

  let clear t = Hashtbl.reset t.table

  let held_by t ~txn =
    Hashtbl.fold
      (fun key s acc ->
        if List.exists (fun r -> String.equal r.txn txn) s.holders then key :: acc
        else acc)
      t.table []
    |> List.sort String.compare
end

type lock_op =
  | Acquire of int * int * bool  (* txn, key, exclusive *)
  | Fill of int * int list  (* txn, cold keys it takes shared *)
  | Release of int
  | Clear

let n_txns = 8

(* A few hot keys contend; a cold pool of 600 grows the table past the
   128 keys that double its 64 buckets, and past 256, one key at a time
   or 64 at once.  Half the streams also clear the table now and then,
   which takes it back to 64 buckets, often after it has doubled. *)
let gen_lock_ops =
  let open QCheck.Gen in
  let* clears = bool in
  let txn = int_bound (n_txns - 1) and cold = int_range 8 607 in
  let key = frequency [ (1, int_bound 7); (1, cold) ] in
  let acquire = map3 (fun t k x -> Acquire (t, k, x)) txn key bool in
  let fill = map2 (fun t ks -> Fill (t, ks)) txn (list_repeat 64 cold) in
  let release = map (fun t -> Release t) txn in
  let op =
    frequency
      ((30, acquire) :: (2, fill) :: (10, release)
      :: (if clears then [ (1, return Clear) ] else []))
  in
  (* Timestamps from a small range: equal ones die, older ones wait. *)
  pair (array_size (return n_txns) (int_bound 5)) (list_size (int_range 1 900) op)

(* The hot keys come in pairs that share a bucket of the 64 a table
   starts with (equal [Hashtbl.hash land 63]), so the order within a
   bucket matters to a release, and the bucket count does: a pair splits
   across buckets once the table has doubled when their hashes differ
   in the next bit. *)
let hot_keys =
  let by_bucket = Hashtbl.create 64 in
  let rec pairs acc i =
    if List.length acc = 8 then Array.of_list (List.rev acc)
    else begin
      let name = Printf.sprintf "h%d" i in
      let b = Hashtbl.hash name land 63 in
      match Hashtbl.find_opt by_bucket b with
      | Some other when not (List.mem other acc) -> pairs (name :: other :: acc) (i + 1)
      | Some _ -> pairs acc (i + 1)
      | None ->
        Hashtbl.replace by_bucket b name;
        pairs acc (i + 1)
    end
  in
  pairs [] 0

let lock_key k = if k < 8 then hot_keys.(k) else Printf.sprintf "k%d" k
let lock_txn t = Printf.sprintf "t%d" t

type lock_trace = { mutable lines : string list }

let trace_observer tr ~name_mode ~name_outcome =
  let line s = tr.lines <- s :: tr.lines in
  ( (fun ~txn ~key ~mode ~outcome ->
      line (Printf.sprintf "acquire %s %s %s %s" txn key (name_mode mode)
              (name_outcome outcome))),
    (fun ~txn ~key ~mode ->
      line (Printf.sprintf "promoted %s %s %s" txn key (name_mode mode))),
    fun ~txn ~key -> line (Printf.sprintf "killed %s %s" txn key) )

(* Run [ops] on both managers; the first difference, if any. *)
let lock_ops_diverge (ts, ops) =
  let lm = Lock_manager.create () and full = Full_scan.create () in
  let tr = { lines = [] } and tr_full = { lines = [] } in
  let on_acquire, on_promoted, on_killed =
    trace_observer tr
      ~name_mode:(function Lock_manager.Shared -> "S" | Lock_manager.Exclusive -> "X")
      ~name_outcome:(function
        | Lock_manager.Granted -> "granted"
        | Lock_manager.Queued -> "queued"
        | Lock_manager.Die -> "die")
  in
  Lock_manager.set_observer lm
    (Some { Lock_manager.on_acquire; on_promoted; on_killed });
  let on_acquire, on_promoted, on_killed =
    trace_observer tr_full
      ~name_mode:(function Full_scan.Shared -> "S" | Full_scan.Exclusive -> "X")
      ~name_outcome:(function
        | Full_scan.Granted -> "granted"
        | Full_scan.Queued -> "queued"
        | Full_scan.Die -> "die")
  in
  Full_scan.set_observer full
    (Some { Full_scan.on_acquire; on_promoted; on_killed });
  let released (r : Lock_manager.release) =
    List.map
      (fun (t, k, m) -> Printf.sprintf "%s %s %b" t k (m = Lock_manager.Exclusive))
      r.Lock_manager.granted
    @ List.map (fun (t, k) -> Printf.sprintf "%s %s killed" t k) r.Lock_manager.killed
  and released_full (r : Full_scan.release) =
    List.map
      (fun (t, k, m) -> Printf.sprintf "%s %s %b" t k (m = Full_scan.Exclusive))
      r.Full_scan.granted
    @ List.map (fun (t, k) -> Printf.sprintf "%s %s killed" t k) r.Full_scan.killed
  in
  let rec go i = function
    | [] -> None
    | op :: rest -> (
      let step =
        match op with
        | Acquire (t, k, x) ->
          ignore
            (Lock_manager.acquire lm ~txn:(lock_txn t) ~ts:(float_of_int ts.(t))
               ~key:(lock_key k)
               (if x then Lock_manager.Exclusive else Lock_manager.Shared));
          ignore
            (Full_scan.acquire full ~txn:(lock_txn t) ~ts:(float_of_int ts.(t))
               ~key:(lock_key k)
               (if x then Full_scan.Exclusive else Full_scan.Shared));
          None
        | Fill (t, ks) ->
          List.iter
            (fun k ->
              ignore
                (Lock_manager.acquire lm ~txn:(lock_txn t)
                   ~ts:(float_of_int ts.(t)) ~key:(lock_key k) Lock_manager.Shared);
              ignore
                (Full_scan.acquire full ~txn:(lock_txn t)
                   ~ts:(float_of_int ts.(t)) ~key:(lock_key k) Full_scan.Shared))
            ks;
          None
        | Release t ->
          let a = released (Lock_manager.release_all lm ~txn:(lock_txn t))
          and b = released_full (Full_scan.release_all full ~txn:(lock_txn t)) in
          if a = b then None
          else
            Some
              (Printf.sprintf "release %s: [%s] against [%s]" (lock_txn t)
                 (String.concat "; " a) (String.concat "; " b))
        | Clear ->
          Lock_manager.clear lm;
          Full_scan.clear full;
          None
      in
      (* held_by of the acquiring transaction, or of every one. *)
      let txns =
        match op with
        | Acquire (t, _, _) | Fill (t, _) -> [ t ]
        | Release _ | Clear -> List.init n_txns Fun.id
      in
      let held =
        List.find_map
          (fun t ->
            let txn = lock_txn t in
            let a = Lock_manager.held_by lm ~txn and b = Full_scan.held_by full ~txn in
            if a = b then None
            else
              Some
                (Printf.sprintf "held_by %s: [%s] against [%s]" txn
                   (String.concat " " a) (String.concat " " b)))
          txns
      in
      let queues =
        List.find_map
          (fun k ->
            let key = lock_key k in
            let a =
              List.map
                (fun (t, m) -> (t, m = Lock_manager.Exclusive))
                (Lock_manager.holders lm ~key)
            and b =
              List.map
                (fun (t, m) -> (t, m = Full_scan.Exclusive))
                (Full_scan.holders full ~key)
            in
            if a = b && Lock_manager.waiters lm ~key = Full_scan.waiters full ~key
            then None
            else Some (Printf.sprintf "holders or waiters of %s differ" key))
          (List.init 8 Fun.id)
      in
      match (step, held, queues) with
      | Some d, _, _ | None, Some d, _ | None, None, Some d ->
        Some (Printf.sprintf "op %d: %s" i d)
      | None, None, None ->
        if tr.lines <> tr_full.lines then
          Some (Printf.sprintf "op %d: observer calls differ" i)
        else go (i + 1) rest)
  in
  go 0 ops

let test_release_order_matches_full_scan =
  QCheck.Test.make ~name:"release order = full-scan release" ~count:120
    (QCheck.make
       ~print:(fun (_, ops) -> Printf.sprintf "%d ops" (List.length ops))
       gen_lock_ops)
    (fun case ->
      match lock_ops_diverge case with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

(* The oracle's streams reach what the order depends on: tables past
   each resize, and waiters killed at promotion. *)
let test_release_oracle_coverage () =
  let rand = Random.State.make [| 33 |] in
  let most_keys = ref 0 and cleared_past_128 = ref 0 in
  let kills = ref 0 and promotions = ref 0 in
  for _ = 1 to 300 do
    let ts, ops = gen_lock_ops rand in
    let full = Full_scan.create () in
    let keys = Hashtbl.create 64 in
    let acquire t k mode =
      Hashtbl.replace keys k ();
      most_keys := max !most_keys (Hashtbl.length keys);
      ignore
        (Full_scan.acquire full ~txn:(lock_txn t) ~ts:(float_of_int ts.(t))
           ~key:(lock_key k) mode)
    in
    List.iter
      (function
        | Acquire (t, k, x) ->
          acquire t k (if x then Full_scan.Exclusive else Full_scan.Shared)
        | Fill (t, ks) -> List.iter (fun k -> acquire t k Full_scan.Shared) ks
        | Release t ->
          let r = Full_scan.release_all full ~txn:(lock_txn t) in
          kills := !kills + List.length r.Full_scan.killed;
          promotions := !promotions + List.length r.Full_scan.granted
        | Clear ->
          if Hashtbl.length keys > 128 then incr cleared_past_128;
          Hashtbl.reset keys;
          Full_scan.clear full)
      ops
  done;
  Alcotest.(check bool) "a table past 256 keys" true (!most_keys > 256);
  Alcotest.(check bool) "tables cleared after doubling" true (!cleared_past_128 > 0);
  Alcotest.(check bool) "waiters killed at promotion" true (!kills > 0);
  Alcotest.(check bool) "waiters promoted" true (!promotions > 0)

(* ------------------------------------------------------------------ *)
(* Integrity                                                           *)
(* ------------------------------------------------------------------ *)

let lookup_of assoc key = List.assoc_opt key assoc

let test_integrity_combinators () =
  let state = [ ("a", Value.Int 5); ("b", Value.Int (-1)); ("t", Value.Text "x") ] in
  let lookup = lookup_of state in
  Alcotest.(check (list string)) "non_negative ok" []
    (Integrity.check_all [ Integrity.non_negative "a" ] lookup);
  Alcotest.(check int) "non_negative violated" 1
    (List.length (Integrity.check_all [ Integrity.non_negative "b" ] lookup));
  Alcotest.(check int) "missing key violates" 1
    (List.length (Integrity.check_all [ Integrity.non_negative "zz" ] lookup));
  Alcotest.(check int) "text violates numeric" 1
    (List.length (Integrity.check_all [ Integrity.non_negative "t" ] lookup));
  Alcotest.(check (list string)) "range ok" []
    (Integrity.check_all [ Integrity.range "a" ~lo:0 ~hi:10 ] lookup);
  Alcotest.(check int) "range violated" 1
    (List.length (Integrity.check_all [ Integrity.range "a" ~lo:6 ~hi:10 ] lookup))

let test_integrity_sums () =
  let state = [ ("a", Value.Int 30); ("b", Value.Int 70) ] in
  let lookup = lookup_of state in
  Alcotest.(check (list string)) "sum_at_most ok" []
    (Integrity.check_all [ Integrity.sum_at_most [ "a"; "b" ] ~bound:100 ] lookup);
  Alcotest.(check int) "sum_at_most violated" 1
    (List.length
       (Integrity.check_all [ Integrity.sum_at_most [ "a"; "b" ] ~bound:99 ] lookup));
  Alcotest.(check (list string)) "sum_preserved ok" []
    (Integrity.check_all [ Integrity.sum_preserved [ "a"; "b" ] ~total:100 ] lookup);
  Alcotest.(check int) "sum_preserved violated" 1
    (List.length
       (Integrity.check_all
          [ Integrity.sum_preserved [ "a"; "b" ] ~total:10 ]
          lookup))

(* ------------------------------------------------------------------ *)
(* WAL                                                                 *)
(* ------------------------------------------------------------------ *)

let test_wal_basics () =
  let wal = Wal.create () in
  let l0 = Wal.append wal ~time:0. ~forced:false (Wal.Begin_txn { txn = "t" }) in
  let l1 =
    Wal.append wal ~time:1. ~forced:true
      (Wal.Prepared
         {
           txn = "t";
           writes = [ ("k", Value.Int 1) ];
           integrity_vote = true;
           proof_truth = true;
           policy_versions = [ ("retail", 3) ];
         })
  in
  Alcotest.(check int) "lsns" 1 (l1 - l0);
  Alcotest.(check int) "forced count" 1 (Wal.force_count wal);
  Alcotest.(check int) "length" 2 (Wal.length wal)

let test_wal_recover_states () =
  let wal = Wal.create () in
  let prepared txn =
    Wal.Prepared
      {
        txn;
        writes = [ (txn ^ "-k", Value.Int 7) ];
        integrity_vote = true;
        proof_truth = true;
        policy_versions = [];
      }
  in
  ignore (Wal.append wal ~time:0. ~forced:false (Wal.Begin_txn { txn = "active" }));
  ignore (Wal.append wal ~time:0. ~forced:false (Wal.Begin_txn { txn = "doubt" }));
  ignore (Wal.append wal ~time:1. ~forced:true (prepared "doubt"));
  ignore (Wal.append wal ~time:0. ~forced:false (Wal.Begin_txn { txn = "done" }));
  ignore (Wal.append wal ~time:1. ~forced:true (prepared "done"));
  ignore (Wal.append wal ~time:2. ~forced:true (Wal.Decision { txn = "done"; commit = true }));
  ignore (Wal.append wal ~time:3. ~forced:false (Wal.End_txn { txn = "done" }));
  Alcotest.(check bool) "no trace" true (Wal.recover_txn wal ~txn:"ghost" = `No_trace);
  Alcotest.(check bool) "active" true (Wal.recover_txn wal ~txn:"active" = `Active);
  (match Wal.recover_txn wal ~txn:"doubt" with
  | `Prepared (writes, _) ->
    Alcotest.(check int) "in-doubt writes" 1 (List.length writes)
  | _ -> Alcotest.fail "expected Prepared");
  Alcotest.(check bool) "finished" true (Wal.recover_txn wal ~txn:"done" = `Finished)

let test_wal_truncate () =
  let wal = Wal.create () in
  ignore (Wal.append wal ~time:0. ~forced:false (Wal.Begin_txn { txn = "a" }));
  ignore
    (Wal.append wal ~time:1. ~forced:true
       (Wal.Decision { txn = "a"; commit = true }));
  ignore (Wal.append wal ~time:2. ~forced:false (Wal.End_txn { txn = "a" }));
  Wal.crash wal;
  (* The forced decision forces the record before it too. *)
  Alcotest.(check int) "tail dropped" 2 (Wal.length wal);
  Alcotest.(check bool) "state now committed" true
    (match Wal.recover_txn wal ~txn:"a" with `Committed _ -> true | _ -> false);
  let wal = Wal.create () in
  ignore (Wal.append wal ~time:0. ~forced:false (Wal.Begin_txn { txn = "b" }));
  Wal.crash wal;
  Alcotest.(check int) "nothing forced, nothing kept" 0 (Wal.length wal)

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

let make_server ?(constraints = []) () =
  Server.create ~name:"s1" ~constraints
    ~items:[ ("x", Value.Int 100); ("y", Value.Int 50) ]
    ()

let test_server_execute_and_overlay () =
  let s = make_server () in
  Server.begin_work s ~txn:"t" ~ts:1. ~time:0.;
  (match
     Server.execute s ~txn:"t" ~reads:[ "x" ] ~writes:[ ("y", Value.Set (Value.Int 7)) ]
   with
  | Server.Executed reads ->
    Alcotest.(check bool) "read committed x" true
      (List.assoc "x" reads = Some (Value.Int 100))
  | _ -> Alcotest.fail "expected Executed");
  (* Overlay sees the buffered write; committed state does not. *)
  Alcotest.(check bool) "overlay y" true
    (Server.overlay s ~txn:"t" "y" = Some (Value.Int 7));
  Alcotest.(check bool) "committed y unchanged" true
    (Server.get s "y" = Some (Value.Int 50))

let test_server_unhosted_key () =
  let s = make_server () in
  Server.begin_work s ~txn:"t" ~ts:1. ~time:0.;
  Alcotest.check_raises "unhosted"
    (Invalid_argument "Server s1 does not host data item zz") (fun () ->
      ignore (Server.execute s ~txn:"t" ~reads:[ "zz" ] ~writes:[]))

let test_server_integrity_vote () =
  let s = make_server ~constraints:[ Integrity.non_negative "x" ] () in
  Server.begin_work s ~txn:"t" ~ts:1. ~time:0.;
  ignore (Server.execute s ~txn:"t" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int (-5))) ]);
  Alcotest.(check int) "violation detected" 1
    (List.length (Server.integrity_violations s ~txn:"t"));
  let vote = Server.prepare s ~txn:"t" ~time:1. ~proof_truth:true ~policy_versions:[] in
  Alcotest.(check bool) "votes NO" false vote;
  Alcotest.(check int) "prepare forced" 1 (Wal.force_count (Server.wal s))

let test_server_commit_applies () =
  let s = make_server () in
  Server.begin_work s ~txn:"t" ~ts:1. ~time:0.;
  ignore (Server.execute s ~txn:"t" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 1)) ]);
  ignore (Server.prepare s ~txn:"t" ~time:1. ~proof_truth:true ~policy_versions:[]);
  ignore (Server.commit s ~txn:"t" ~time:2.);
  Server.finish s ~txn:"t" ~time:3.;
  Alcotest.(check bool) "applied" true (Server.get s "x" = Some (Value.Int 1));
  (* prepared + decision forced = 2. *)
  Alcotest.(check int) "forced writes" 2 (Wal.force_count (Server.wal s));
  Alcotest.(check (list string)) "locks released" []
    (Lock_manager.held_by (Server.locks s) ~txn:"t")

let test_server_abort_drops () =
  let s = make_server () in
  Server.begin_work s ~txn:"t" ~ts:1. ~time:0.;
  ignore (Server.execute s ~txn:"t" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 1)) ]);
  ignore (Server.abort s ~txn:"t" ~time:1.);
  Alcotest.(check bool) "unchanged" true (Server.get s "x" = Some (Value.Int 100))

let test_server_lock_conflict_and_promotion () =
  let s = make_server () in
  Server.begin_work s ~txn:"young" ~ts:10. ~time:0.;
  Server.begin_work s ~txn:"old" ~ts:1. ~time:0.;
  ignore (Server.execute s ~txn:"young" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 1)) ]);
  (* Older conflicting writer queues. *)
  (match Server.execute s ~txn:"old" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 2)) ] with
  | Server.Blocked -> ()
  | _ -> Alcotest.fail "expected Blocked");
  (* Younger third transaction dies. *)
  Server.begin_work s ~txn:"younger" ~ts:20. ~time:0.;
  (match Server.execute s ~txn:"younger" ~reads:[ "x" ] ~writes:[] with
  | Server.Die -> ()
  | _ -> Alcotest.fail "expected Die");
  (* Committing the young holder promotes the old waiter. *)
  let release = Server.commit s ~txn:"young" ~time:1. in
  Alcotest.(check bool) "old promoted" true
    (List.exists
       (fun (t, k, _) -> t = "old" && k = "x")
       release.Lock_manager.granted);
  (match Server.execute s ~txn:"old" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 2)) ] with
  | Server.Executed _ -> ()
  | _ -> Alcotest.fail "expected Executed after promotion")

let test_snapshot_reads_time_travel () =
  let s = make_server () in
  let commit_value txn time v =
    Server.begin_work s ~txn ~ts:time ~time;
    ignore (Server.execute s ~txn ~reads:[] ~writes:[ ("x", Value.Set (Value.Int v)) ]);
    ignore (Server.prepare s ~txn ~time ~proof_truth:true ~policy_versions:[]);
    ignore (Server.commit s ~txn ~time)
  in
  commit_value "t1" 10. 111;
  commit_value "t2" 20. 222;
  Alcotest.(check (option (of_pp Value.pp))) "opening value" (Some (Value.Int 100))
    (Server.read_asof s "x" ~ts:5.);
  Alcotest.(check (option (of_pp Value.pp))) "after t1" (Some (Value.Int 111))
    (Server.read_asof s "x" ~ts:15.);
  Alcotest.(check (option (of_pp Value.pp))) "after t2" (Some (Value.Int 222))
    (Server.read_asof s "x" ~ts:25.);
  Alcotest.(check (option (of_pp Value.pp))) "current agrees" (Some (Value.Int 222))
    (Server.get s "x")

let test_snapshot_reads_take_no_locks () =
  let s = make_server () in
  (* A writer holds X on x. *)
  Server.begin_work s ~txn:"w" ~ts:1. ~time:0.;
  ignore (Server.execute s ~txn:"w" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 7)) ]);
  (* A snapshot read of x neither blocks nor registers in the lock table,
     and sees the pre-write committed value. *)
  let reads = Server.execute_snapshot s ~reads:[ "x" ] ~ts:0.5 in
  Alcotest.(check bool) "sees committed value" true
    (List.assoc "x" reads = Some (Value.Int 100));
  Alcotest.(check int) "only the writer holds locks" 1
    (List.length (Lock_manager.holders (Server.locks s) ~key:"x"));
  Alcotest.check_raises "unhosted"
    (Invalid_argument "Server s1 does not host data item zz") (fun () ->
      ignore (Server.execute_snapshot s ~reads:[ "zz" ] ~ts:1.))

let test_vacuum_prunes_history () =
  let s = make_server () in
  let commit_value txn time v =
    Server.begin_work s ~txn ~ts:time ~time;
    ignore (Server.execute s ~txn ~reads:[] ~writes:[ ("x", Value.Set (Value.Int v)) ]);
    ignore (Server.prepare s ~txn ~time ~proof_truth:true ~policy_versions:[]);
    ignore (Server.commit s ~txn ~time)
  in
  commit_value "t1" 10. 1;
  commit_value "t2" 20. 2;
  commit_value "t3" 30. 3;
  (* Horizon 25: the opening version and t1's are reclaimable; t2's must
     survive because it serves reads exactly at the horizon. *)
  let reclaimed = Server.vacuum s ~before:25. in
  Alcotest.(check int) "two versions reclaimed" 2 reclaimed;
  Alcotest.(check (option (of_pp Value.pp))) "horizon read survives"
    (Some (Value.Int 2))
    (Server.read_asof s "x" ~ts:25.);
  Alcotest.(check (option (of_pp Value.pp))) "newest intact" (Some (Value.Int 3))
    (Server.read_asof s "x" ~ts:40.);
  Alcotest.(check int) "idempotent" 0 (Server.vacuum s ~before:25.)

let test_server_crash_recovery_in_doubt () =
  let s = make_server () in
  Server.begin_work s ~txn:"t" ~ts:1. ~time:0.;
  ignore (Server.execute s ~txn:"t" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 42)) ]);
  ignore (Server.prepare s ~txn:"t" ~time:1. ~proof_truth:true ~policy_versions:[ ("d", 2) ]);
  Server.crash s;
  let in_doubt = Server.recover s ~time:2. in
  Alcotest.(check (list string)) "in doubt" [ "t" ] in_doubt;
  (* The in-doubt transaction holds its write locks again. *)
  Alcotest.(check bool) "x locked" true
    (List.exists (fun (t, _) -> t = "t") (Lock_manager.holders (Server.locks s) ~key:"x"));
  (* Deciding commit after recovery applies the workspace. *)
  ignore (Server.commit s ~txn:"t" ~time:3.);
  Alcotest.(check bool) "recovered commit applied" true
    (Server.get s "x" = Some (Value.Int 42))

let test_server_crash_loses_unforced_tail () =
  let s = make_server () in
  Server.begin_work s ~txn:"t" ~ts:1. ~time:0.;
  ignore (Server.execute s ~txn:"t" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 1)) ]);
  ignore (Server.prepare s ~txn:"t" ~time:1. ~proof_truth:true ~policy_versions:[]);
  (* Unforced end record after the forced prepare is lost by the crash. *)
  Server.finish s ~txn:"t" ~time:2.;
  Server.crash s;
  Alcotest.(check bool) "tail lost: txn back in doubt" true
    (match Wal.recover_txn (Server.wal s) ~txn:"t" with
    | `Prepared _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Constraint index: votes over the write set                          *)
(* ------------------------------------------------------------------ *)

(* What a case does to one server, one step at a time. *)
type index_step =
  | Txn of (string * Value.update) list * [ `Commit | `Commit_unfinished | `Abort ]
      (** One transaction: execute, prepare, decide.  An unfinished commit
          leaves no end record, so a later crash redoes it. *)
  | Skew of (string * Value.update) * (string * Value.update)
      (** Two concurrent writers of different keys, both committed. *)
  | Crash  (** Crash, then recover: redo of unfinished commits. *)
  | Crash_in_doubt of (string * Value.update) list
      (** Prepare, crash, recover the in-doubt workspace, commit. *)

type index_case = {
  items : (string * Value.t) list;
  constraints : Integrity.t list;
  steps : index_step list;
}

(* The reference: every constraint, evaluated on the hypothetical state. *)
let full_scan constraints s ~txn =
  Integrity.check_all constraints (Server.overlay s ~txn)

(* Runs [case], checking after every change that each vote and the
   read-only check (a transaction with no workspace) equal the full scan.
   The first disagreement is returned. *)
let run_index_case case =
  let s = Server.create ~name:"idx" ~constraints:case.constraints ~items:case.items () in
  let clock = ref 0. and seq = ref 0 in
  let tick () = clock := !clock +. 1.; !clock in
  let problems = ref [] in
  let agree where ~txn =
    let got = Server.integrity_violations s ~txn in
    let want = full_scan case.constraints s ~txn in
    if got <> want then
      problems :=
        Printf.sprintf "%s (%s): index [%s], full scan [%s]" where txn
          (String.concat "; " got) (String.concat "; " want)
        :: !problems
  in
  let open_txn writes =
    incr seq;
    let txn = Printf.sprintf "t%d" !seq in
    Server.begin_work s ~txn ~ts:(float_of_int !seq) ~time:(tick ());
    (match Server.execute s ~txn ~reads:[] ~writes with
    | Server.Executed _ -> ()
    | Server.Blocked | Server.Die -> Alcotest.fail "writers of distinct keys conflicted");
    agree "vote" ~txn;
    ignore (Server.prepare s ~txn ~time:(tick ()) ~proof_truth:true ~policy_versions:[]);
    txn
  in
  List.iter
    (fun step ->
      (match step with
      | Txn (writes, decision) -> (
        let txn = open_txn writes in
        match decision with
        | `Abort -> ignore (Server.abort s ~txn ~time:(tick ()))
        | `Commit_unfinished -> ignore (Server.commit s ~txn ~time:(tick ()))
        | `Commit ->
          ignore (Server.commit s ~txn ~time:(tick ()));
          Server.finish s ~txn ~time:(tick ()))
      | Skew (w1, w2) ->
        let t1 = open_txn [ w1 ] in
        let t2 = open_txn [ w2 ] in
        List.iter
          (fun txn ->
            ignore (Server.commit s ~txn ~time:(tick ()));
            Server.finish s ~txn ~time:(tick ()))
          [ t1; t2 ]
      | Crash ->
        Server.crash s;
        ignore (Server.recover s ~time:(tick ()))
      | Crash_in_doubt writes ->
        let txn = open_txn writes in
        Server.crash s;
        ignore (Server.recover s ~time:(tick ()));
        agree "in-doubt vote" ~txn;
        ignore (Server.commit s ~txn ~time:(tick ()));
        Server.finish s ~txn ~time:(tick ()));
      agree "read-only check" ~txn:"idle")
    case.steps;
  List.rev !problems

let index_keys = [| "a"; "b"; "c"; "d"; "e"; "f" |]

let gen_index_case =
  let open QCheck.Gen in
  let key = oneofa index_keys in
  let keys = map (List.sort_uniq String.compare) (list_size (1 -- 3) key) in
  let constraint_ =
    oneof
      [
        map Integrity.non_negative key;
        map3 (fun k lo span -> Integrity.range k ~lo ~hi:(lo + span)) key (-5 -- 10) (0 -- 30);
        map2 (fun ks bound -> Integrity.sum_at_most ks ~bound) keys (0 -- 60);
        map2 (fun ks total -> Integrity.sum_preserved ks ~total) keys (0 -- 60);
      ]
  in
  (* Text values make [Add] yield nothing, so keys go missing. *)
  let value =
    frequency [ (8, map (fun n -> Value.Int n) (-3 -- 25)); (1, return (Value.Text "t")) ]
  in
  let update =
    frequency
      [
        (3, map (fun v -> Value.Set v) value);
        (3, map (fun n -> Value.Add n) (-15 -- 15));
      ]
  in
  let write = pair key update in
  (* Distinct keys, so one transaction's locks never block the other's. *)
  let writes =
    map
      (List.sort_uniq (fun (k, _) (k', _) -> String.compare k k'))
      (list_size (1 -- 3) write)
  in
  let skew =
    map3
      (fun i j (u1, u2) ->
        let k1 = index_keys.(i) and k2 = index_keys.((i + 1 + j) mod Array.length index_keys) in
        Skew ((k1, u1), (k2, u2)))
      (0 -- 5) (0 -- 4) (pair update update)
  in
  let step =
    frequency
      [
        ( 6,
          map2
            (fun w d -> Txn (w, d))
            writes
            (oneofl [ `Commit; `Commit; `Commit_unfinished; `Abort ]) );
        (2, skew);
        (1, return Crash);
        (1, map (fun w -> Crash_in_doubt w) writes);
      ]
  in
  map3
    (fun values constraints steps ->
      { items = List.combine (Array.to_list index_keys) values; constraints; steps })
    (list_repeat (Array.length index_keys) value)
    (list_size (1 -- 8) constraint_)
    (list_size (1 -- 12) step)

let print_index_case case =
  let update = function
    | Value.Set v -> "=" ^ Value.to_string v
    | Value.Add n -> Printf.sprintf "+%d" n
  in
  let writes ws = String.concat "," (List.map (fun (k, u) -> k ^ update u) ws) in
  Printf.sprintf "items %s; constraints %s; steps %s"
    (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ Value.to_string v) case.items))
    (String.concat "," (List.map (fun (c : Integrity.t) -> c.Integrity.name) case.constraints))
    (String.concat " | "
       (List.map
          (function
            | Txn (ws, `Commit) -> "commit " ^ writes ws
            | Txn (ws, `Commit_unfinished) -> "commit-unfinished " ^ writes ws
            | Txn (ws, `Abort) -> "abort " ^ writes ws
            | Skew (w1, w2) -> "skew " ^ writes [ w1; w2 ]
            | Crash -> "crash"
            | Crash_in_doubt ws -> "crash-in-doubt " ^ writes ws)
          case.steps))

let prop_index_matches_full_scan =
  QCheck.Test.make ~name:"index votes = full scan" ~count:500
    (QCheck.make ~print:print_index_case gen_index_case)
    (fun case ->
      match run_index_case case with
      | [] -> true
      | problems -> QCheck.Test.fail_report (String.concat "\n" problems))

(* The cases the random ones must reach, spelled out. *)
let test_index_named_cases () =
  let i n = Value.Int n in
  let case name items constraints steps =
    Alcotest.(check (list string)) name []
      (run_index_case { items; constraints; steps })
  in
  case "opening data already violates"
    [ ("a", i (-1)); ("b", i 5) ]
    [ Integrity.non_negative "a"; Integrity.non_negative "b" ]
    [ Txn ([ ("b", Value.Set (i 7)) ], `Commit); Txn ([ ("a", Value.Set (i 1)) ], `Commit) ];
  case "write skew leaves committed state violated"
    [ ("a", i 4); ("b", i 4) ]
    [ Integrity.sum_at_most [ "a"; "b" ] ~bound:10 ]
    [ Skew (("a", Value.Set (i 6)), ("b", Value.Set (i 6))); Txn ([ ("a", Value.Add (-5)) ], `Commit) ];
  case "Add on a missing key"
    [ ("a", Value.Text "t"); ("b", i 3) ]
    [ Integrity.non_negative "a"; Integrity.sum_preserved [ "a"; "b" ] ~total:3 ]
    [
      Txn ([ ("a", Value.Add 1) ], `Commit);
      Txn ([ ("a", Value.Add 2) ], `Commit);
      Txn ([ ("a", Value.Set (i 0)) ], `Commit);
    ];
  case "crash followed by recover redo"
    [ ("a", i 5) ]
    [ Integrity.range "a" ~lo:0 ~hi:10 ]
    [
      Txn ([ ("a", Value.Set (i 20)) ], `Commit_unfinished);
      Txn ([ ("a", Value.Set (i 3)) ], `Commit);
      Crash;
      Crash_in_doubt [ ("a", Value.Add 1) ];
    ]

(* A [make] check that reads a key it does not declare sees that key as
   absent in every state, so the index and the full scan still agree. *)
let test_make_hides_undeclared_keys () =
  let seen = ref [] in
  let leaky =
    Integrity.make ~name:"leaky(a)" ~keys:[ "a" ] (fun lookup ->
        let b = lookup "b" in
        seen := b :: !seen;
        match (lookup "a", b) with
        | Some (Value.Int a), Some (Value.Int b) -> a + b <= 10
        | Some (Value.Int a), None -> a <= 10
        | _ -> false)
  in
  Alcotest.(check (list string)) "index = full scan" []
    (run_index_case
       {
         items = [ ("a", Value.Int 4); ("b", Value.Int 4) ];
         constraints = [ leaky ];
         steps =
           [
             Txn ([ ("b", Value.Set (Value.Int 20)) ], `Commit);
             Txn ([ ("a", Value.Add 1) ], `Commit);
           ];
       });
  Alcotest.(check bool) "the check ran" true (!seen <> []);
  Alcotest.(check bool) "b always reads as absent" true (List.for_all Option.is_none !seen)

(* A vote evaluates only the constraints on the keys it writes plus those
   the committed state already violates; a read-only check only the
   latter.  The server holds 1 024 items, one counting constraint each. *)
let test_index_scope () =
  let key i = Printf.sprintf "k%d" i in
  let evaluated = ref [] in
  let counting k =
    Integrity.make ~name:("counted(" ^ k ^ ")") ~keys:[ k ] (fun lookup ->
        evaluated := k :: !evaluated;
        match lookup k with Some (Value.Int n) -> n >= 0 | _ -> false)
  in
  let items = List.init 1024 (fun i -> (key i, Value.Int (if i = 7 then -1 else 100))) in
  let s =
    Server.create ~name:"big" ~constraints:(List.map (fun (k, _) -> counting k) items) ~items ()
  in
  Alcotest.(check int) "creation checks every constraint once" 1024 (List.length !evaluated);
  evaluated := [];
  Server.begin_work s ~txn:"w" ~ts:1. ~time:0.;
  ignore (Server.execute s ~txn:"w" ~reads:[] ~writes:[ (key 42, Value.Add (-1)) ]);
  let vote = Server.prepare s ~txn:"w" ~time:1. ~proof_truth:true ~policy_versions:[] in
  Alcotest.(check bool) "k7 still violated: NO" false vote;
  Alcotest.(check (list string)) "prepare: the written key and the violated one"
    [ key 42; key 7 ]
    (List.sort_uniq String.compare !evaluated);
  evaluated := [];
  Alcotest.(check (list string)) "read-only check names k7" [ "counted(k7)" ]
    (Server.integrity_violations s ~txn:"reader");
  Alcotest.(check (list string)) "read-only check: the violated one only" [ key 7 ] !evaluated;
  evaluated := [];
  ignore (Server.commit s ~txn:"w" ~time:2.);
  Alcotest.(check (list string)) "commit re-checks the written key only" [ key 42 ] !evaluated

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "store"
    [
      ("value", [ Alcotest.test_case "basics" `Quick test_value ]);
      ( "locks",
        [
          Alcotest.test_case "shared compatible" `Quick test_shared_compatible;
          Alcotest.test_case "wait-die" `Quick test_wait_die;
          Alcotest.test_case "release promotes" `Quick test_release_promotes;
          Alcotest.test_case "re-acquire idempotent" `Quick
            test_reacquire_idempotent;
          Alcotest.test_case "upgrade" `Quick test_upgrade;
          Alcotest.test_case "promotion re-applies wait-die" `Quick
            test_promotion_reapplies_wait_die;
          Alcotest.test_case "held_by and clear" `Quick test_held_by_and_clear;
          qc test_release_order_matches_full_scan;
          Alcotest.test_case "release oracle coverage" `Quick
            test_release_oracle_coverage;
          qc prop_wait_die_no_deadlock;
        ] );
      ( "integrity",
        [
          Alcotest.test_case "combinators" `Quick test_integrity_combinators;
          Alcotest.test_case "sums" `Quick test_integrity_sums;
          Alcotest.test_case "index named cases" `Quick test_index_named_cases;
          Alcotest.test_case "index scope" `Quick test_index_scope;
          Alcotest.test_case "make hides undeclared keys" `Quick
            test_make_hides_undeclared_keys;
          qc prop_index_matches_full_scan;
        ] );
      ( "wal",
        [
          Alcotest.test_case "basics" `Quick test_wal_basics;
          Alcotest.test_case "recover states" `Quick test_wal_recover_states;
          Alcotest.test_case "truncate" `Quick test_wal_truncate;
        ] );
      ( "server",
        [
          Alcotest.test_case "execute and overlay" `Quick
            test_server_execute_and_overlay;
          Alcotest.test_case "unhosted key" `Quick test_server_unhosted_key;
          Alcotest.test_case "integrity vote" `Quick test_server_integrity_vote;
          Alcotest.test_case "commit applies" `Quick test_server_commit_applies;
          Alcotest.test_case "abort drops" `Quick test_server_abort_drops;
          Alcotest.test_case "conflict and promotion" `Quick
            test_server_lock_conflict_and_promotion;
          Alcotest.test_case "snapshot time travel" `Quick
            test_snapshot_reads_time_travel;
          Alcotest.test_case "snapshot reads take no locks" `Quick
            test_snapshot_reads_take_no_locks;
          Alcotest.test_case "vacuum prunes history" `Quick
            test_vacuum_prunes_history;
          Alcotest.test_case "crash recovery in doubt" `Quick
            test_server_crash_recovery_in_doubt;
          Alcotest.test_case "crash loses unforced tail" `Quick
            test_server_crash_loses_unforced_tail;
        ] );
    ]
