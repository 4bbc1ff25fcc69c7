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

let test_wal_serialize_round_trip () =
  let wal = Wal.create () in
  ignore (Wal.append wal ~time:0. ~forced:false (Wal.Begin_txn { txn = "t" }));
  ignore
    (Wal.append wal ~time:1. ~forced:true
       (Wal.Prepared
          {
            txn = "t";
            writes = [ ("k", Value.Int 1); ("s", Value.Text "v") ];
            integrity_vote = true;
            proof_truth = false;
            policy_versions = [ ("retail", 3) ];
          }));
  ignore
    (Wal.append wal ~time:2. ~forced:true (Wal.Decision { txn = "t"; commit = true }));
  ignore (Wal.append wal ~time:3. ~forced:false (Wal.End_txn { txn = "t" }));
  let loaded, dropped = Wal.load (Wal.serialize wal) in
  Alcotest.(check int) "nothing dropped" 0 dropped;
  Alcotest.(check int) "length preserved" (Wal.length wal) (Wal.length loaded);
  Alcotest.(check int) "forces preserved" (Wal.force_count wal)
    (Wal.force_count loaded);
  Alcotest.(check bool) "same analysis" true
    (Wal.recover_txn wal ~txn:"t" = Wal.recover_txn loaded ~txn:"t");
  Alcotest.(check string) "stable rendering" (Wal.serialize wal)
    (Wal.serialize loaded)

let test_wal_torn_tail () =
  let wal = Wal.create () in
  ignore (Wal.append wal ~time:0. ~forced:false (Wal.Begin_txn { txn = "t" }));
  ignore
    (Wal.append wal ~time:1. ~forced:true
       (Wal.Prepared
          {
            txn = "t";
            writes = [ ("k", Value.Int 1) ];
            integrity_vote = true;
            proof_truth = true;
            policy_versions = [];
          }));
  ignore
    (Wal.append wal ~time:2. ~forced:true (Wal.Decision { txn = "t"; commit = true }));
  let data = Wal.serialize wal in
  (* Tear the final record mid-line, as a crash during the write would. *)
  let cut = String.length data - (String.length data / 4) in
  let torn = String.sub data 0 cut in
  let loaded, dropped = Wal.load torn in
  Alcotest.(check int) "torn line dropped" 1 dropped;
  Alcotest.(check int) "valid prefix kept" 2 (Wal.length loaded);
  Alcotest.(check bool) "analysis falls back to in-doubt" true
    (match Wal.recover_txn loaded ~txn:"t" with `Prepared _ -> true | _ -> false);
  (* A corrupted byte inside the tail line is also caught by the checksum. *)
  let flipped = Bytes.of_string data in
  Bytes.set flipped (String.length data - 10) '#';
  let loaded, dropped = Wal.load (Bytes.to_string flipped) in
  Alcotest.(check int) "corrupt line dropped" 1 dropped;
  Alcotest.(check int) "prefix before corruption kept" 2 (Wal.length loaded)

let test_wal_truncate () =
  let wal = Wal.create () in
  ignore (Wal.append wal ~time:0. ~forced:true (Wal.Begin_txn { txn = "a" }));
  let keep = Wal.append wal ~time:1. ~forced:true (Wal.Decision { txn = "a"; commit = true }) in
  ignore (Wal.append wal ~time:2. ~forced:false (Wal.End_txn { txn = "a" }));
  Wal.truncate_after wal keep;
  Alcotest.(check int) "tail dropped" 2 (Wal.length wal);
  Alcotest.(check bool) "state now committed" true
    (match Wal.recover_txn wal ~txn:"a" with `Committed _ -> true | _ -> false)

let test_wal_checkpoint_truncation () =
  let wal = Wal.create () in
  let prepared txn =
    Wal.Prepared
      {
        txn;
        writes = [ (txn ^ "-k", Value.Int 1) ];
        integrity_vote = true;
        proof_truth = true;
        policy_versions = [];
      }
  in
  (* A finished transaction and an in-doubt one, then a checkpoint. *)
  ignore (Wal.append wal ~time:0. ~forced:false (Wal.Begin_txn { txn = "done" }));
  ignore (Wal.append wal ~time:1. ~forced:true (prepared "done"));
  ignore (Wal.append wal ~time:2. ~forced:true (Wal.Decision { txn = "done"; commit = true }));
  ignore (Wal.append wal ~time:3. ~forced:false (Wal.End_txn { txn = "done" }));
  ignore (Wal.append wal ~time:4. ~forced:false (Wal.Begin_txn { txn = "doubt" }));
  ignore (Wal.append wal ~time:5. ~forced:true (prepared "doubt"));
  ignore (Wal.checkpoint wal ~time:6. ~active:[ "doubt" ]);
  let reclaimed = Wal.truncate_to_checkpoint wal in
  (* The four "done" records go; "doubt"'s two stay. *)
  Alcotest.(check int) "reclaimed" 4 reclaimed;
  Alcotest.(check bool) "done presumed" true (Wal.recover_txn wal ~txn:"done" = `No_trace);
  Alcotest.(check bool) "doubt still recoverable" true
    (match Wal.recover_txn wal ~txn:"doubt" with `Prepared _ -> true | _ -> false);
  (* No checkpoint: no-op. *)
  Alcotest.(check int) "no checkpoint" 0 (Wal.truncate_to_checkpoint (Wal.create ()))

let test_server_checkpoint () =
  let s =
    Server.create ~name:"s" ~items:[ ("x", Value.Int 1); ("y", Value.Int 2) ] ()
  in
  (* Finish one transaction, leave another open, checkpoint. *)
  Server.begin_work s ~txn:"t1" ~ts:1. ~time:0.;
  ignore (Server.execute s ~txn:"t1" ~reads:[] ~writes:[ ("x", Value.Set (Value.Int 9)) ]);
  ignore (Server.prepare s ~txn:"t1" ~time:1. ~proof_truth:true ~policy_versions:[]);
  ignore (Server.commit s ~txn:"t1" ~time:2.);
  Server.finish s ~txn:"t1" ~time:3.;
  Server.begin_work s ~txn:"t2" ~ts:2. ~time:4.;
  ignore (Server.execute s ~txn:"t2" ~reads:[] ~writes:[ ("y", Value.Set (Value.Int 8)) ]);
  ignore (Server.prepare s ~txn:"t2" ~time:5. ~proof_truth:true ~policy_versions:[]);
  let reclaimed = Server.checkpoint s ~time:6. in
  Alcotest.(check bool) "reclaimed t1's records" true (reclaimed >= 4);
  (* Crash + recover: the open transaction is still in doubt, data
     survives. *)
  Server.crash s;
  let in_doubt = Server.recover s ~time:7. in
  Alcotest.(check (list string)) "t2 in doubt" [ "t2" ] in_doubt;
  Alcotest.(check bool) "committed data intact" true
    (Server.get s "x" = Some (Value.Int 9));
  ignore (Server.commit s ~txn:"t2" ~time:8.);
  Alcotest.(check bool) "t2 applied after recovery" true
    (Server.get s "y" = Some (Value.Int 8))

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
          Alcotest.test_case "serialize round trip" `Quick
            test_wal_serialize_round_trip;
          Alcotest.test_case "torn tail recovery" `Quick test_wal_torn_tail;
          Alcotest.test_case "truncate" `Quick test_wal_truncate;
          Alcotest.test_case "checkpoint truncation" `Quick
            test_wal_checkpoint_truncation;
          Alcotest.test_case "server checkpoint" `Quick test_server_checkpoint;
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
