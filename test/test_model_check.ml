(* Model checking the commit-protocol state machines.

   The {!Cloudtx_txn.Tpc} machines are pure: given the votes, the only
   runtime nondeterminism is the order in which in-flight messages are
   delivered.  This suite explores that nondeterminism directly —
   exhaustively for small configurations, by seeded random sampling for
   larger ones — and checks the textbook correctness properties on every
   reachable terminal state:

   - AC1 (agreement): no two participants settle different decisions;
   - AC2 (validity): commit iff every participant voted YES;
   - AC3 (stability): the coordinator decides exactly once;
   - termination: with every message delivered, every machine finishes.

   {!Cloudtx_protocol.Validation} is checked for reply-order invariance: the
   resolution of a voting round must not depend on arrival order.

   The sans-IO {!Cloudtx_protocol.Tm_machine} / {!Cloudtx_protocol.Ps_machine}
   pair is model-checked the same way over the {e full} 2PV/2PVC protocol —
   proof validation, Update re-polls, master version retrievals and the
   decision phase included — asserting, at every reachable leaf, AC1-AC3,
   termination, delivery-order independence of the outcome, and that every
   committed run satisfies {!Cloudtx_core.Trusted.check} (the phi/psi
   trusted-transaction soundness obligation of Section V). *)

module Tpc = Cloudtx_txn.Tpc
module Validation = Cloudtx_protocol.Validation
module Policy = Cloudtx_policy.Policy
module Proof = Cloudtx_policy.Proof
module Splitmix = Cloudtx_sim.Splitmix
module Tm = Cloudtx_protocol.Tm_machine
module Ps = Cloudtx_protocol.Ps_machine
module Msg = Cloudtx_protocol.Message
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module View = Cloudtx_protocol.View
module Outcome = Cloudtx_protocol.Outcome
module Trusted = Cloudtx_core.Trusted
module Query = Cloudtx_txn.Query
module Transaction = Cloudtx_txn.Transaction
module Value = Cloudtx_store.Value

(* ------------------------------------------------------------------ *)
(* 2PC delivery-order exploration                                      *)
(* ------------------------------------------------------------------ *)

type flight = { src : [ `Coordinator | `Node of string ]; dst : [ `Coordinator | `Node of string ]; msg : Tpc.msg }

type verdict = {
  outcome : bool;
  applied : (string * bool) list;
  decided_times : int;
}

(* Run one complete instance delivering in-flight messages according to
   [choose], which picks an index into the current flight list. *)
let run_once variant ~votes ~choose =
  let names = List.map fst votes in
  let coord = Tpc.coordinator ~txn:"t" ~participants:names variant in
  let parts = List.map (fun n -> (n, Tpc.participant ~txn:"t" ~name:n variant)) names in
  let flight = ref [] in
  let applied = ref [] in
  let decided_times = ref 0 in
  let outcome = ref None in
  let absorb src actions =
    List.iter
      (fun a ->
        match a with
        | Tpc.Send { dst; msg } -> flight := !flight @ [ { src; dst; msg } ]
        | Tpc.Apply commit -> (
          match src with
          | `Node n -> applied := (n, commit) :: !applied
          | `Coordinator -> assert false)
        | Tpc.Outcome o ->
          incr decided_times;
          outcome := Some o
        | Tpc.Force_log _ | Tpc.Write_log _ | Tpc.Done -> ())
      actions
  in
  absorb `Coordinator (Tpc.coord_start coord);
  let steps = ref 0 in
  while !flight <> [] do
    incr steps;
    if !steps > 1000 then failwith "model check: no termination";
    let i = choose (List.length !flight) in
    let m = List.nth !flight i in
    flight := List.filteri (fun j _ -> j <> i) !flight;
    match (m.dst, m.msg) with
    | `Node n, Tpc.Vote_request ->
      let p = List.assoc n parts in
      absorb (`Node n) (Tpc.part_on_vote_request p ~vote:(List.assoc n votes))
    | `Node n, Tpc.Decision commit ->
      let p = List.assoc n parts in
      absorb (`Node n) (Tpc.part_on_decision p ~commit)
    | `Coordinator, Tpc.Vote yes ->
      let from = match m.src with `Node n -> n | `Coordinator -> assert false in
      absorb `Coordinator (Tpc.coord_on_vote coord ~from ~yes)
    | `Coordinator, Tpc.Ack ->
      let from = match m.src with `Node n -> n | `Coordinator -> assert false in
      absorb `Coordinator (Tpc.coord_on_ack coord ~from)
    | `Node _, (Tpc.Vote _ | Tpc.Ack) | `Coordinator, (Tpc.Vote_request | Tpc.Decision _)
      ->
      assert false
  done;
  match !outcome with
  | None -> failwith "model check: protocol ended without a decision"
  | Some o -> { outcome = o; applied = !applied; decided_times = !decided_times }

let check_verdict ~votes v =
  let expect = List.for_all snd votes in
  (* AC2: validity. *)
  Alcotest.(check bool) "outcome = all-yes" expect v.outcome;
  (* AC3: single decision. *)
  Alcotest.(check int) "decided once" 1 v.decided_times;
  (* AC1: agreement — every applied decision equals the outcome, except a
     NO voter's unilateral abort under a global abort (same decision). *)
  List.iter
    (fun (n, commit) ->
      if commit <> v.outcome then
        Alcotest.failf "participant %s applied %b against outcome %b" n commit
          v.outcome)
    v.applied;
  (* Termination / completeness: every participant settled exactly once. *)
  let settled = List.sort_uniq compare (List.map fst v.applied) in
  Alcotest.(check int) "every participant settled once"
    (List.length votes) (List.length v.applied);
  Alcotest.(check int) "no double-settle" (List.length votes)
    (List.length settled)

(* Enumerate every delivery order exhaustively with a DFS over choice
   prefixes, replaying from scratch per path. Returns explored count. *)
let explore_exhaustive variant ~votes =
  let explored = ref 0 in
  (* A path is a list of chosen indices; extend until a run completes
     without consulting beyond the path. *)
  let rec go path =
    (* Replay with the fixed prefix; the first out-of-prefix choice point
       records the branching factor so we can enumerate siblings. *)
    let step = ref 0 in
    let pending_branch = ref None in
    let choose n =
      let k = !step in
      incr step;
      if k < List.length path then List.nth path k
      else begin
        if !pending_branch = None then pending_branch := Some (k, n);
        0
      end
    in
    let v = run_once variant ~votes ~choose in
    match !pending_branch with
    | None ->
      incr explored;
      check_verdict ~votes v
    | Some (_, n) ->
      (* The run made it to the end taking 0 at the first free choice;
         its verdict is checked when the path fully covers the run. *)
      for i = 0 to n - 1 do
        go (path @ [ i ])
      done
  in
  go [];
  !explored

let test_exhaustive_n2_commit () =
  let votes = [ ("p1", true); ("p2", true) ] in
  List.iter
    (fun variant ->
      let n = explore_exhaustive variant ~votes in
      (* Presumed-commit skips commit acks, so its state space is the
         smallest; basic/PrA interleave vote and ack deliveries. *)
      let minimum = match variant with Tpc.Presumed_commit -> 4 | _ -> 24 in
      Alcotest.(check bool)
        (Printf.sprintf "%s explored >= %d orders (got %d)"
           (Tpc.variant_name variant) minimum n)
        true (n >= minimum))
    [ Tpc.Basic; Tpc.Presumed_abort; Tpc.Presumed_commit ]

let test_exhaustive_n2_abort () =
  List.iter
    (fun votes ->
      List.iter
        (fun variant -> ignore (explore_exhaustive variant ~votes))
        [ Tpc.Basic; Tpc.Presumed_abort; Tpc.Presumed_commit ])
    [
      [ ("p1", false); ("p2", true) ];
      [ ("p1", true); ("p2", false) ];
      [ ("p1", false); ("p2", false) ];
    ]

let test_sampled_n4 () =
  (* n = 4 with mixed votes: 20k seeded random delivery orders per
     variant. *)
  let votes = [ ("p1", true); ("p2", false); ("p3", true); ("p4", true) ] in
  List.iter
    (fun variant ->
      let rng = Splitmix.create 1234L in
      for _ = 1 to 20_000 do
        let v = run_once variant ~votes ~choose:(fun n -> Splitmix.int rng n) in
        check_verdict ~votes v
      done)
    [ Tpc.Basic; Tpc.Presumed_abort; Tpc.Presumed_commit ]

let test_sampled_n5_all_yes () =
  let votes = List.init 5 (fun i -> (Printf.sprintf "p%d" i, true)) in
  let rng = Splitmix.create 77L in
  for _ = 1 to 10_000 do
    let v = run_once Tpc.Basic ~votes ~choose:(fun n -> Splitmix.int rng n) in
    check_verdict ~votes v
  done

(* ------------------------------------------------------------------ *)
(* Full 2PV / 2PVC: Tm_machine x Ps_machine delivery-order exploration  *)
(* ------------------------------------------------------------------ *)

let policy_at ~domain ~version =
  let rec bump p = if p.Policy.version >= version then p else bump (Policy.amend p []) in
  bump (Policy.create ~domain [])

(* The sans-IO split makes the whole protocol explorable: the harness
   below binds a {!Tm_machine} and one {!Ps_machine} per server to a pure
   fake of everything the drivers normally supply — a store that always
   executes, a policy replica reduced to a version integer, a proof
   evaluator reduced to a truth bit per server, and a master frozen at one
   version.  Every message the machines emit lands in an in-flight pool
   whose delivery order [choose] controls, so the exploration covers full
   2PVC runs with validation, Update re-polls and master retrievals —
   not just the 2PC kernel above. *)

type world = {
  w_versions : int array;  (** Initial replica version of domain "d", per server. *)
  w_master : int;  (** The master's (frozen) latest version. *)
  w_proof_ok : bool array;  (** Truth value of every proof a server evaluates. *)
  w_integrity : bool array;  (** The server's 2PC integrity vote. *)
  w_die_at : int option;  (** Execution reports a wait-die kill at this query. *)
  w_queries : int;  (** u; query [i] targets server [i mod n]. *)
}

let world ?(master = 1) ?die_at ?proof_ok ?integrity ~queries versions =
  let n = Array.length versions in
  {
    w_versions = versions;
    w_master = master;
    w_proof_ok = Option.value proof_ok ~default:(Array.make n true);
    w_integrity = Option.value integrity ~default:(Array.make n true);
    w_die_at = die_at;
    w_queries = queries;
  }

let pname i = Printf.sprintf "p%d" (i + 1)

let pindex name =
  int_of_string (String.sub name 1 (String.length name - 1)) - 1

(* Distinct servers the world's transaction involves. *)
let involved w =
  let n = Array.length w.w_versions in
  List.sort_uniq compare (List.init w.w_queries (fun i -> i mod n))

(* The outcome every delivery order must produce (AC2's analogue for
   2PVC): commit iff nothing died, every involved proof holds, every
   involved vote is YES, and the scheme's version condition is met —
   Incremental Punctual cannot reconcile stale replicas, the validating
   schemes converge via Update rounds. *)
let expected_commit w scheme level =
  let inv = involved w in
  let all f = List.for_all f inv in
  w.w_die_at = None
  && all (fun i -> w.w_proof_ok.(i))
  && all (fun i -> w.w_integrity.(i))
  &&
  match (scheme, level) with
  | Scheme.Incremental_punctual, Consistency.View ->
    all (fun i -> w.w_versions.(i) = w.w_versions.(List.hd inv))
  | Scheme.Incremental_punctual, Consistency.Global ->
    all (fun i -> w.w_versions.(i) = w.w_master)
  | (Scheme.Deferred | Scheme.Punctual | Scheme.Continuous), _ -> true

type full_verdict = {
  f_committed : bool;
  f_reason : string;
  f_finishes : int;
  f_applied : (string * bool) list;  (** (server, decision applied). *)
  f_view : View.t;
}

let run_full w ~scheme ~level ~master_mode ~choose =
  let n = Array.length w.w_versions in
  let versions = Array.copy w.w_versions in
  let queries =
    List.init w.w_queries (fun i ->
        Query.make
          ~id:(Printf.sprintf "t-q%d" (i + 1))
          ~server:(pname (i mod n))
          ~writes:[ (Printf.sprintf "k%d" i, Value.Set (Value.Int i)) ]
          ())
  in
  let txn = Transaction.make ~id:"t" ~subject:"alice" queries in
  let cfg = Tm.config ~master_mode scheme level in
  let tm = Tm.create cfg txn ~submitted_at:0. in
  let parts = Array.init n (fun i -> Ps.create ~name:(pname i) ()) in
  let flight = ref [] in
  let applied = ref [] in
  let finishes = ref 0 in
  let committed = ref false in
  let reason = ref "" in
  let post src dst msg = flight := !flight @ [ (src, dst, msg) ] in
  let fake_proof i ~query_id =
    {
      Proof.query_id;
      server = pname i;
      domain = "d";
      policy_version = versions.(i);
      evaluated_at = 0.;
      credential_ids = [];
      request = { Proof.subject = "alice"; action = "write"; items = [] };
      result = w.w_proof_ok.(i);
      failures = (if w.w_proof_ok.(i) then [] else [ Proof.Denied "modelled" ]);
    }
  in
  let rec ps_perform i a =
    match a with
    | Ps.Send { dst; msg; _ } -> post (pname i) dst msg
    | Ps.Begin_work _ -> ()
    | Ps.Exec { txn; query; evaluate; reply_to; _ } ->
      let result =
        match w.w_die_at with
        | Some k when query.Query.id = Printf.sprintf "t-q%d" (k + 1) -> Ps.Die
        | Some _ | None -> Ps.Executed []
      in
      ps_dispatch i (Ps.Exec_result { txn; query; evaluate; reply_to; result })
    | Ps.Eval { txn; queries; with_proofs; with_policies; cont; _ } ->
      let proofs =
        if with_proofs then
          List.map (fun (q : Query.t) -> fake_proof i ~query_id:q.Query.id) queries
        else []
      in
      let policies =
        if with_policies then [ policy_at ~domain:"d" ~version:versions.(i) ]
        else []
      in
      ps_dispatch i (Ps.Evaluated { txn; proofs; policies; cont })
    | Ps.Prepare { txn; _ } ->
      (* The store's prepare computes the integrity vote (proof truth is
         only logged), mirroring [Server.prepare]. *)
      ps_dispatch i (Ps.Prepared { txn; vote = w.w_integrity.(i) })
    | Ps.Check_read_only { txn; reply_to; round } ->
      (* Model transactions always write. *)
      ps_dispatch i
        (Ps.Read_only_result
           { txn; reply_to; round; read_only = false; integrity_ok = false })
    | Ps.Apply { commit; _ } -> applied := (pname i, commit) :: !applied
    | Ps.Forget _ -> ()
    | Ps.Install { policies; _ } ->
      List.iter
        (fun (p : Policy.t) ->
          if String.equal p.Policy.domain "d" then
            versions.(i) <- max versions.(i) p.Policy.version)
        policies
    | Ps.Wait_open _ | Ps.Wait_close _ | Ps.Arm_inquiry _ | Ps.Mark _ -> ()
  and ps_dispatch i input = List.iter (ps_perform i) (Ps.handle parts.(i) input) in
  let tm_perform a =
    match a with
    | Tm.Send { dst; msg } -> post (Tm.name tm) dst msg
    | Tm.Arm_watchdog _ | Tm.Arm_retry _ ->
      (* vote_timeout and decision_retry are 0: timers are never armed. *)
      assert false
    | Tm.Force_log | Tm.Mark _ | Tm.Obs _ -> ()
    | Tm.Finish { committed = c; reason = r; _ } ->
      incr finishes;
      committed := c;
      reason := Outcome.reason_name r
  in
  List.iter tm_perform (Tm.start tm);
  let steps = ref 0 in
  while !flight <> [] do
    incr steps;
    if !steps > 10_000 then failwith "full 2pvc model check: no termination";
    let k = choose (List.length !flight) in
    let src, dst, msg = List.nth !flight k in
    flight := List.filteri (fun j _ -> j <> k) !flight;
    if String.equal dst "master" then (
      match msg with
      | Msg.Master_version_request { txn } ->
        post "master" src
          (Msg.Master_version_reply
             { txn; policies = [ policy_at ~domain:"d" ~version:w.w_master ] })
      | _ -> assert false)
    else if String.equal dst (Tm.name tm) then
      List.iter tm_perform (Tm.handle tm (Tm.Deliver { src; msg }))
    else ps_dispatch (pindex dst) (Ps.Deliver { src; msg })
  done;
  if !finishes = 0 then failwith "full 2pvc model check: no decision";
  {
    f_committed = !committed;
    f_reason = !reason;
    f_finishes = !finishes;
    f_applied = !applied;
    f_view = Tm.view tm;
  }

let check_full_verdict w ~scheme ~level v =
  let ctx =
    Printf.sprintf "%s/%s" (Scheme.name scheme) (Consistency.name level)
  in
  (* AC3: the TM decides exactly once. *)
  if v.f_finishes <> 1 then
    Alcotest.failf "%s: decided %d times" ctx v.f_finishes;
  (* AC2 analogue: the outcome is a function of the world, never of the
     delivery order. *)
  let expect = expected_commit w scheme level in
  if v.f_committed <> expect then
    Alcotest.failf "%s: committed %b (reason %s), expected %b" ctx
      v.f_committed v.f_reason expect;
  (* AC1: every applied decision agrees with the TM's. *)
  List.iter
    (fun (server, commit) ->
      if commit <> v.f_committed then
        Alcotest.failf "%s: %s applied %b against outcome %b" ctx server commit
          v.f_committed)
    v.f_applied;
  let appliers = List.map fst v.f_applied in
  if List.length (List.sort_uniq compare appliers) <> List.length appliers then
    Alcotest.failf "%s: a server settled twice" ctx;
  if v.f_committed then begin
    (* Termination/completeness: a commit reaches every involved server. *)
    if List.length v.f_applied <> List.length (involved w) then
      Alcotest.failf "%s: commit applied at %d of %d servers" ctx
        (List.length v.f_applied)
        (List.length (involved w));
    (* Soundness: every committed leaf satisfies the scheme's own
       trusted-transaction definition (phi under view, psi under global). *)
    match
      Trusted.check scheme ~level
        ~latest:(fun _domain -> Some w.w_master)
        v.f_view
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: committed but untrusted: %s" ctx e
  end

(* DFS over delivery orders: run the all-zeros continuation of [prefix]
   once, record the branching factor of every free choice point, then
   recurse on each unexplored sibling.  Each leaf replays exactly once. *)
let explore_full ~run ~check =
  let explored = ref 0 in
  let rec go prefix =
    let free = ref [] in
    let step = ref 0 in
    let choose n =
      let k = !step in
      incr step;
      if k < Array.length prefix then prefix.(k)
      else begin
        free := n :: !free;
        0
      end
    in
    let v = run ~choose in
    incr explored;
    check v;
    let free = List.rev !free in
    List.iteri
      (fun j n ->
        for i = 1 to n - 1 do
          let zeros = Array.make j 0 in
          go (Array.concat [ prefix; zeros; [| i |] ])
        done)
      free
  in
  go [||];
  !explored

let full_worlds =
  [
    ("clean", world ~queries:2 [| 1; 1 |]);
    ("stale-replica", world ~queries:2 ~master:3 [| 1; 2 |]);
    ("proof-false", world ~queries:2 ~proof_ok:[| true; false |] [| 1; 1 |]);
    ("integrity-no", world ~queries:2 ~integrity:[| true; false |] [| 1; 1 |]);
    ("wait-die", world ~queries:2 ~die_at:1 [| 1; 1 |]);
    ("single-server", world ~queries:2 ~master:2 [| 2 |]);
  ]

let all_combos =
  List.concat_map
    (fun scheme ->
      List.map (fun level -> (scheme, level))
        [ Consistency.View; Consistency.Global ])
    Scheme.all

let test_full_2pvc_exhaustive_n2 () =
  let total = ref 0 in
  List.iter
    (fun (wname, w) ->
      List.iter
        (fun (scheme, level) ->
          let explored =
            explore_full
              ~run:(run_full w ~scheme ~level ~master_mode:`Every_round)
              ~check:(check_full_verdict w ~scheme ~level)
          in
          if explored < 1 then
            Alcotest.failf "%s/%s/%s: nothing explored" wname
              (Scheme.name scheme) (Consistency.name level);
          total := !total + explored)
        all_combos)
    full_worlds;
  (* Sanity: the exploration is genuinely branching, not a single trace
     per configuration (48 configurations in all). *)
  Alcotest.(check bool)
    (Printf.sprintf "explored a real state space (%d leaves)" !total)
    true (!total > 2_000)

let test_full_2pvc_exhaustive_master_once () =
  (* `Once master retrieval changes the fetch pattern, not the outcome. *)
  let w = List.assoc "stale-replica" full_worlds in
  List.iter
    (fun scheme ->
      ignore
        (explore_full
           ~run:(run_full w ~scheme ~level:Consistency.Global ~master_mode:`Once)
           ~check:(check_full_verdict w ~scheme ~level:Consistency.Global)))
    Scheme.all

let test_full_2pvc_sampled_n4 () =
  (* Four servers, four queries, skewed replicas and a mixed-vote world:
     seeded random delivery orders across every scheme x level. *)
  let worlds =
    [
      world ~queries:4 ~master:3 [| 1; 2; 3; 1 |];
      world ~queries:4 ~master:2
        ~integrity:[| true; true; false; true |]
        [| 2; 2; 2; 2 |];
      world ~queries:4 ~master:2 ~proof_ok:[| true; true; true; false |]
        [| 1; 1; 2; 2 |];
    ]
  in
  List.iter
    (fun w ->
      List.iter
        (fun (scheme, level) ->
          let rng = Splitmix.create 4242L in
          for _ = 1 to 400 do
            let v =
              run_full w ~scheme ~level ~master_mode:`Every_round
                ~choose:(fun n -> Splitmix.int rng n)
            in
            check_full_verdict w ~scheme ~level v
          done)
        all_combos)
    worlds

(* ------------------------------------------------------------------ *)
(* Validation order-invariance                                         *)
(* ------------------------------------------------------------------ *)

let resolution_label = function
  | Validation.Abort_integrity -> "abort-integrity"
  | Validation.Abort_proof -> "abort-proof"
  | Validation.All_consistent_true -> "ok"
  | Validation.Need_update updates ->
    "update:" ^ String.concat "," (List.sort compare (List.map fst updates))

let prop_validation_order_invariant =
  (* Random reply sets delivered in random orders resolve identically. *)
  let gen =
    QCheck.Gen.(
      let* n = 2 -- 5 in
      let* replies =
        flatten_l
          (List.init n (fun i ->
               let* integrity = bool in
               let* version = 1 -- 3 in
               return (Printf.sprintf "p%d" i, integrity, version)))
      in
      let* seed = map Int64.of_int big_nat in
      return (replies, seed))
  in
  QCheck.Test.make ~name:"validation resolution is order-invariant" ~count:300
    (QCheck.make gen)
    (fun (replies, seed) ->
      let participants = List.map (fun (p, _, _) -> p) replies in
      let resolve order =
        let v = Validation.create ~participants ~with_integrity:true () in
        List.iter
          (fun (p, integrity, version) ->
            ignore
              (Validation.add_reply v ~from:p ~integrity ~proofs:[]
                 ~policies:[ policy_at ~domain:"d" ~version ]))
          order;
        resolution_label (Validation.resolve v)
      in
      let base = resolve replies in
      (* A few seeded shuffles. *)
      let rng = Splitmix.create seed in
      let shuffle l =
        let arr = Array.of_list l in
        for i = Array.length arr - 1 downto 1 do
          let j = Splitmix.int rng (i + 1) in
          let tmp = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- tmp
        done;
        Array.to_list arr
      in
      List.for_all
        (fun _ -> String.equal base (resolve (shuffle replies)))
        [ 1; 2; 3 ])

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "model_check"
    [
      ( "tpc",
        [
          Alcotest.test_case "exhaustive n=2 commit" `Quick test_exhaustive_n2_commit;
          Alcotest.test_case "exhaustive n=2 aborts" `Quick test_exhaustive_n2_abort;
          Alcotest.test_case "sampled n=4 mixed votes" `Slow test_sampled_n4;
          Alcotest.test_case "sampled n=5 all yes" `Slow test_sampled_n5_all_yes;
        ] );
      ( "2pvc",
        [
          Alcotest.test_case "exhaustive n=2, all schemes and worlds" `Quick
            test_full_2pvc_exhaustive_n2;
          Alcotest.test_case "exhaustive n=2, master fetched once" `Quick
            test_full_2pvc_exhaustive_master_once;
          Alcotest.test_case "sampled n=4, skewed and mixed worlds" `Slow
            test_full_2pvc_sampled_n4;
        ] );
      ("validation", [ qc prop_validation_order_invariant ]);
    ]
