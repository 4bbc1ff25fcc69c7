(* Unit and property tests for the discrete-event simulator. *)

module Splitmix = Cloudtx_sim.Splitmix
module Event_heap = Cloudtx_sim.Event_heap
module Engine = Cloudtx_sim.Engine
module Latency = Cloudtx_sim.Latency
module Network = Cloudtx_sim.Network
module Transport = Cloudtx_sim.Transport
module Trace = Cloudtx_sim.Trace
module Registry = Cloudtx_obs.Registry

(* ------------------------------------------------------------------ *)
(* Splitmix                                                            *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Splitmix.create 99L and b = Splitmix.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix.next_int64 a)
      (Splitmix.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Splitmix.create 1L and b = Splitmix.create 2L in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Int64.equal (Splitmix.next_int64 a) (Splitmix.next_int64 b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_split_independence () =
  (* The split stream must not mirror the parent. *)
  let parent = Splitmix.create 7L in
  let child = Splitmix.split parent in
  let matches = ref 0 in
  for _ = 1 to 50 do
    if Int64.equal (Splitmix.next_int64 parent) (Splitmix.next_int64 child) then
      incr matches
  done;
  Alcotest.(check bool) "independent" true (!matches < 5)

let test_rng_errors () =
  let rng = Splitmix.create 1L in
  Alcotest.check_raises "int bound"
    (Invalid_argument "Splitmix.int: bound must be positive") (fun () ->
      ignore (Splitmix.int rng 0));
  Alcotest.check_raises "uniform"
    (Invalid_argument "Splitmix.uniform: lo must be < hi") (fun () ->
      ignore (Splitmix.uniform rng ~lo:2. ~hi:1.));
  Alcotest.check_raises "exponential"
    (Invalid_argument "Splitmix.exponential: mean must be positive") (fun () ->
      ignore (Splitmix.exponential rng ~mean:0.));
  Alcotest.check_raises "choice"
    (Invalid_argument "Splitmix.choice: empty array") (fun () ->
      ignore (Splitmix.choice rng [||]))

let prop_float_range =
  QCheck.Test.make ~name:"float in [0,1)" ~count:500 QCheck.int64 (fun seed ->
      let rng = Splitmix.create seed in
      let x = Splitmix.float rng in
      x >= 0. && x < 1.)

let prop_int_range =
  QCheck.Test.make ~name:"int in [0,bound)" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Splitmix.create seed in
      let x = Splitmix.int rng bound in
      x >= 0 && x < bound)

let prop_exponential_nonneg =
  QCheck.Test.make ~name:"exponential nonnegative" ~count:200 QCheck.int64
    (fun seed ->
      let rng = Splitmix.create seed in
      Splitmix.exponential rng ~mean:5. >= 0.)

(* ------------------------------------------------------------------ *)
(* Event_heap                                                          *)
(* ------------------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Event_heap.create () in
  Event_heap.push h ~time:3. ~seq:0 "c";
  Event_heap.push h ~time:1. ~seq:1 "a";
  Event_heap.push h ~time:2. ~seq:2 "b";
  let pop () =
    match Event_heap.pop h with Some (_, _, v) -> v | None -> "EMPTY"
  in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ p1; p2; p3 ];
  Alcotest.(check bool) "empty" true (Event_heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Event_heap.create () in
  List.iteri (fun i v -> Event_heap.push h ~time:5. ~seq:i v) [ "x"; "y"; "z" ];
  let pop () =
    match Event_heap.pop h with Some (_, _, v) -> v | None -> "EMPTY"
  in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  Alcotest.(check (list string)) "FIFO at same time" [ "x"; "y"; "z" ]
    [ p1; p2; p3 ]

let test_heap_peek () =
  let h = Event_heap.create () in
  Alcotest.(check (option (float 0.))) "peek empty" None (Event_heap.peek_time h);
  Event_heap.push h ~time:4.2 ~seq:0 ();
  Alcotest.(check (option (float 1e-9))) "peek" (Some 4.2) (Event_heap.peek_time h)

(* Push a value per time, pop the earliest; a weak pointer to it.  The
   values are allocated here, so nothing on the caller's stack keeps the
   popped one alive. *)
let push_then_pop_first h ~times =
  let w = Weak.create 1 in
  List.iteri
    (fun i time ->
      let v = ref i in
      if i = 0 then Weak.set w 0 (Some v);
      Event_heap.push h ~time ~seq:i v)
    times;
  ignore (Sys.opaque_identity (Event_heap.pop h));
  w
[@@inline never]

(* A popped value (the simulator's event closure) must not stay
   reachable from the heap's array, whether the heap drained or not. *)
let test_heap_releases_popped () =
  let drained = Event_heap.create () in
  let w_drained = push_then_pop_first drained ~times:[ 1. ] in
  let busy = Event_heap.create () in
  let w_busy = push_then_pop_first busy ~times:[ 1.; 5.; 3.; 4.; 2. ] in
  Gc.full_major ();
  Alcotest.(check bool) "drained heap released it" false (Weak.check w_drained 0);
  Alcotest.(check bool) "busy heap released it" false (Weak.check w_busy 0);
  Alcotest.(check int) "survivors kept" 4 (Event_heap.size busy);
  Alcotest.(check (option (float 0.))) "next is earliest" (Some 2.)
    (Event_heap.peek_time busy)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in (time, seq) order" ~count:200
    QCheck.(list_of_size Gen.(0 -- 100) (float_range 0. 1000.))
    (fun times ->
      let h = Event_heap.create () in
      List.iteri (fun i time -> Event_heap.push h ~time ~seq:i i) times;
      let rec drain acc =
        match Event_heap.pop h with
        | None -> List.rev acc
        | Some (time, seq, _) -> drain ((time, seq) :: acc)
      in
      let out = drain [] in
      let rec sorted = function
        | (t1, s1) :: ((t2, s2) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && s1 < s2)) && sorted rest
        | [ _ ] | [] -> true
      in
      List.length out = List.length times && sorted out)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_order_and_time () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:10. (fun () -> log := ("b", Engine.now e) :: !log);
  Engine.schedule e ~delay:5. (fun () -> log := ("a", Engine.now e) :: !log);
  Engine.schedule e ~delay:20. (fun () -> log := ("c", Engine.now e) :: !log);
  Alcotest.(check int) "pending" 3 (Engine.pending e);
  let reason = Engine.run e in
  Alcotest.(check bool) "quiescent" true (reason = `Quiescent);
  Alcotest.(check (list (pair string (float 1e-9))))
    "execution order with clock"
    [ ("a", 5.); ("b", 10.); ("c", 20.) ]
    (List.rev !log);
  Alcotest.(check int) "steps" 3 (Engine.steps e)

let test_engine_cascading () =
  let e = Engine.create () in
  let hits = ref 0 in
  let rec ping n =
    if n > 0 then
      Engine.schedule e ~delay:1. (fun () ->
          incr hits;
          ping (n - 1))
  in
  ping 5;
  ignore (Engine.run e);
  Alcotest.(check int) "cascade depth" 5 !hits;
  Alcotest.(check (float 1e-9)) "clock advanced" 5. (Engine.now e)

let test_engine_until () =
  let e = Engine.create () in
  let hits = ref 0 in
  List.iter
    (fun d -> Engine.schedule e ~delay:d (fun () -> incr hits))
    [ 1.; 2.; 50. ];
  let reason = Engine.run ~until:10. e in
  Alcotest.(check bool) "time limited" true (reason = `Time_limit);
  Alcotest.(check int) "only early events ran" 2 !hits;
  ignore (Engine.run e);
  Alcotest.(check int) "rest ran" 3 !hits

let test_engine_max_steps () =
  let e = Engine.create () in
  for _ = 1 to 10 do
    Engine.schedule e ~delay:1. (fun () -> ())
  done;
  let reason = Engine.run ~max_steps:4 e in
  Alcotest.(check bool) "step limited" true (reason = `Step_limit);
  Alcotest.(check int) "pending remain" 6 (Engine.pending e)

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let ran_at = ref (-1.) in
  Engine.schedule e ~delay:5. (fun () ->
      Engine.schedule e ~delay:(-10.) (fun () -> ran_at := Engine.now e));
  ignore (Engine.run e);
  Alcotest.(check (float 1e-9)) "clamped to now" 5. !ran_at

(* ------------------------------------------------------------------ *)
(* Latency / Network                                                   *)
(* ------------------------------------------------------------------ *)

let prop_latency_nonneg =
  QCheck.Test.make ~name:"latency samples nonnegative" ~count:300 QCheck.int64
    (fun seed ->
      let rng = Splitmix.create seed in
      Latency.sample Latency.lan rng >= 0.
      && Latency.sample Latency.wan rng >= 0.
      && Latency.sample (Latency.Constant 3.) rng = 3.)

(* A message's fate with every copy pulled: the delays in order, or
   [`Lost]. *)
let fate net ~src ~dst =
  let first = Network.first_copy net ~src ~dst in
  if first < 0. then `Lost
  else
    let rec copies acc =
      let delay = Network.next_copy net in
      if delay < 0. then `Deliver_each (List.rev acc) else copies (delay :: acc)
    in
    copies [ first ]

let test_network_partition () =
  let rng = Splitmix.create 3L in
  let net = Network.create ~latency:(Latency.Constant 1.) ~rng in
  Alcotest.(check bool) "initially connected" true
    (match fate net ~src:"a" ~dst:"b" with
    | `Deliver_each _ -> true
    | `Lost -> false);
  Network.partition net "a" "b";
  Alcotest.(check bool) "partitioned symmetric" true
    (Network.partitioned net "b" "a");
  Alcotest.(check bool) "lost" true
    (fate net ~src:"b" ~dst:"a" = `Lost);
  Network.heal net "a" "b";
  Alcotest.(check bool) "healed" false (Network.partitioned net "a" "b")

let test_network_self_delivery () =
  let rng = Splitmix.create 3L in
  let net = Network.create ~latency:(Latency.Constant 9.) ~rng in
  Network.set_drop net 1.0;
  (* Even with 100% drop, self-messages are instant and reliable. *)
  Alcotest.(check bool) "self" true
    (fate net ~src:"a" ~dst:"a" = `Deliver_each [ 0. ])

let test_network_link_override () =
  let rng = Splitmix.create 3L in
  let net = Network.create ~latency:(Latency.Constant 1.) ~rng in
  Network.set_link net "east" "west" (Latency.Constant 25.);
  Alcotest.(check bool) "overridden link" true
    (fate net ~src:"west" ~dst:"east" = `Deliver_each [ 25. ]);
  Alcotest.(check bool) "other links unchanged" true
    (fate net ~src:"east" ~dst:"east2" = `Deliver_each [ 1. ]);
  Network.clear_link net "east" "west";
  Alcotest.(check bool) "cleared" true
    (fate net ~src:"east" ~dst:"west" = `Deliver_each [ 1. ])

let test_network_drop_all () =
  let rng = Splitmix.create 3L in
  let net = Network.create ~latency:(Latency.Constant 1.) ~rng in
  Network.set_drop net 1.0;
  Alcotest.(check bool) "dropped" true (fate net ~src:"a" ~dst:"b" = `Lost)

let test_network_duplicate_all () =
  let rng = Splitmix.create 3L in
  let net = Network.create ~latency:(Latency.Constant 1.) ~rng in
  Network.set_duplicate net 0.5;
  let max_copies = ref 0 in
  for _ = 1 to 50 do
    match fate net ~src:"a" ~dst:"b" with
    | `Deliver_each delays ->
      max_copies := max !max_copies (List.length delays);
      List.iter
        (fun d -> Alcotest.(check (float 0.)) "constant latency" 1. d)
        delays
    | `Lost -> Alcotest.fail "no drop configured"
  done;
  Alcotest.(check bool) "some message was duplicated" true (!max_copies >= 2);
  Network.set_duplicate net 0.;
  Alcotest.(check bool) "default restored: single copy" true
    (fate net ~src:"a" ~dst:"b" = `Deliver_each [ 1. ])

let test_network_reorder_jitter () =
  let rng = Splitmix.create 3L in
  let net = Network.create ~latency:(Latency.Constant 1.) ~rng in
  Network.set_reorder_jitter net (Some (Latency.Uniform { lo = 0.; hi = 10. }));
  let saw_jitter = ref false in
  for _ = 1 to 20 do
    match fate net ~src:"a" ~dst:"b" with
    | `Deliver_each [ d ] ->
      Alcotest.(check bool) "at least base latency" true (d >= 1.);
      if d > 1. then saw_jitter := true
    | _ -> Alcotest.fail "expected one copy"
  done;
  Alcotest.(check bool) "jitter applied" true !saw_jitter;
  Network.set_reorder_jitter net None;
  Alcotest.(check bool) "jitter cleared" true
    (fate net ~src:"a" ~dst:"b" = `Deliver_each [ 1. ])

let test_network_defaults_identical_draws () =
  (* Same seed, with and without the fault knobs set to 0: identical
     RNG draw order, so existing runs stay bit-identical. *)
  let draws seed knobs =
    let rng = Splitmix.create seed in
    let net = Network.create ~latency:Latency.lan ~rng in
    if knobs then begin
      Network.set_drop net 0.;
      Network.set_duplicate net 0.
    end;
    List.init 40 (fun _ ->
        match fate net ~src:"a" ~dst:"b" with
        | `Deliver_each delays -> delays
        | `Lost -> [])
  in
  Alcotest.(check bool) "identical delivery schedule" true
    (draws 7L false = draws 7L true)

(* ------------------------------------------------------------------ *)
(* Transport                                                           *)
(* ------------------------------------------------------------------ *)

let make_transport () =
  Transport.create ~seed:11L ~latency:(Latency.Constant 1.)
    ~label_of:(fun s -> s)
    ()

let test_transport_delivery () =
  let t = make_transport () in
  let registry = Transport.enable_metrics t in
  let inbox = ref [] in
  Transport.register t "alice" (fun ~src msg -> inbox := (src, msg) :: !inbox);
  Transport.register t "bob" (fun ~src:_ _ -> ());
  Transport.send t ~src:"bob" ~dst:"alice" "hello";
  Transport.send t ~src:"bob" ~dst:"alice" "world";
  ignore (Transport.run t);
  Alcotest.(check (list (pair string string)))
    "delivered in order"
    [ ("bob", "hello"); ("bob", "world") ]
    (List.rev !inbox);
  Alcotest.(check int) "messages counted" 2
    (Registry.counter_total registry "messages_total");
  Alcotest.(check int) "labeled" 1
    (Registry.counter registry "messages_total" [ ("type", "hello") ])

let test_transport_duplicate_registration () =
  let t = make_transport () in
  Transport.register t "x" (fun ~src:_ _ -> ());
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Transport.register: duplicate node x") (fun () ->
      Transport.register t "x" (fun ~src:_ _ -> ()))

let test_transport_crash_swallows () =
  let t = make_transport () in
  let got = ref 0 in
  Transport.register t "a" (fun ~src:_ _ -> incr got);
  Transport.register t "b" (fun ~src:_ _ -> ());
  Transport.crash t "a";
  Transport.send t ~src:"b" ~dst:"a" "m1";
  ignore (Transport.run t);
  Alcotest.(check int) "swallowed" 0 !got;
  Transport.recover t "a";
  Transport.send t ~src:"b" ~dst:"a" "m2";
  ignore (Transport.run t);
  Alcotest.(check int) "delivered after recover" 1 !got

let test_transport_unknown_destination () =
  let t = make_transport () in
  let tracer = Transport.enable_tracing t in
  Transport.register t "a" (fun ~src:_ _ -> ());
  Transport.send t ~src:"a" ~dst:"ghost" "m";
  ignore (Transport.run t);
  let drops =
    List.filter
      (fun (e : Trace.entry) ->
        match e.Trace.kind with Trace.Drop _ -> true | _ -> false)
      (Trace.of_tracer tracer)
  in
  Alcotest.(check int) "traced as drop" 1 (List.length drops)

let test_trace_marks_and_messages () =
  let t = make_transport () in
  let tracer = Transport.enable_tracing t in
  Transport.register t "a" (fun ~src:_ _ -> ());
  Transport.register t "b" (fun ~src:_ _ -> ());
  Transport.mark t ~node:"a" "proof_eval";
  Transport.send t ~src:"a" ~dst:"b" "ping";
  ignore (Transport.run t);
  (* A wal.force-style instant with attributes is not a mark, and spans
     are not wire events. *)
  Cloudtx_obs.Tracer.instant tracer ~track:"b" ~attrs:[ ("record", "x") ] "w";
  Cloudtx_obs.Tracer.finish tracer (Cloudtx_obs.Tracer.start tracer "span");
  Alcotest.(check (list string))
    "mark, send, delivery"
    [
      "     0.000  [a] proof_eval";
      "     0.000  a -> b : ping";
      "     1.000  a => b : ping (delivered)";
    ]
    (List.map (Format.asprintf "%a" Trace.pp_entry) (Trace.of_tracer tracer))

let test_trace_exporters () =
  let t = make_transport () in
  let tracer = Transport.enable_tracing t in
  Transport.register t "node-a" (fun ~src:_ _ -> ());
  Transport.register t "node-b" (fun ~src:_ _ -> ());
  Transport.mark t ~node:"node-a" "begin";
  Transport.send t ~src:"node-a" ~dst:"node-b" "ping, with comma";
  ignore (Transport.run t);
  let trace = Trace.of_tracer tracer in
  let mermaid = Trace.to_mermaid trace in
  Alcotest.(check bool) "mermaid header" true
    (String.length mermaid > 15 && String.sub mermaid 0 15 = "sequenceDiagram");
  Alcotest.(check bool) "mermaid arrow" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains mermaid "node_a->>node_b");
  let csv = Trace.to_csv trace in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "csv header" "time,kind,src,dst,label" (List.hd lines);
  (* mark + send + recv = 3 rows + header + trailing newline. *)
  Alcotest.(check int) "csv rows" 5 (List.length lines);
  Alcotest.(check bool) "comma quoted" true
    (List.exists
       (fun l ->
         let n = String.length l in
         n > 0 && String.contains l '"')
       lines)

(* With tracer and registry off the fabric keeps nothing per message:
   its reachable size after 10 000 send-then-run cycles equals its size
   after 10. *)
let test_transport_flat_memory () =
  let t = make_transport () in
  Transport.register t "a" (fun ~src:_ _ -> ());
  Transport.register t "b" (fun ~src:_ _ -> ());
  let cycles n =
    for _ = 1 to n do
      Transport.send t ~src:"a" ~dst:"b" "ping";
      ignore (Transport.run t)
    done
  in
  cycles 10;
  let after_10 = Obj.reachable_words (Obj.repr t) in
  cycles 9_990;
  Alcotest.(check int) "reachable words" after_10
    (Obj.reachable_words (Obj.repr t))

(* A quiet send allocates its delivery closure and a few float boxes, and
   the engine takes the event back without an option or a tuple: 1 000
   sends, then [run], stay within 24 minor words a send.  A send that
   built a fate list, tuple keys and a heap entry took 72. *)
let test_transport_send_allocation () =
  let t = Transport.create ~seed:11L ~label_of:Fun.id () in
  Transport.register t "a" (fun ~src:_ _ -> ());
  Transport.register t "b" (fun ~src:_ _ -> ());
  let sends = 1_000 in
  let cycle () =
    for _ = 1 to sends do
      Transport.send t ~src:"a" ~dst:"b" "ping"
    done;
    ignore (Transport.run t)
  in
  (* The first cycle grows the event heap's arrays. *)
  cycle ();
  let before = Gc.minor_words () in
  cycle ();
  let per_send = (Gc.minor_words () -. before) /. float_of_int sends in
  if per_send > 24. then
    Alcotest.failf "%.1f minor words per send, at most 24 expected" per_send

let test_deterministic_replay () =
  (* Two transports with the same seed produce identical traces. *)
  let run () =
    let t = Transport.create ~seed:77L ~latency:Latency.lan ~label_of:Fun.id () in
    let tracer = Transport.enable_tracing t in
    Transport.register t "a" (fun ~src:_ _ -> ());
    Transport.register t "b" (fun ~src:_ _ -> ());
    for i = 1 to 20 do
      Transport.send t ~src:"a" ~dst:"b" (Printf.sprintf "m%d" i)
    done;
    ignore (Transport.run t);
    Trace.to_string (Trace.of_tracer tracer)
  in
  Alcotest.(check string) "identical traces" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Node lifecycle: retirement                                          *)
(* ------------------------------------------------------------------ *)

let quiet t name = Transport.register t name (fun ~src:_ _ -> ())

let test_retire_idle () =
  let t = make_transport () in
  quiet t "a";
  Transport.retire t "a";
  Alcotest.(check bool) "removed at once" false (Transport.registered t "a");
  Transport.retire t "ghost";
  Alcotest.(check bool) "unknown name: no-op" false
    (Transport.registered t "ghost")

(* A copy in flight to the node: the retiring node still receives it, and
   is removed when it settles. *)
let test_retire_waits_for_inbound () =
  let t = make_transport () in
  let got = ref [] in
  Transport.register t "a" (fun ~src:_ msg -> got := msg :: !got);
  quiet t "b";
  Transport.send t ~src:"b" ~dst:"a" "late";
  Transport.retire t "a";
  Alcotest.(check bool) "kept while a copy is in flight" true
    (Transport.registered t "a");
  ignore (Transport.run t);
  Alcotest.(check (list string)) "retiring node received" [ "late" ] !got;
  Alcotest.(check bool) "removed after the last copy" false
    (Transport.registered t "a")

(* A copy in flight from the node: its peer's answer is sent inside the
   handler, before that copy settles, so it still reaches the retiring
   node — and its own answer is counted in turn. *)
let test_retire_waits_for_outbound () =
  let t = make_transport () in
  let got = ref [] in
  Transport.register t "a" (fun ~src:_ msg -> got := msg :: !got);
  Transport.register t "b" (fun ~src msg ->
      if String.equal msg "inquiry" then Transport.send t ~src:"b" ~dst:src "ack");
  Transport.send t ~src:"a" ~dst:"b" "inquiry";
  Transport.retire t "a";
  ignore (Transport.run ~max_steps:1 t);
  Alcotest.(check bool) "kept: the answer is in flight" true
    (Transport.registered t "a");
  ignore (Transport.run t);
  Alcotest.(check (list string)) "answer delivered" [ "ack" ] !got;
  Alcotest.(check bool) "removed after the answer" false
    (Transport.registered t "a");
  (* b's count settled too: retiring it now removes it at once. *)
  Transport.retire t "b";
  Alcotest.(check bool) "b idle" false (Transport.registered t "b")

let test_retiring_node_still_sends () =
  let t = make_transport () in
  let at_b = ref 0 in
  Transport.register t "a" (fun ~src msg ->
      Transport.send t ~src:"a" ~dst:src ("re:" ^ msg));
  Transport.register t "b" (fun ~src:_ _ -> incr at_b);
  Transport.send t ~src:"b" ~dst:"a" "q1";
  Transport.send t ~src:"b" ~dst:"a" "q2";
  Transport.retire t "a";
  ignore (Transport.run t);
  Alcotest.(check int) "both answered" 2 !at_b;
  Alcotest.(check bool) "then removed" false (Transport.registered t "a")

(* An old registration's count never removes the node that re-registered
   under the same name (a coordinator restart). *)
let test_reregistered_node_survives () =
  let t = make_transport () in
  quiet t "a";
  quiet t "b";
  Transport.send t ~src:"a" ~dst:"b" "m";
  Transport.retire t "a";
  Transport.unregister t "a";
  let got = ref 0 in
  Transport.register t "a" (fun ~src:_ _ -> incr got);
  ignore (Transport.run t);
  Alcotest.(check bool) "new registration kept" true
    (Transport.registered t "a");
  Transport.send t ~src:"b" ~dst:"a" "later";
  ignore (Transport.run t);
  Alcotest.(check int) "and receives" 1 !got

(* A reply that waits on local work (a participant's proof-delayed
   answer) holds its receiver from when it is scheduled. *)
let test_delayed_reply_keeps_receiver () =
  let t = make_transport () in
  let got = ref 0 in
  Transport.register t "tm" (fun ~src:_ _ -> incr got);
  quiet t "p";
  Transport.send_after t ~delay:5. ~src:"p" ~dst:"tm" "reply";
  Transport.retire t "tm";
  Alcotest.(check bool) "held by the delayed send" true
    (Transport.registered t "tm");
  ignore (Transport.run t);
  Alcotest.(check int) "reply delivered" 1 !got;
  Alcotest.(check bool) "removed after it" false (Transport.registered t "tm")

(* ------------------------------------------------------------------ *)
(* Duplicate suppression                                               *)
(* ------------------------------------------------------------------ *)

(* A fabric whose network duplicates half the sends and spreads copies
   over 10 ms, with a receiver [a] that counts deliveries per message. *)
let duplicating ~dedup =
  let t =
    Transport.create ~seed:5L ~latency:(Latency.Constant 1.) ~label_of:Fun.id ()
  in
  Network.set_duplicate (Transport.network t) 0.5;
  Network.set_reorder_jitter (Transport.network t)
    (Some (Latency.Uniform { lo = 0.; hi = 10. }));
  let tracer = Transport.enable_tracing t in
  let handled = Hashtbl.create 16 in
  Transport.register ~dedup t "a" (fun ~src:_ msg ->
      Hashtbl.replace handled msg
        (1 + Option.value ~default:0 (Hashtbl.find_opt handled msg)));
  quiet t "b";
  (t, tracer, handled)

let messages = List.init 30 (Printf.sprintf "m%d")

(* Per message: copies received, copies dropped, dedup marks. *)
let copies tracer msg =
  List.fold_left
    (fun (recv, drop, dedup) (e : Trace.entry) ->
      match e.Trace.kind with
      | Trace.Recv { label; _ } when label = msg -> (recv + 1, drop, dedup)
      | Trace.Drop { label; _ } when label = msg -> (recv, drop + 1, dedup)
      | Trace.Mark { node = "a"; label } when label = "dedup:" ^ msg ->
        (recv, drop, dedup + 1)
      | _ -> (recv, drop, dedup))
    (0, 0, 0) (Trace.of_tracer tracer)

let handled_count handled msg =
  Option.value ~default:0 (Hashtbl.find_opt handled msg)

let test_duplicates_suppressed () =
  let t, tracer, handled = duplicating ~dedup:true in
  List.iter (fun m -> Transport.send t ~src:"b" ~dst:"a" m) messages;
  Alcotest.(check bool) "some sends duplicated" true (Transport.filters t > 0);
  ignore (Transport.run t);
  List.iter
    (fun m ->
      let recv, _, dedup = copies tracer m in
      Alcotest.(check int) (m ^ ": handled once") 1 (handled_count handled m);
      Alcotest.(check int) (m ^ ": later copies marked") (recv - 1) dedup)
    messages;
  Alcotest.(check int) "every filter died with its last copy" 0
    (Transport.filters t)

let test_filter_lives_with_copies () =
  let t, tracer, _ = duplicating ~dedup:true in
  (* Send one message at a time until the network duplicates one. *)
  let rec find = function
    | [] -> Alcotest.fail "no send was duplicated"
    | m :: rest ->
      Transport.send t ~src:"b" ~dst:"a" m;
      if Transport.filters t = 0 then begin
        ignore (Transport.run t);
        find rest
      end
      else m
  in
  let m = find messages in
  let rec step () =
    if Transport.filters t > 0 then begin
      ignore (Transport.run ~max_steps:1 t);
      step ()
    end
  in
  step ();
  let recv, _, _ = copies tracer m in
  Alcotest.(check bool) "the filter outlived the first copy" true (recv > 1);
  ignore (Transport.run t);
  let recv', _, _ = copies tracer m in
  Alcotest.(check int) "and died with the last" recv recv'

(* [a] is down for the first 5 ms: a copy it swallowed was not delivered,
   so the first copy after it recovers reaches the handler. *)
let test_crashed_copy_not_delivered () =
  let t, tracer, handled = duplicating ~dedup:true in
  Transport.crash t "a";
  Transport.at t ~delay:5. (fun () -> Transport.recover t "a");
  List.iter (fun m -> Transport.send t ~src:"b" ~dst:"a" m) messages;
  ignore (Transport.run t);
  let straddled = ref 0 in
  List.iter
    (fun m ->
      let recv, drop, dedup = copies tracer m in
      if recv > 0 && drop > 0 then incr straddled;
      Alcotest.(check int) (m ^ ": handled iff a copy arrived")
        (if recv > 0 then 1 else 0)
        (handled_count handled m);
      Alcotest.(check int) (m ^ ": marks") (max 0 (recv - 1)) dedup)
    messages;
  Alcotest.(check bool) "some message lost a copy, then delivered one" true
    (!straddled > 0)

let test_no_dedup_delivers_every_copy () =
  let t, tracer, handled = duplicating ~dedup:false in
  List.iter (fun m -> Transport.send t ~src:"b" ~dst:"a" m) messages;
  ignore (Transport.run t);
  let extra = ref 0 in
  List.iter
    (fun m ->
      let recv, _, dedup = copies tracer m in
      extra := !extra + recv - 1;
      Alcotest.(check int) (m ^ ": every copy handled") recv
        (handled_count handled m);
      Alcotest.(check int) (m ^ ": no marks") 0 dedup)
    messages;
  Alcotest.(check bool) "some copies were duplicates" true (!extra > 0)

(* ------------------------------------------------------------------ *)
(* Goldens: streams and schedules pinned byte for byte                 *)
(* ------------------------------------------------------------------ *)

(* Every generator entry point on one seed, then on a split-off child,
   in this order: int64s in hex, floats as exact hex literals. *)
let splitmix_stream seed =
  let out = ref [] in
  let put s = out := s :: !out in
  let i64 rng = put (Printf.sprintf "%016Lx" (Splitmix.next_int64 rng)) in
  let fl x = put (Printf.sprintf "%h" x) in
  let rng = Splitmix.create seed in
  i64 rng;
  i64 rng;
  fl (Splitmix.float rng);
  fl (Splitmix.uniform rng ~lo:0.3 ~hi:0.8);
  fl (Splitmix.exponential rng ~mean:8.);
  put (string_of_int (Splitmix.int rng 1000));
  put (string_of_int (Splitmix.int rng max_int));
  put (string_of_bool (Splitmix.bool rng ~p:0.5));
  put (string_of_bool (Splitmix.bool rng ~p:0.5));
  let child = Splitmix.split rng in
  i64 child;
  fl (Splitmix.float child);
  i64 rng;
  List.rev !out

let test_splitmix_golden () =
  Alcotest.(check (list (list string)))
    "streams"
    [
      [
        "910a2dec89025cc1"; "beeb8da1658eec67"; "0x1.f12745ddf664ap-1";
        "0x1.0b5b202a87dc6p-1"; "0x1.9f6743baf77f3p+2"; "512";
        "4046056672035966761"; "false"; "true"; "905db5ffcc1ffba5";
        "0x1.c07c607ab54c1p-1"; "6775dc7701564f61";
      ];
      [
        "bdd732262feb6e95"; "28efe333b266f103"; "0x1.1d499d5c4c3e6p-2";
        "0x1.e36cf7314fc8fp-2"; "0x1.a27ae5afb651ap+4"; "265";
        "1007216178194406231"; "false"; "true"; "009120d21d0da7a9";
        "0x1.e573d4499962cp-2"; "3474724a775b19bf";
      ];
      [
        "6e789e6aa1b965f4"; "06c45d188009454f"; "0x1.f1177150e499p-1";
        "0x1.69a64607d6841p-2"; "0x1.1de6907abfd07p+3"; "728";
        "3558130466400086735"; "true"; "false"; "a7c30633227200be";
        "0x1.ce9aa78ac7d3dp-1"; "c2d326e0055bdef6";
      ];
    ]
    (List.map splitmix_stream [ 1L; 42L; 0x9E3779B97F4A7C15L ])

(* A seeded sequence of sends through three phases: a quiet network, one
   with every fault at once (loss, directional loss, duplication,
   reorder jitter, a WAN link, a partition, a slow node, a latency
   burst), then the faults cleared again.  Half the nodes suppress
   duplicates, short messages are answered, and one destination was
   never registered.  Every delivery's time, endpoints and payload go
   into one digest. *)
let transport_schedule () =
  let t = Transport.create ~seed:2024L ~label_of:Fun.id () in
  let net = Transport.network t in
  let nodes = [| "n0"; "n1"; "n2"; "n3"; "n4"; "ghost" |] in
  let log = Buffer.create 4096 in
  let deliveries = ref 0 in
  Array.iteri
    (fun i name ->
      if i < 5 then
        Transport.register ~dedup:(i mod 2 = 0) t name (fun ~src msg ->
            incr deliveries;
            Buffer.add_string log
              (Printf.sprintf "%h %s>%s %s\n" (Transport.now t) src name msg);
            if String.length msg < 5 then
              Transport.send t ~src:name ~dst:src (msg ^ "r")))
    nodes;
  let faults () =
    Network.set_drop net 0.05;
    Network.set_duplicate net 0.3;
    Network.set_reorder_jitter net
      (Some (Latency.Uniform { lo = 0.; hi = 2. }));
    Network.set_link net "n0" "n3" Latency.wan;
    Network.set_link_drop net ~src:"n1" ~dst:"n2" 0.3;
    Network.set_slowdown net "n2" 1.5;
    Network.set_burst_extra net 0.25;
    Network.partition net "n0" "n4"
  in
  let clear () =
    Network.set_drop net 0.;
    Network.set_duplicate net 0.;
    Network.set_reorder_jitter net None;
    Network.clear_link net "n0" "n3";
    Network.clear_link_drop net ~src:"n1" ~dst:"n2";
    Network.clear_slowdown net "n2";
    Network.set_burst_extra net 0.;
    Network.heal_all net
  in
  let rng = Splitmix.create 99L in
  for k = 0 to 239 do
    if k = 80 then faults ();
    if k = 160 then clear ();
    let src = nodes.(Splitmix.int rng 5) in
    let dst = nodes.(Splitmix.int rng 6) in
    Transport.send t ~src ~dst (Printf.sprintf "m%d" k);
    if k mod 16 = 15 then
      ignore (Transport.run ~until:(Transport.now t +. 1.) t)
  done;
  ignore (Transport.run t);
  (!deliveries, Digest.to_hex (Digest.string (Buffer.contents log)))

let test_transport_golden () =
  Alcotest.(check (pair int string))
    "deliveries and digest"
    (518, "1f3db8b4ff276f10a1a2d418a0f330e2")
    (transport_schedule ())

(* ------------------------------------------------------------------ *)
(* Reference: the list-returning network and the record heap           *)
(* ------------------------------------------------------------------ *)

(* The network model and the event heap as they were before the pull
   API and the struct-of-arrays heap.  Kept to pin the rewritten layers'
   draws, delays and pop order. *)
module Reference = struct
  module Network = struct
    module Pair_set = Set.Make (struct
      type t = string * string

      let compare = compare
    end)

    type t = {
      latency : Latency.t;
      rng : Splitmix.t;
      mutable drop : float;
      mutable duplicate : float;
      mutable reorder_jitter : Latency.t option;
      mutable partitions : Pair_set.t;
      links : (string * string, Latency.t) Hashtbl.t;
      link_drop : (string * string, float) Hashtbl.t;
      mutable burst_extra : float;
      slowdowns : (string, float) Hashtbl.t;
    }

    let create ~latency ~rng =
      {
        latency;
        rng;
        drop = 0.;
        duplicate = 0.;
        reorder_jitter = None;
        partitions = Pair_set.empty;
        links = Hashtbl.create 8;
        link_drop = Hashtbl.create 8;
        burst_extra = 0.;
        slowdowns = Hashtbl.create 8;
      }

    let canonical a b = if String.compare a b <= 0 then (a, b) else (b, a)
    let set_link t a b model = Hashtbl.replace t.links (canonical a b) model

    let set_link_drop t ~src ~dst p =
      if p <= 0. then Hashtbl.remove t.link_drop (src, dst)
      else Hashtbl.replace t.link_drop (src, dst) p

    let set_slowdown t node d =
      if d <= 0. then Hashtbl.remove t.slowdowns node
      else Hashtbl.replace t.slowdowns node d

    let partition t a b =
      t.partitions <- Pair_set.add (canonical a b) t.partitions

    let partitioned t a b = Pair_set.mem (canonical a b) t.partitions

    let fate t ~src ~dst =
      if String.equal src dst then `Deliver_each [ 0. ]
      else if partitioned t src dst then `Lost
      else if
        match Hashtbl.find_opt t.link_drop (src, dst) with
        | Some p -> Splitmix.bool t.rng ~p
        | None -> false
      then `Lost
      else if t.drop > 0. && Splitmix.bool t.rng ~p:t.drop then `Lost
      else begin
        let model =
          match Hashtbl.find_opt t.links (canonical src dst) with
          | Some link -> link
          | None -> t.latency
        in
        let extra =
          t.burst_extra
          +. (match Hashtbl.find_opt t.slowdowns src with
             | Some d -> d
             | None -> 0.)
          +. (match Hashtbl.find_opt t.slowdowns dst with
             | Some d -> d
             | None -> 0.)
        in
        let sample () =
          let d = Latency.sample model t.rng in
          (match t.reorder_jitter with
          | None -> d
          | Some j -> d +. Latency.sample j t.rng)
          +. extra
        in
        let first = sample () in
        let rec dups acc =
          if t.duplicate > 0. && Splitmix.bool t.rng ~p:t.duplicate then
            dups (sample () :: acc)
          else List.rev acc
        in
        `Deliver_each (first :: dups [])
      end
  end

  module Event_heap = struct
    type 'a entry = { time : float; seq : int; value : 'a }
    type 'a t = { mutable data : 'a entry array; mutable len : int }

    let create () = { data = [||]; len = 0 }
    let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

    let push h ~time ~seq value =
      let entry = { time; seq; value } in
      if h.len = Array.length h.data then begin
        let bigger = Array.make (max 16 (2 * h.len)) entry in
        Array.blit h.data 0 bigger 0 h.len;
        h.data <- bigger
      end;
      h.data.(h.len) <- entry;
      h.len <- h.len + 1;
      let i = ref (h.len - 1) in
      while !i > 0 && before h.data.(!i) h.data.((!i - 1) / 2) do
        let parent = (!i - 1) / 2 in
        let tmp = h.data.(parent) in
        h.data.(parent) <- h.data.(!i);
        h.data.(!i) <- tmp;
        i := parent
      done

    let pop h =
      if h.len = 0 then None
      else begin
        let top = h.data.(0) in
        h.len <- h.len - 1;
        h.data.(0) <- h.data.(h.len);
        let i = ref 0 and continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.len && before h.data.(l) h.data.(!smallest) then
            smallest := l;
          if r < h.len && before h.data.(r) h.data.(!smallest) then
            smallest := r;
          if !smallest = !i then continue := false
          else begin
            let tmp = h.data.(!smallest) in
            h.data.(!smallest) <- h.data.(!i);
            h.data.(!i) <- tmp;
            i := !smallest
          end
        done;
        Some (top.time, top.seq, top.value)
      end
  end
end

(* One random fault setting, applied alike to both networks. *)
type faults = {
  drop : float;
  duplicate : float;
  jitter : Latency.t option;
  burst : float;
  partitions : (int * int) list;
  links : (int * int * Latency.t) list;
  link_drops : (int * int * float) list;
  slowdowns : (int * float) list;
}

let node i = Printf.sprintf "n%d" i

let gen_faults =
  let open QCheck.Gen in
  let p = oneof [ return 0.; float_range 0. 0.6 ] in
  let model =
    oneof
      [
        map (fun d -> Latency.Constant d) (float_range 0. 5.);
        map2
          (fun lo w -> Latency.Uniform { lo; hi = lo +. w +. 0.01 })
          (float_range 0. 3.) (float_range 0. 3.);
        map2
          (fun base mean -> Latency.Exponential { base; mean = mean +. 0.1 })
          (float_range 0. 20.) (float_range 0. 8.);
      ]
  in
  let link = pair (int_bound 4) (int_bound 4) in
  let triple x = map2 (fun (a, b) x -> (a, b, x)) link x in
  let* drop = p and* duplicate = p in
  let* burst = oneof [ return 0.; float_range 0. 10. ] in
  let* jitter = opt model in
  let* partitions = list_size (int_bound 2) link in
  let* links = list_size (int_bound 3) (triple model) in
  let* link_drops = list_size (int_bound 3) (triple p) in
  let+ slowdowns =
    list_size (int_bound 2) (pair (int_bound 4) (float_range 0. 5.))
  in
  { drop; duplicate; jitter; burst; partitions; links; link_drops; slowdowns }

let print_faults f =
  Printf.sprintf
    "drop=%g duplicate=%g jitter=%b burst=%g partitions=%d links=%d \
     link_drops=%d slowdowns=%d"
    f.drop f.duplicate (f.jitter <> None) f.burst (List.length f.partitions)
    (List.length f.links) (List.length f.link_drops) (List.length f.slowdowns)

(* Both networks under the same faults and seed send the same 60
   messages (self-sends included); halfway, the directional losses and
   the slowdowns are cleared, emptying their tables again.  Every
   message's copies match, and the generators end in the same state. *)
let prop_network_matches_reference =
  QCheck.Test.make ~name:"pulled copies = reference fate" ~count:300
    QCheck.(pair int64 (make ~print:print_faults gen_faults))
    (fun (seed, f) ->
      let rng = Splitmix.create seed and old_rng = Splitmix.create seed in
      let net = Network.create ~latency:Latency.lan ~rng in
      let old = Reference.Network.create ~latency:Latency.lan ~rng:old_rng in
      Network.set_drop net f.drop;
      old.drop <- f.drop;
      Network.set_duplicate net f.duplicate;
      old.duplicate <- f.duplicate;
      Network.set_reorder_jitter net f.jitter;
      old.reorder_jitter <- f.jitter;
      Network.set_burst_extra net f.burst;
      old.burst_extra <- f.burst;
      List.iter
        (fun (a, b) ->
          Network.partition net (node a) (node b);
          Reference.Network.partition old (node a) (node b))
        f.partitions;
      List.iter
        (fun (a, b, m) ->
          Network.set_link net (node a) (node b) m;
          Reference.Network.set_link old (node a) (node b) m)
        f.links;
      let link_drops p =
        List.iter
          (fun (a, b, q) ->
            let p = Option.value p ~default:q in
            Network.set_link_drop net ~src:(node a) ~dst:(node b) p;
            Reference.Network.set_link_drop old ~src:(node a) ~dst:(node b) p)
          f.link_drops
      in
      let slowdowns d =
        List.iter
          (fun (n, e) ->
            let d = Option.value d ~default:e in
            Network.set_slowdown net (node n) d;
            Reference.Network.set_slowdown old (node n) d)
          f.slowdowns
      in
      link_drops None;
      slowdowns None;
      let pairs = Splitmix.create (Int64.add seed 1L) in
      let same = ref true in
      for k = 1 to 60 do
        if k = 31 then begin
          link_drops (Some 0.);
          slowdowns (Some 0.)
        end;
        let src = node (Splitmix.int pairs 5) in
        let dst = node (Splitmix.int pairs 5) in
        if fate net ~src ~dst <> Reference.Network.fate old ~src ~dst then
          same := false
      done;
      !same
      && Int64.equal (Splitmix.next_int64 rng) (Splitmix.next_int64 old_rng))

(* Pushes and pops interleaved at random, with ties on time and on seq:
   [Some (time, seq)] pushes the next value, [None] pops, alternately
   with [pop] and with [min_time] then [take]. *)
let prop_heap_matches_reference =
  QCheck.Test.make ~name:"pops = reference heap" ~count:300
    QCheck.(
      list_of_size
        Gen.(0 -- 200)
        (option (pair (int_bound 6) (int_bound 3))))
    (fun ops ->
      let h = Event_heap.create () and old = Reference.Event_heap.create () in
      let pushed = ref 0 and pops = ref 0 in
      let pop () =
        incr pops;
        if !pops mod 2 = 0 || Event_heap.is_empty h then Event_heap.pop h
        else begin
          let time = Event_heap.min_time h in
          (* [take] reports no seq: the value, unique, names the entry. *)
          Some (time, -1, Event_heap.take h)
        end
      in
      let agree () =
        match (pop (), Reference.Event_heap.pop old) with
        | Some (t, -1, v), Some (t', _, v') -> t = t' && v = v'
        | got, expected -> got = expected
      in
      let steps =
        List.for_all
          (function
            | Some (time, seq) ->
              let time = float_of_int time /. 2. in
              Event_heap.push h ~time ~seq !pushed;
              Reference.Event_heap.push old ~time ~seq !pushed;
              incr pushed;
              true
            | None -> agree ())
          ops
      in
      let rec drain () =
        Event_heap.is_empty h && Reference.Event_heap.pop old = None
        || (agree () && drain ())
      in
      steps && drain ())

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "splitmix",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independence;
          Alcotest.test_case "errors" `Quick test_rng_errors;
          qc prop_float_range;
          qc prop_int_range;
          qc prop_exponential_nonneg;
        ] );
      ( "event_heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "popped values released" `Quick
            test_heap_releases_popped;
          qc prop_heap_sorted;
        ] );
      ( "engine",
        [
          Alcotest.test_case "order and time" `Quick test_engine_order_and_time;
          Alcotest.test_case "cascading" `Quick test_engine_cascading;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "max steps" `Quick test_engine_max_steps;
          Alcotest.test_case "negative delay clamped" `Quick
            test_engine_negative_delay_clamped;
        ] );
      ( "network",
        [
          qc prop_latency_nonneg;
          Alcotest.test_case "partition" `Quick test_network_partition;
          Alcotest.test_case "self delivery" `Quick test_network_self_delivery;
          Alcotest.test_case "link override" `Quick test_network_link_override;
          Alcotest.test_case "drop all" `Quick test_network_drop_all;
          Alcotest.test_case "duplicate copies" `Quick test_network_duplicate_all;
          Alcotest.test_case "reorder jitter" `Quick test_network_reorder_jitter;
          Alcotest.test_case "defaults keep draws identical" `Quick
            test_network_defaults_identical_draws;
        ] );
      ( "transport",
        [
          Alcotest.test_case "delivery" `Quick test_transport_delivery;
          Alcotest.test_case "duplicate registration" `Quick
            test_transport_duplicate_registration;
          Alcotest.test_case "crash swallows" `Quick test_transport_crash_swallows;
          Alcotest.test_case "unknown destination" `Quick
            test_transport_unknown_destination;
          Alcotest.test_case "trace" `Quick test_trace_marks_and_messages;
          Alcotest.test_case "trace exporters" `Quick test_trace_exporters;
          Alcotest.test_case "keeps nothing per message" `Quick
            test_transport_flat_memory;
          Alcotest.test_case "allocation per send" `Quick
            test_transport_send_allocation;
          Alcotest.test_case "deterministic replay" `Quick
            test_deterministic_replay;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "retire idle node" `Quick test_retire_idle;
          Alcotest.test_case "retire waits for inbound copies" `Quick
            test_retire_waits_for_inbound;
          Alcotest.test_case "retire waits for outbound copies" `Quick
            test_retire_waits_for_outbound;
          Alcotest.test_case "retiring node still sends" `Quick
            test_retiring_node_still_sends;
          Alcotest.test_case "re-registered node survives" `Quick
            test_reregistered_node_survives;
          Alcotest.test_case "delayed reply keeps receiver" `Quick
            test_delayed_reply_keeps_receiver;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "later copies suppressed" `Quick
            test_duplicates_suppressed;
          Alcotest.test_case "filter lives with its copies" `Quick
            test_filter_lives_with_copies;
          Alcotest.test_case "crashed copy not delivered" `Quick
            test_crashed_copy_not_delivered;
          Alcotest.test_case "no dedup delivers every copy" `Quick
            test_no_dedup_delivers_every_copy;
        ] );
      ( "golden",
        [
          Alcotest.test_case "splitmix streams" `Quick test_splitmix_golden;
          Alcotest.test_case "transport deliveries" `Quick
            test_transport_golden;
        ] );
      ( "reference",
        [ qc prop_network_matches_reference; qc prop_heap_matches_reference ] );
    ]
