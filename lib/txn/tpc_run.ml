type stats = {
  outcome : bool;
  messages : int;
  coordinator_forced : int;
  participants_forced : int;
  coordinator_log : string list;
  participant_logs : (string * string list) list;
  applied : (string * bool) list;
}

let run variant ~votes =
  if votes = [] then invalid_arg "Tpc_run.run: no participants";
  let names = List.map fst votes in
  let coord = Tpc.coordinator ~txn:"t1" ~participants:names variant in
  let parts =
    List.map (fun n -> (n, Tpc.participant ~txn:"t1" ~name:n variant)) names
  in
  let messages = ref 0 in
  let coord_forced = ref 0 and parts_forced = ref 0 in
  let coord_log = ref [] in
  let part_logs = Hashtbl.create 8 in
  let applied = ref [] in
  let outcome = ref None in
  (* FIFO of (origin, action) pairs keeps causal order deterministic. *)
  let queue = Queue.create () in
  let push origin actions =
    List.iter (fun a -> Queue.add (origin, a) queue) actions
  in
  push `Coordinator (Tpc.coord_start coord);
  while not (Queue.is_empty queue) do
    let origin, action = Queue.take queue in
    match action with
    | Tpc.Send { dst; msg } -> (
      incr messages;
      match (dst, msg) with
      | `Node n, Tpc.Vote_request ->
        let p = List.assoc n parts in
        push (`Node n) (Tpc.part_on_vote_request p ~vote:(List.assoc n votes))
      | `Node n, Tpc.Decision commit ->
        let p = List.assoc n parts in
        push (`Node n) (Tpc.part_on_decision p ~commit)
      | `Coordinator, Tpc.Vote yes ->
        let from = match origin with `Node n -> n | `Coordinator -> assert false in
        push `Coordinator (Tpc.coord_on_vote coord ~from ~yes)
      | `Coordinator, Tpc.Ack ->
        let from = match origin with `Node n -> n | `Coordinator -> assert false in
        push `Coordinator (Tpc.coord_on_ack coord ~from)
      | `Node _, (Tpc.Vote _ | Tpc.Ack) | `Coordinator, (Tpc.Vote_request | Tpc.Decision _)
        ->
        assert false)
    | Tpc.Force_log tag -> (
      match origin with
      | `Coordinator ->
        incr coord_forced;
        coord_log := tag :: !coord_log
      | `Node n ->
        incr parts_forced;
        Hashtbl.replace part_logs n
          (tag :: Option.value ~default:[] (Hashtbl.find_opt part_logs n)))
    | Tpc.Write_log tag -> (
      match origin with
      | `Coordinator -> coord_log := tag :: !coord_log
      | `Node n ->
        Hashtbl.replace part_logs n
          (tag :: Option.value ~default:[] (Hashtbl.find_opt part_logs n)))
    | Tpc.Apply commit -> (
      match origin with
      | `Node n -> applied := (n, commit) :: !applied
      | `Coordinator -> assert false)
    | Tpc.Outcome decision -> outcome := Some decision
    | Tpc.Done -> ()
  done;
  let outcome =
    match !outcome with Some o -> o | None -> failwith "2PC did not decide"
  in
  {
    outcome;
    messages = !messages;
    coordinator_forced = !coord_forced;
    participants_forced = !parts_forced;
    coordinator_log = List.rev !coord_log;
    participant_logs =
      List.map
        (fun n ->
          (n, List.rev (Option.value ~default:[] (Hashtbl.find_opt part_logs n))))
        names;
    applied = List.rev !applied;
  }
