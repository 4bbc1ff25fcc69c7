(* Chrome trace-event format reference:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU *)

let track_ids spans =
  let ids = Hashtbl.create 8 in
  let next = ref 1 in
  List.iter
    (fun (s : Tracer.span) ->
      if not (Hashtbl.mem ids s.Tracer.track) then begin
        Hashtbl.add ids s.Tracer.track !next;
        incr next
      end)
    spans;
  ids

let args_json attrs =
  Json.obj (List.rev_map (fun (k, v) -> (k, Json.quote v)) attrs)

let to_chrome t =
  let spans = Tracer.spans t in
  let tracks = track_ids spans in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf {|{"displayTimeUnit":"ms","traceEvents":[|};
  let first = ref true in
  let emit json =
    if not !first then Buffer.add_char buf ',';
    first := false;
    Buffer.add_string buf json
  in
  (* Name each track so Perfetto shows node names instead of tid numbers. *)
  Hashtbl.fold (fun track tid acc -> (tid, track) :: acc) tracks []
  |> List.sort compare
  |> List.iter (fun (tid, track) ->
         emit
           (Json.obj
              [
                ("ph", {|"M"|});
                ("pid", "1");
                ("tid", string_of_int tid);
                ("name", {|"thread_name"|});
                ("args", Json.obj [ ("name", Json.quote track) ]);
              ]));
  List.iter
    (fun (s : Tracer.span) ->
      let tid = Hashtbl.find tracks s.Tracer.track in
      let ts = Json.number (s.Tracer.start *. 1000.) in
      let common =
        [
          ("name", Json.quote s.Tracer.name);
          ("pid", "1");
          ("tid", string_of_int tid);
          ("ts", ts);
        ]
      in
      let json =
        if s.Tracer.instant then
          Json.obj
            (common
            @ [ ("ph", {|"i"|}); ("s", {|"t"|}); ("args", args_json s.Tracer.attrs) ])
        else begin
          let open_span = Float.is_nan s.Tracer.finish in
          let dur =
            if open_span then "0"
            else Json.number ((s.Tracer.finish -. s.Tracer.start) *. 1000.)
          in
          let attrs =
            if open_span then ("open", "true") :: s.Tracer.attrs
            else s.Tracer.attrs
          in
          Json.obj
            (common @ [ ("ph", {|"X"|}); ("dur", dur); ("args", args_json attrs) ])
        end
      in
      emit json)
    spans;
  (* Victim -> killer flow arrows: a finished [lock.wait] span whose
     [killed_by] attribute names a transaction links to that transaction's
     [txn] span (attribute [txn=<id>]).  Chrome/Perfetto draw the arrow
     from the flow-start ("s") to the flow-finish ("f", binding point
     "e" = enclosing slice) with matching [id]s. *)
  let txn_spans = Hashtbl.create 8 in
  List.iter
    (fun (s : Tracer.span) ->
      if String.equal s.Tracer.name "txn" then
        match List.assoc_opt "txn" s.Tracer.attrs with
        | Some id when not (Hashtbl.mem txn_spans id) -> Hashtbl.add txn_spans id s
        | Some _ | None -> ())
    spans;
  let flow_id = ref 0 in
  List.iter
    (fun (victim : Tracer.span) ->
      if
        String.equal victim.Tracer.name "lock.wait"
        && not (Float.is_nan victim.Tracer.finish)
      then
        match List.assoc_opt "killed_by" victim.Tracer.attrs with
        | None -> ()
        | Some killer_txn -> (
          match Hashtbl.find_opt txn_spans killer_txn with
          | None -> ()
          | Some killer ->
            incr flow_id;
            let arrow ph tid ts extra =
              Json.obj
                ([
                   ("name", {|"killed_by"|});
                   ("cat", {|"flow"|});
                   ("ph", ph);
                   ("id", string_of_int !flow_id);
                   ("pid", "1");
                   ("tid", string_of_int tid);
                   ("ts", Json.number (ts *. 1000.));
                 ]
                @ extra)
            in
            let victim_tid = Hashtbl.find tracks victim.Tracer.track in
            let killer_tid = Hashtbl.find tracks killer.Tracer.track in
            (* The finish event must land inside the killer's txn slice;
               clamp in case the wait outlived it (decision in flight). *)
            let killer_end =
              if Float.is_nan killer.Tracer.finish then victim.Tracer.finish
              else Float.min victim.Tracer.finish killer.Tracer.finish
            in
            let killer_ts = Float.max killer.Tracer.start killer_end in
            emit (arrow {|"s"|} victim_tid victim.Tracer.finish []);
            emit (arrow {|"f"|} killer_tid killer_ts [ ("bp", {|"e"|}) ])))
    spans;
  Buffer.add_string buf "]}";
  Buffer.contents buf
