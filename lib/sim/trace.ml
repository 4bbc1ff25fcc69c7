module Tracer = Cloudtx_obs.Tracer

type kind =
  | Send of { src : string; dst : string; label : string }
  | Recv of { src : string; dst : string; label : string }
  | Drop of { src : string; dst : string; label : string }
  | Mark of { node : string; label : string }

type entry = { time : float; kind : kind }

let emit tracer kind =
  let wire name ~track ~peer label =
    Tracer.instant tracer ~track
      ~attrs:[ ("peer", peer); ("label", label) ]
      name
  in
  match kind with
  | Send { src; dst; label } -> wire "send" ~track:src ~peer:dst label
  | Recv { src; dst; label } -> wire "recv" ~track:dst ~peer:src label
  | Drop { src; dst; label } -> wire "drop" ~track:src ~peer:dst label
  | Mark { node; label } -> Tracer.instant tracer ~track:node label

let of_tracer tracer =
  List.filter_map
    (fun (s : Tracer.span) ->
      let entry kind = Some { time = s.start; kind } in
      if not s.instant then None
      else
        match (s.name, s.attrs) with
        | "send", [ ("peer", dst); ("label", label) ] ->
          entry (Send { src = s.track; dst; label })
        | "recv", [ ("peer", src); ("label", label) ] ->
          entry (Recv { src; dst = s.track; label })
        | "drop", [ ("peer", dst); ("label", label) ] ->
          entry (Drop { src = s.track; dst; label })
        | label, [] when s.parent = Tracer.no_span ->
          entry (Mark { node = s.track; label })
        | _ -> None)
    (Tracer.spans tracer)

let pp_entry ppf { time; kind } =
  match kind with
  | Send { src; dst; label } ->
    Format.fprintf ppf "%10.3f  %s -> %s : %s" time src dst label
  | Recv { src; dst; label } ->
    Format.fprintf ppf "%10.3f  %s => %s : %s (delivered)" time src dst label
  | Drop { src; dst; label } ->
    Format.fprintf ppf "%10.3f  %s -x %s : %s (dropped)" time src dst label
  | Mark { node; label } -> Format.fprintf ppf "%10.3f  [%s] %s" time node label

let to_string entries =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e -> Buffer.add_string buf (Format.asprintf "%a@." pp_entry e))
    entries;
  Buffer.contents buf

(* Mermaid identifiers cannot contain '-'. *)
let mermaid_id name =
  String.map (function '-' | ' ' | ':' -> '_' | c -> c) name

let to_mermaid entries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "sequenceDiagram\n";
  (* Declare participants in first-appearance order for stable columns. *)
  let seen = Hashtbl.create 8 in
  let declare name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      Buffer.add_string buf
        (Printf.sprintf "  participant %s as %s\n" (mermaid_id name) name)
    end
  in
  List.iter
    (fun e ->
      match e.kind with
      | Send { src; dst; _ } | Drop { src; dst; _ } ->
        declare src;
        declare dst
      | Mark { node; _ } -> declare node
      | Recv _ -> ())
    entries;
  List.iter
    (fun e ->
      match e.kind with
      | Send { src; dst; label } ->
        Buffer.add_string buf
          (Printf.sprintf "  %s->>%s: %s @%.2fms\n" (mermaid_id src)
             (mermaid_id dst) label e.time)
      | Drop { src; dst; label } ->
        Buffer.add_string buf
          (Printf.sprintf "  %s--x%s: %s (lost) @%.2fms\n" (mermaid_id src)
             (mermaid_id dst) label e.time)
      | Mark { node; label } ->
        Buffer.add_string buf
          (Printf.sprintf "  Note over %s: %s @%.2fms\n" (mermaid_id node) label
             e.time)
      | Recv _ -> ())
    entries;
  Buffer.contents buf

let to_jsonl entries =
  let module Json = Cloudtx_obs.Json in
  let buf = Buffer.create 1024 in
  let row time kind src dst label =
    let fields =
      [ ("time_ms", Json.number time); ("kind", Json.quote kind) ]
      @ (if src = "" then [] else [ ("src", Json.quote src) ])
      @ (if dst = "" then [] else [ ("dst", Json.quote dst) ])
      @ [ ("label", Json.quote label) ]
    in
    Buffer.add_string buf (Json.obj fields);
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun e ->
      match e.kind with
      | Send { src; dst; label } -> row e.time "send" src dst label
      | Recv { src; dst; label } -> row e.time "recv" src dst label
      | Drop { src; dst; label } -> row e.time "drop" src dst label
      | Mark { node; label } -> row e.time "mark" node "" label)
    entries;
  Buffer.contents buf

let csv_quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then begin
    let buf = Buffer.create (String.length s + 4) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let to_csv entries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time,kind,src,dst,label\n";
  let row time kind src dst label =
    Buffer.add_string buf
      (Printf.sprintf "%.4f,%s,%s,%s,%s\n" time kind (csv_quote src)
         (csv_quote dst) (csv_quote label))
  in
  List.iter
    (fun e ->
      match e.kind with
      | Send { src; dst; label } -> row e.time "send" src dst label
      | Recv { src; dst; label } -> row e.time "recv" src dst label
      | Drop { src; dst; label } -> row e.time "drop" src dst label
      | Mark { node; label } -> row e.time "mark" node "" label)
    entries;
  Buffer.contents buf
