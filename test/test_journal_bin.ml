(* The binary flight-recorder format: frame round-trips, corruption
   handling (torn tail tolerated, checksum damage rejected by seq),
   cross-format equivalence — no consumer's output may depend on which
   encoding the journal was recorded in — and byte-mutation fuzzing of
   both record decoders. *)

module Journal = Cloudtx_obs.Journal
module Wbuf = Cloudtx_obs.Wbuf
module Journal_io = Cloudtx_core.Journal_io
module Audit = Cloudtx_core.Audit
module Certify = Cloudtx_core.Certify
module Blame = Cloudtx_core.Blame
module Health = Cloudtx_core.Health
module Report_io = Cloudtx_core.Report_io
module Monitor = Cloudtx_obs.Monitor
module Report = Cloudtx_obs.Report
module Manager = Cloudtx_core.Manager
module Scheme = Cloudtx_protocol.Scheme
module Consistency = Cloudtx_protocol.Consistency
module Cluster = Cloudtx_core.Cluster
module Codec_bin = Cloudtx_protocol.Codec_bin
module Tm_machine = Cloudtx_protocol.Tm_machine
module Transport = Cloudtx_sim.Transport
module Splitmix = Cloudtx_sim.Splitmix
module Scenario = Cloudtx_workload.Scenario
module Generator = Cloudtx_workload.Generator
module Experiment = Cloudtx_workload.Experiment
module Participant = Cloudtx_core.Participant
module Resilience = Cloudtx_core.Resilience
module Timeout_policy = Cloudtx_protocol.Timeout_policy
module Message = Cloudtx_protocol.Message
module Codec = Cloudtx_protocol.Codec
module Json = Cloudtx_policy.Json

(* One protocol run recorded natively in [format]; the journal bytes.
   [attach] sees the journal before the run starts.  A [faulted] run
   submits its transactions at once and loses server-2 between its vote
   and the decision, then brings it back, under adaptive timeouts (RTT
   samples are float inputs) and a resilience gate that admits two
   transactions at a time, so rejections and breaker transitions are
   journaled as events. *)
let record_cell ?(txns = 4) ?(attach = ignore) ?(faulted = false) ~format
    scheme level =
  let scenario = Scenario.retail ~seed:91L ~n_servers:3 ~n_subjects:3 () in
  let cluster = scenario.Scenario.cluster in
  let transport = Cluster.transport cluster in
  let journal = Transport.enable_journal ~format transport in
  attach journal;
  let rng = Splitmix.create 17L in
  let params = { Generator.default with queries_per_txn = 3; write_ratio = 0.5 } in
  let txn i =
    Generator.generate scenario rng params ~id:(Printf.sprintf "t%d" i)
  in
  if faulted then begin
    let victim = Cluster.participant cluster "server-2" in
    Transport.at transport ~delay:6.5 (fun () -> Participant.crash victim);
    Transport.at transport ~delay:60. (fun () -> Participant.recover victim);
    let gate =
      Resilience.create ~journal
        (Resilience.config ~failure_threshold:1 ~max_in_flight:2 ())
    in
    let config =
      Manager.config ~decision_retry:5.
        ~timeout_policy:(Timeout_policy.adaptive ()) scheme level
    in
    for i = 0 to txns - 1 do
      Manager.submit ~resilience:gate cluster config (txn i) ~on_done:ignore
    done;
    ignore (Cluster.run cluster)
  end
  else
    ignore
      (Experiment.run_sequential scenario (Manager.config scheme level)
         ~n:txns (fun ~i -> txn i));
  Journal.to_string journal

let decode_ok contents =
  match Journal.decode_binary contents with
  | Ok d -> d
  | Error why -> Alcotest.failf "decode_binary failed: %s" why

(* ------------------------------------------------------------------ *)
(* Frame round-trips                                                   *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Journal.binary_header ~version:Journal.format_version);
  let payloads = [ ""; "x"; String.make 200 '\xff'; "{\"k\":1}" ] in
  List.iteri
    (fun i payload ->
      Journal.encode_frame buf ~seq:(i + 1)
        ~time_ms:(float_of_int i *. 0.5)
        ~node:(Printf.sprintf "node-%d" i)
        ~dir:(if i mod 2 = 0 then "input" else "action")
        ~emit:(fun w -> Wbuf.str w payload))
    payloads;
  let d = decode_ok (Buffer.contents buf) in
  Alcotest.(check int) "version" Journal.format_version d.Journal.version;
  Alcotest.(check int) "no torn tail" 0 d.Journal.torn_bytes;
  Alcotest.(check int) "all frames back" (List.length payloads)
    (List.length d.Journal.frames);
  List.iteri
    (fun i (f : Journal.frame) ->
      Alcotest.(check int) "seq" (i + 1) f.Journal.seq;
      Alcotest.(check (float 0.)) "time" (float_of_int i *. 0.5) f.Journal.time_ms;
      Alcotest.(check string) "node" (Printf.sprintf "node-%d" i) f.Journal.node;
      Alcotest.(check string) "dir"
        (if i mod 2 = 0 then "input" else "action")
        f.Journal.dir;
      Alcotest.(check string) "payload" (List.nth payloads i) f.Journal.payload)
    d.Journal.frames

(* Every payload a real run records survives the typed codec
   round-trip byte-exactly. *)
let test_payload_roundtrip_corpus () =
  let contents = record_cell ~format:Journal.Binary Scheme.Continuous Consistency.Global in
  let d = decode_ok contents in
  Alcotest.(check bool) "corpus is non-trivial" true
    (List.length d.Journal.frames > 50);
  List.iter
    (fun (f : Journal.frame) ->
      match Codec_bin.payload_of_string f.Journal.payload with
      | Error why -> Alcotest.failf "seq %d undecodable: %s" f.Journal.seq why
      | Ok p ->
        Alcotest.(check string)
          (Printf.sprintf "seq %d re-encodes byte-exactly" f.Journal.seq)
          f.Journal.payload
          (Codec_bin.payload_to_string p))
    d.Journal.frames

(* ------------------------------------------------------------------ *)
(* Corruption                                                          *)
(* ------------------------------------------------------------------ *)

let test_torn_tail_tolerated () =
  let contents = record_cell ~format:Journal.Binary Scheme.Deferred Consistency.View in
  let full = decode_ok contents in
  let n = List.length full.Journal.frames in
  (* Chop into the final frame's checksum: the longest valid prefix is
     everything before it. *)
  let torn = String.sub contents 0 (String.length contents - 2) in
  let d = decode_ok torn in
  Alcotest.(check int) "one frame lost" (n - 1) (List.length d.Journal.frames);
  Alcotest.(check bool) "torn bytes reported" true (d.Journal.torn_bytes > 0);
  (* The loader tolerates the same damage and still audits clean up to
     the tear. *)
  match Journal_io.of_contents torn with
  | Error why -> Alcotest.failf "loader rejected a torn tail: %s" why
  | Ok loaded ->
    Alcotest.(check int) "loader reports the tear" d.Journal.torn_bytes
      loaded.Journal_io.torn_bytes

let test_checksum_damage_named () =
  let contents = record_cell ~format:Journal.Binary Scheme.Deferred Consistency.View in
  (* Walk the frame chain to the third frame and flip one byte in the
     middle of its body. *)
  let header_len = String.length (Journal.binary_header ~version:Journal.format_version) in
  let u32_at s pos =
    Char.code s.[pos]
    lor (Char.code s.[pos + 1] lsl 8)
    lor (Char.code s.[pos + 2] lsl 16)
    lor (Char.code s.[pos + 3] lsl 24)
  in
  let pos = ref header_len in
  for _ = 1 to 2 do
    pos := !pos + 4 + u32_at contents !pos + 4
  done;
  let body_mid = !pos + 4 + (u32_at contents !pos / 2) in
  let damaged = Bytes.of_string contents in
  Bytes.set damaged body_mid
    (Char.chr (Char.code (Bytes.get damaged body_mid) lxor 0x10));
  let damaged = Bytes.to_string damaged in
  let expect_error contents =
    match Journal.decode_binary contents with
    | Ok _ -> Alcotest.fail "checksum damage went undetected"
    | Error why ->
      let contains sub =
        let n = String.length why and m = String.length sub in
        let rec go i =
          i + m <= n && (String.equal (String.sub why i m) sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error names the mismatch (%s)" why)
        true (contains "checksum mismatch");
      Alcotest.(check bool)
        (Printf.sprintf "error names the seq (%s)" why)
        true (contains "seq 3")
  in
  expect_error damaged;
  (* The loader refuses it too — damage must not silently truncate. *)
  (match Journal_io.of_contents damaged with
  | Ok _ -> Alcotest.fail "loader accepted checksum damage"
  | Error _ -> ())

(* Single-bit flips anywhere in a frame body are always caught — the
   word-wise FNV-1a variant must not trade detection for speed. *)
let test_single_bit_flips_caught () =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Journal.binary_header ~version:Journal.format_version);
  Journal.encode_frame buf ~seq:1 ~time_ms:2.5 ~node:"nd" ~dir:"input"
    ~emit:(fun w -> Wbuf.str w "payload-bytes!");
  let clean = Buffer.contents buf in
  let header_len = String.length (Journal.binary_header ~version:Journal.format_version) in
  let body_start = header_len + 4 in
  let body_len = String.length clean - body_start - 4 in
  for byte_i = 0 to body_len - 1 do
    for bit = 0 to 7 do
      let damaged = Bytes.of_string clean in
      let p = body_start + byte_i in
      Bytes.set damaged p (Char.chr (Char.code clean.[p] lxor (1 lsl bit)));
      match Journal.decode_binary (Bytes.to_string damaged) with
      | Error _ -> ()
      | Ok d ->
        (* A flip in the body's own length-describing region can only
           escape as a tear, never as a silently different record. *)
        if d.Journal.torn_bytes = 0 && List.length d.Journal.frames = 1 then
          Alcotest.failf "flip of byte %d bit %d went undetected" byte_i bit
    done
  done

(* ------------------------------------------------------------------ *)
(* Cross-format equivalence                                            *)
(* ------------------------------------------------------------------ *)

let with_temp_file contents f =
  let path = Filename.temp_file "cloudtx_journal" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
      f path)

(* Every consumer's file entry point on one journal, rendered for
   comparison. *)
let consumer_views cell path =
  let ok what = function
    | Ok v -> v
    | Error why -> Alcotest.failf "%s: %s failed: %s" cell what why
  in
  let certify = ok "certify" (Certify.of_file path) in
  let monitor = Monitor.create () in
  let watched = ok "watch" (Health.of_file path monitor) in
  let report, _ = ok "report" (Report_io.of_journal path) in
  [
    ("audit", Audit.report_to_string (ok "audit" (Audit.of_file path)));
    ( "certify",
      Printf.sprintf "%s; %d records, %d decode errors; %s" (Certify.summary certify)
        certify.Certify.records certify.Certify.decode_errors
        (Cloudtx_obs.Dsg.to_json (Certify.to_dsg certify)) );
    ("blame", Blame.to_json (ok "blame" (Blame.of_file path)));
    ( "watch",
      Printf.sprintf "%d records; alerts: %s" watched
        (String.concat "; " (Report_io.alert_lines_of_monitor monitor)) );
    ("report", Report.to_json report);
  ]

(* All eight (scheme, level) cells: a natively-binary journal converts
   to JSONL and back byte-exactly, audit + certify reach identical
   verdicts on both encodings' lines, and every consumer's [of_file]
   renders identical output on the binary file and on its JSONL
   conversion — the binary and JSONL typed decoders compared directly. *)
let test_cross_format_equivalence () =
  List.iter
    (fun scheme ->
      List.iter
        (fun level ->
          let cell = Printf.sprintf "%s/%s" (Scheme.name scheme) (Consistency.name level) in
          let bin = record_cell ~format:Journal.Binary scheme level in
          let jsonl =
            match Journal_io.convert ~to_:Journal.Jsonl bin with
            | Ok s -> s
            | Error why -> Alcotest.failf "%s: bin->jsonl failed: %s" cell why
          in
          (match Journal_io.convert ~to_:Journal.Binary jsonl with
          | Ok back ->
            Alcotest.(check bool)
              (cell ^ ": jsonl->bin reproduces the native bytes")
              true (String.equal back bin)
          | Error why -> Alcotest.failf "%s: jsonl->bin failed: %s" cell why);
          let lines contents =
            match Journal_io.of_contents contents with
            | Ok t -> t.Journal_io.lines
            | Error why -> Alcotest.failf "%s: load failed: %s" cell why
          in
          let bin_lines = lines bin and jsonl_lines = lines jsonl in
          Alcotest.(check (list string))
            (cell ^ ": canonical lines identical")
            jsonl_lines bin_lines;
          (match (Audit.run ~lines:bin_lines, Audit.run ~lines:jsonl_lines) with
          | Ok a, Ok b ->
            Alcotest.(check bool) (cell ^ ": audit reports identical") true (a = b)
          | Error why, _ | _, Error why ->
            Alcotest.failf "%s: audit failed: %s" cell why);
          (match (Certify.run ~lines:bin_lines, Certify.run ~lines:jsonl_lines) with
          | Ok a, Ok b ->
            Alcotest.(check string)
              (cell ^ ": certify verdicts identical")
              (Certify.summary a) (Certify.summary b);
            Alcotest.(check bool) (cell ^ ": certify reports identical") true (a = b)
          | Error why, _ | _, Error why ->
            Alcotest.failf "%s: certify failed: %s" cell why);
          let views contents = with_temp_file contents (consumer_views cell) in
          Alcotest.(check (list (pair string string)))
            (cell ^ ": every consumer identical on both files")
            (views jsonl) (views bin))
        [ Consistency.View; Consistency.Global ])
    Scheme.all

(* ------------------------------------------------------------------ *)
(* Fuzzing the record decoders                                         *)
(* ------------------------------------------------------------------ *)

(* One small recorded run per format, shared by the properties. *)
let corpus =
  lazy
    ( record_cell ~txns:2 ~format:Journal.Jsonl Scheme.Continuous Consistency.Global,
      record_cell ~txns:2 ~format:Journal.Binary Scheme.Continuous Consistency.Global )

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

(* The decoder contract under damage: never raise; either an [Error]
   naming the line or frame, or records, any undecodable one counted as
   such by a best-effort consumer. *)
let decodes_or_names_position contents =
  let undecodable = ref 0 in
  match
    Journal_io.fold contents ~init:(fun _ -> ()) (fun () r ->
        match r.Journal_io.body with
        | Journal_io.Undecodable _ -> incr undecodable
        | Journal_io.Payload _ | Journal_io.Event _ -> ())
  with
  | exception e -> QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e)
  | Error why ->
    contains why "line" || contains why "frame" || contains why "header"
    || contains why "magic"
    || QCheck.Test.fail_reportf "error names no position: %s" why
  | Ok () ->
    let certify =
      Journal_io.fold contents ~init:(fun _ -> Certify.create ()) (fun c r ->
          Certify.step c r;
          c)
    in
    (match certify with
    | Ok c when (Certify.finish c).Certify.decode_errors = !undecodable -> true
    | Ok c ->
      QCheck.Test.fail_reportf "%d undecodable records, certify counted %d"
        !undecodable (Certify.finish c).Certify.decode_errors
    | Error why -> QCheck.Test.fail_reportf "second decode disagreed: %s" why)

(* A nine-byte varint decodes negative.  As a string length or a list
   count it is an [Error], not an exception out of [String.sub] and not
   an empty list. *)
let test_negative_length_rejected () =
  let negative = String.make 8 '\xff' ^ "\x7f" in
  List.iter
    (fun (what, bytes, want) ->
      match Codec_bin.payload_of_string bytes with
      | Error m when contains m want -> ()
      | Error m -> Alcotest.failf "%s: unexpected error %S" what m
      | Ok _ -> Alcotest.failf "%s: decoded" what
      | exception e ->
        Alcotest.failf "%s: raised %s" what (Printexc.to_string e))
    [
      (* A TM action whose first field is a string. *)
      ("string length", "\003\004" ^ negative, "in string");
      (* A PS input's [Evaluated]: the txn, then the proof list. *)
      ("list count", "\004\002\001t" ^ negative, "list count");
    ]

(* 1-4 bytes overwritten with arbitrary values at arbitrary offsets. *)
let mutations =
  QCheck.(list_of_size Gen.(1 -- 4) (pair (int_bound 1_000_000) (int_bound 255)))

let mutate s edits =
  let b = Bytes.of_string s in
  List.iter
    (fun (pos, byte) -> Bytes.set b (pos mod Bytes.length b) (Char.chr byte))
    edits;
  Bytes.to_string b

let prop_jsonl_mutation =
  QCheck.Test.make ~name:"JSONL decoder: mutated bytes never raise" ~count:300
    mutations (fun edits ->
      let jsonl, _ = Lazy.force corpus in
      decodes_or_names_position (mutate jsonl edits))

(* Binary frames are checksummed, so raw mutations mostly stop at the
   frame layer; also re-frame a mutated payload with a valid checksum to
   reach the payload decoder. *)
let prop_binary_mutation =
  QCheck.Test.make ~name:"binary decoder: mutated bytes never raise" ~count:300
    QCheck.(pair mutations small_nat)
    (fun (edits, frame_i) ->
      let _, bin = Lazy.force corpus in
      let frames = (decode_ok bin).Journal.frames in
      let target = frame_i mod List.length frames in
      let buf = Buffer.create (String.length bin) in
      Buffer.add_string buf (Journal.binary_header ~version:Journal.format_version);
      List.iteri
        (fun i (f : Journal.frame) ->
          let payload =
            if i = target && f.Journal.payload <> "" then mutate f.Journal.payload edits
            else f.Journal.payload
          in
          Journal.encode_frame buf ~seq:f.Journal.seq ~time_ms:f.Journal.time_ms
            ~node:f.Journal.node ~dir:f.Journal.dir
            ~emit:(fun w -> Wbuf.str w payload))
        frames;
      decodes_or_names_position (mutate bin edits)
      && decodes_or_names_position (Buffer.contents buf))

(* A -0. keeps its sign through a JSONL journal: recorded natively in
   each format, each converts to the other byte for byte. *)
let test_negative_zero_cross_format () =
  let txn =
    Cloudtx_txn.Transaction.make ~id:"t1" ~subject:"alice"
      [
        Cloudtx_txn.Query.make ~id:"t1-q1" ~server:"server-1" ~reads:[ "k" ] ();
      ]
  in
  let payloads =
    [
      Codec_bin.Create_tm
        {
          config = Tm_machine.config Scheme.Deferred Consistency.View;
          txn;
          submitted_at = -0.;
        };
      Codec_bin.Tm_action (Tm_machine.Arm_retry { delay = -0. });
    ]
  in
  let recorded format =
    let journal = Journal.create ~clock:(fun () -> 0.) ~format () in
    List.iter (Journal_io.record journal ~node:"tm-t1") payloads;
    Journal.to_string journal
  in
  let jsonl = recorded Journal.Jsonl and bin = recorded Journal.Binary in
  let convert to_ contents =
    match Journal_io.convert ~to_ contents with
    | Ok s -> s
    | Error why -> Alcotest.failf "convert failed: %s" why
  in
  Alcotest.(check string) "JSONL to binary = native binary" bin
    (convert Journal.Binary jsonl);
  Alcotest.(check string) "binary to JSONL = native JSONL" jsonl
    (convert Journal.Jsonl bin)

(* ------------------------------------------------------------------ *)
(* The live tap: typed records handed over, events and raw writes      *)
(* decoded                                                              *)
(* ------------------------------------------------------------------ *)

(* What a body is, down to the payload's constructor: JSON alone does
   not tell a TM input from a PS one. *)
let body_kind = function
  | Journal_io.Payload (Codec_bin.Create_tm _) -> "create-tm"
  | Journal_io.Payload (Codec_bin.Create_ps _) -> "create-ps"
  | Journal_io.Payload (Codec_bin.Tm_input _) -> "tm-input"
  | Journal_io.Payload (Codec_bin.Tm_action _) -> "tm-action"
  | Journal_io.Payload (Codec_bin.Ps_input _) -> "ps-input"
  | Journal_io.Payload (Codec_bin.Ps_action _) -> "ps-action"
  | Journal_io.Event _ -> "event"
  | Journal_io.Undecodable m -> "undecodable: " ^ m

let rendered what r =
  match Journal_io.render r with
  | Ok line -> line
  | Error m ->
    Alcotest.failf "%s: seq %d does not render: %s" what r.Journal_io.seq m

(* [record_cell]'s run with a collector on the live tap: the journal's
   bytes and the records the tap delivered, in order. *)
let live_run ?txns ?faulted ~format scheme level =
  let live = ref [] in
  let contents =
    record_cell ?txns ?faulted ~format scheme level ~attach:(fun journal ->
        Journal_io.attach journal (fun r -> live := r :: !live))
  in
  (contents, List.rev !live)

(* Live = offline, record by record: what the tap hands its consumers is
   what a fold over the written journal decodes — the same envelope, the
   same kind of body and the same rendering, and on a binary journal the
   typed payload re-encodes to the frame's own bytes.  The tap hands
   typed records over undecoded, so no run checks the codec against the
   records its consumers saw; this test does. *)
let check_live_equals_offline what ~format (contents, live) =
  let offline =
    match
      Journal_io.fold contents ~init:(fun _ -> []) (fun acc r -> r :: acc)
    with
    | Ok rs -> List.rev rs
    | Error m -> Alcotest.failf "%s: fold failed: %s" what m
  in
  Alcotest.(check (list int))
    (what ^ ": live seqs = offline seqs")
    (List.map (fun r -> r.Journal_io.seq) offline)
    (List.map (fun r -> r.Journal_io.seq) live);
  let frames =
    match format with
    | Journal.Binary -> Some (Array.of_list (decode_ok contents).Journal.frames)
    | Journal.Jsonl -> None
  in
  List.iteri
    (fun i (l, o) ->
      let at = Printf.sprintf "%s: seq %d" what o.Journal_io.seq in
      Alcotest.(check (float 0.)) (at ^ " time_ms") o.Journal_io.time_ms
        l.Journal_io.time_ms;
      Alcotest.(check string) (at ^ " node") o.Journal_io.node
        l.Journal_io.node;
      Alcotest.(check string) (at ^ " body") (body_kind o.Journal_io.body)
        (body_kind l.Journal_io.body);
      Alcotest.(check string) (at ^ " rendering") (rendered at o)
        (rendered at l);
      match (frames, l.Journal_io.body) with
      | Some frames, Journal_io.Payload p ->
        Alcotest.(check string) (at ^ " payload bytes")
          frames.(i).Journal.payload (Codec_bin.payload_to_string p)
      | _ -> ())
    (List.combine live offline)

let formats = [ Journal.Jsonl; Journal.Binary ]

let test_live_equals_offline_cells () =
  List.iter
    (fun format ->
      List.iter
        (fun scheme ->
          List.iter
            (fun level ->
              let what =
                Printf.sprintf "%s %s/%s" (Journal.format_name format)
                  (Scheme.name scheme) (Consistency.name level)
              in
              check_live_equals_offline what ~format
                (live_run ~format scheme level))
            [ Consistency.View; Consistency.Global ])
        Scheme.all)
    formats

let test_live_equals_offline_faulted () =
  List.iter
    (fun format ->
      let what = Journal.format_name format ^ " faulted" in
      let ((_, live) as run) =
        live_run ~txns:6 ~faulted:true ~format Scheme.Continuous
          Consistency.Global
      in
      let count kind node =
        List.length
          (List.filter
             (fun r ->
               String.equal (body_kind r.Journal_io.body) kind
               && (node = None || node = Some r.Journal_io.node))
             live)
      in
      Alcotest.(check bool) (what ^ ": events journaled") true
        (count "event" None > 0);
      Alcotest.(check bool) (what ^ ": server-2 created again on recovery") true
        (count "create-ps" (Some "server-2") > 1);
      check_live_equals_offline what ~format run)
    formats

(* The typed payloads of a real run, in journal order. *)
let run_payloads =
  lazy
    (let contents =
       record_cell ~format:Journal.Binary Scheme.Continuous Consistency.Global
     in
     match
       Journal_io.fold contents ~init:(fun _ -> []) (fun acc r ->
           match r.Journal_io.body with
           | Journal_io.Payload p -> (r.Journal_io.node, p) :: acc
           | Journal_io.Event _ | Journal_io.Undecodable _ -> acc)
     with
     | Ok ps -> List.rev ps
     | Error m -> Alcotest.failf "corpus unreadable: %s" m)

(* Minor words per record to re-record [payloads] into a fresh journal,
   with one consumer on its live tap or none. *)
let words_per_record ~format ~tapped payloads =
  let journal = Journal.create ~clock:(fun () -> 0.) ~format () in
  if tapped then Journal_io.attach journal ignore;
  let before = Gc.minor_words () in
  List.iter (fun (node, p) -> Journal_io.record journal ~node p) payloads;
  (Gc.minor_words () -. before) /. float_of_int (List.length payloads)

(* What a consumer on the live tap adds to recording a typed record: the
   delivered record, its body and the observer call; on a binary journal
   also the copy of the payload bytes the journal hands its observers.
   A tap that decoded the bytes back would add hundreds of words a record
   on JSONL (parse, decode, canonical re-render) and about a hundred on
   binary. *)
let test_tap_allocation format () =
  let payloads = Lazy.force run_payloads in
  let words tapped = words_per_record ~format ~tapped payloads in
  (* The journal's copy of a binary payload for its observers: a string
     of n bytes takes a header word and (n + 8) / 8 words. *)
  let copy =
    match format with
    | Journal.Jsonl -> 0.
    | Journal.Binary ->
      let words (_, p) =
        1 + ((String.length (Codec_bin.payload_to_string p) + 8) / 8)
      in
      float_of_int (List.fold_left (fun acc p -> acc + words p) 0 payloads)
      /. float_of_int (List.length payloads)
  in
  let extra = words true -. words false -. copy in
  if extra > 16. then
    Alcotest.failf "%s: a live consumer adds %.1f minor words a record besides \
                    the payload copy, at most 16 expected"
      (Journal.format_name format) extra

(* A consumer that writes from inside its callback, and a raw write
   between typed ones: every consumer still sees every seq once, in
   order, with the body written at that seq, and both consumers get the
   one record value. *)
let test_reentrant_consumers format () =
  let journal = Journal.create ~clock:(fun () -> 0.) ~format () in
  let node = "tm-t1" in
  (* Each write notes its body under the seq it takes before it is
     made: a consumer may write more records before it returns. *)
  let written = Hashtbl.create 16 in
  let write body f =
    Hashtbl.replace written (Journal.length journal + 1) body;
    f ()
  in
  let record p =
    write (body_kind (Journal_io.Payload p)) (fun () ->
        Journal_io.record journal ~node p)
  in
  let first = ref [] and raw = ref [] and second = ref [] in
  Journal_io.attach journal (fun r ->
      first := r :: !first;
      match r.Journal_io.body with
      | Journal_io.Payload (Codec_bin.Tm_input Tm_machine.Retry_fired) ->
        record (Codec_bin.Tm_action (Tm_machine.Arm_retry { delay = 8. }));
        (* The second typed write refills the hand-over slot before the
           first is delivered, which is then decoded from its bytes. *)
        record (Codec_bin.Tm_action Tm_machine.Force_log);
        write "event" (fun () ->
            Journal_io.record_event journal ~node:"resilience"
              (Json.Obj [ ("event", Json.String "reentrant") ]))
      | _ -> ());
  Journal.add_observer journal (fun ~seq ~time_ms:_ ~node:_ ~dir:_ ~payload:_ ->
      raw := seq :: !raw);
  Journal_io.attach journal (fun r -> second := r :: !second);
  let txn =
    Cloudtx_txn.Transaction.make ~id:"t1" ~subject:"alice"
      [
        Cloudtx_txn.Query.make ~id:"t1-q1" ~server:"server-1" ~reads:[ "k" ] ();
      ]
  in
  record
    (Codec_bin.Create_tm
       {
         config = Tm_machine.config Scheme.Deferred Consistency.View;
         txn;
         submitted_at = 0.;
       });
  record (Codec_bin.Tm_input Tm_machine.Retry_fired);
  (* A raw write of a TM input whose JSON a PS input shares: the node's
     kind comes from the handed-over create. *)
  let raw_input =
    Codec_bin.Tm_input
      (Tm_machine.Deliver
         { src = "server-1"; msg = Message.Decision_ack { txn = "t1" } })
  in
  write "tm-input" (fun () ->
      Journal.record journal ~node ~dir:"input"
        ~payload:
          (match format with
          | Journal.Jsonl ->
            Codec.to_string (Codec_bin.payload_to_json raw_input)
          | Journal.Binary -> Codec_bin.payload_to_string raw_input));
  record (Codec_bin.Tm_input Tm_machine.Retry_fired);
  record (Codec_bin.Tm_action Tm_machine.Force_log);
  let n = Journal.length journal in
  let every = List.init n (fun i -> i + 1) in
  Alcotest.(check int) "every write journaled" n (Hashtbl.length written);
  let check_consumer name records =
    let records = List.rev records in
    Alcotest.(check (list int)) (name ^ ": every seq once, in order") every
      (List.map (fun r -> r.Journal_io.seq) records);
    List.iter
      (fun r ->
        Alcotest.(check string)
          (Printf.sprintf "%s: seq %d body" name r.Journal_io.seq)
          (Hashtbl.find written r.Journal_io.seq)
          (body_kind r.Journal_io.body))
      records
  in
  check_consumer "first consumer" !first;
  check_consumer "second consumer" !second;
  (* A record written from inside a consumer waits until the current
     one has reached every observer, so a raw observer registered after
     the tap sees the seqs in order too. *)
  Alcotest.(check (list int)) "raw observer: every seq once, in order" every
    (List.rev !raw);
  Alcotest.(check bool) "both consumers get the same record value" true
    (List.for_all2 ( == ) !first !second)

(* A consumer's exception reaches the writer, and the records written
   after it are still delivered, in order, to every consumer. *)
let test_consumer_exception () =
  let journal = Journal.create ~clock:(fun () -> 0.) () in
  let seen = ref [] in
  Journal_io.attach journal (fun r ->
      if r.Journal_io.seq = 1 then failwith "consumer";
      seen := r.Journal_io.seq :: !seen);
  let record () =
    Journal_io.record journal ~node:"tm-t1"
      (Codec_bin.Tm_input Tm_machine.Retry_fired)
  in
  (match record () with
  | () -> Alcotest.fail "the consumer's exception was lost"
  | exception Failure _ -> ());
  record ();
  record ();
  Alcotest.(check (list int)) "later records delivered" [ 2; 3 ]
    (List.rev !seen)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "journal_bin"
    [
      ( "frames",
        [
          Alcotest.test_case "envelope round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "payload codec round-trip over a live corpus"
            `Quick test_payload_roundtrip_corpus;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "torn tail tolerated" `Quick test_torn_tail_tolerated;
          Alcotest.test_case "checksum damage rejected by seq" `Quick
            test_checksum_damage_named;
          Alcotest.test_case "every single-bit flip caught" `Quick
            test_single_bit_flips_caught;
          Alcotest.test_case "negative lengths rejected" `Quick
            test_negative_length_rejected;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "all cells, both formats, same verdicts" `Quick
            test_cross_format_equivalence;
          Alcotest.test_case "negative zero converts both ways" `Quick
            test_negative_zero_cross_format;
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_jsonl_mutation; prop_binary_mutation ] );
      ( "live",
        [
          Alcotest.test_case "live = offline, all cells" `Quick
            test_live_equals_offline_cells;
          Alcotest.test_case "live = offline, faulted" `Quick
            test_live_equals_offline_faulted;
          Alcotest.test_case "tap allocation (JSONL)" `Quick
            (test_tap_allocation Journal.Jsonl);
          Alcotest.test_case "tap allocation (binary)" `Quick
            (test_tap_allocation Journal.Binary);
          Alcotest.test_case "re-entrant consumers (JSONL)" `Quick
            (test_reentrant_consumers Journal.Jsonl);
          Alcotest.test_case "re-entrant consumers (binary)" `Quick
            (test_reentrant_consumers Journal.Binary);
          Alcotest.test_case "a consumer's exception" `Quick
            test_consumer_exception;
        ] );
    ]
