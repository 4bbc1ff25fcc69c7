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
module Policy = Cloudtx_policy.Policy
module Credential = Cloudtx_policy.Credential
module Rule = Cloudtx_policy.Rule
module Ps_machine = Cloudtx_protocol.Ps_machine
module Query = Cloudtx_txn.Query
module Proof = Cloudtx_policy.Proof
module Campaign = Cloudtx_chaos.Campaign
module Plan = Cloudtx_chaos.Plan

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
  let buf = Wbuf.create 256 in
  Wbuf.str buf (Journal.binary_header ~version:Journal.format_version);
  let payloads = [ ""; "x"; String.make 200 '\xff'; "{\"k\":1}" ] in
  List.iteri
    (fun i payload ->
      Journal.encode_frame_into buf ~seq:(i + 1)
        ~time_ms:(float_of_int i *. 0.5)
        ~node:(Printf.sprintf "node-%d" i)
        ~dir:(if i mod 2 = 0 then "input" else "action")
        ~emit:(fun w -> Wbuf.str w payload))
    payloads;
  let d = decode_ok (Wbuf.contents buf) in
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
  let buf = Wbuf.create 64 in
  Wbuf.str buf (Journal.binary_header ~version:Journal.format_version);
  Journal.encode_frame_into buf ~seq:1 ~time_ms:2.5 ~node:"nd" ~dir:"input"
    ~emit:(fun w -> Wbuf.str w "payload-bytes!");
  let clean = Wbuf.contents buf in
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

(* The frame checksum, a byte at a time: FNV-1a 32 over 4-byte
   little-endian words put together from their bytes, the 0-3 trailing
   bytes folded one at a time, the state kept below 2^32. *)
let fnv1a_32 b pos len =
  let byte k = Char.code (Bytes.get b (pos + k)) in
  let step h x = ((h lxor x) * 0x01000193) land 0xffffffff in
  let h = ref 0x811c9dc5 and k = ref 0 in
  while !k + 4 <= len do
    h :=
      step !h
        (byte !k lor (byte (!k + 1) lsl 8) lor (byte (!k + 2) lsl 16)
        lor (byte (!k + 3) lsl 24));
    k := !k + 4
  done;
  while !k < len do
    h := step !h (byte !k);
    incr k
  done;
  !h

(* The journal's checksum is the reference's, at any offset into the
   bytes and for every length up to 64. *)
let prop_checksum =
  QCheck.Test.make ~name:"frame checksum = byte-at-a-time FNV-1a" ~count:1000
    QCheck.(
      make
        ~print:(fun (s, pos, len) ->
          Printf.sprintf "%S pos %d len %d" s pos len)
        Gen.(
          let* len = 0 -- 64 in
          let* pos = 0 -- 16 in
          let* slack = 0 -- 8 in
          let* s = string_size ~gen:char (return (pos + len + slack)) in
          return (s, pos, len)))
    (fun (s, pos, len) ->
      let b = Bytes.of_string s in
      Journal.fnv1a_32 b pos len = fnv1a_32 b pos len)

(* A nine-byte varint decodes negative.  As a string length or a list
   count, in a payload or a frame's envelope, it is an [Error], not an
   exception out of [String.sub] and not an empty list. *)
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
    ];
  (* In a frame's envelope, under a checksum that matches, such a node
     length reads on into the name and is too wide. *)
  let body = "\001" ^ String.make 8 '\000' ^ negative ^ "server-1\001" in
  let frame = Bytes.create (String.length body + 8) in
  Bytes.set_int32_le frame 0 (Int32.of_int (String.length body));
  Bytes.blit_string body 0 frame 4 (String.length body);
  Bytes.set_int32_le frame
    (4 + String.length body)
    (Int32.of_int (fnv1a_32 (Bytes.of_string body) 0 (String.length body)));
  match
    Journal.decode_binary
      (Journal.binary_header ~version:Journal.format_version
      ^ Bytes.to_string frame)
  with
  | Error "frame 1 (expected seq 1): varint too wide" -> ()
  | Error m -> Alcotest.failf "node length: unexpected error %S" m
  | Ok _ -> Alcotest.fail "node length: decoded"
  | exception e -> Alcotest.failf "node length: raised %s" (Printexc.to_string e)

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
      let buf = Wbuf.create (String.length bin) in
      Wbuf.str buf (Journal.binary_header ~version:Journal.format_version);
      List.iteri
        (fun i (f : Journal.frame) ->
          let payload =
            if i = target && f.Journal.payload <> "" then mutate f.Journal.payload edits
            else f.Journal.payload
          in
          Journal.encode_frame_into buf ~seq:f.Journal.seq
            ~time_ms:f.Journal.time_ms ~node:f.Journal.node ~dir:f.Journal.dir
            ~emit:(fun w -> Wbuf.str w payload))
        frames;
      decodes_or_names_position (mutate bin edits)
      && decodes_or_names_position (Wbuf.contents buf))

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
   delivered record, its body and the observer call.  Neither format
   copies the payload for its observers: a binary journal hands them
   the bytes where it framed them.  A tap that decoded the bytes back
   would add hundreds of words a record on JSONL (parse, decode,
   canonical re-render) and about a hundred on binary. *)
let test_tap_allocation format () =
  let payloads = Lazy.force run_payloads in
  let words tapped = words_per_record ~format ~tapped payloads in
  let extra = words true -. words false in
  if extra > 9. then
    Alcotest.failf "%s: a live consumer adds %.1f minor words a record, at \
                    most 9 expected"
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
  Journal.add_observer journal (fun ~seq ~time_ms:_ ~node:_ ~dir:_ ~payload:_
        ~pos:_ ~len:_ ->
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

(* A consumer that writes a raw binary record from inside its callback.
   Observers read a payload where the journal framed it, so the
   re-entrant record is framed apart: a raw observer registered after
   the consumer still sees the first record's exact bytes, then the
   re-entrant record's own. *)
let test_reentrant_raw_bytes () =
  let journal =
    Journal.create ~clock:(fun () -> 0.) ~format:Journal.Binary ()
  in
  let typed = Codec_bin.Tm_action (Tm_machine.Arm_retry { delay = 8. }) in
  let raw = String.make 24 'r' in
  Journal_io.attach journal (fun r ->
      if r.Journal_io.seq = 1 then
        Journal.record journal ~node:"tm-t1" ~dir:"input" ~payload:raw);
  let seen = ref [] in
  Journal.add_observer journal
    (fun ~seq ~time_ms:_ ~node:_ ~dir:_ ~payload ~pos ~len ->
      seen := (seq, String.sub payload pos len) :: !seen);
  Journal_io.record journal ~node:"tm-t1" typed;
  Alcotest.(check (list (pair int string)))
    "each record's own bytes"
    [ (1, Codec_bin.payload_to_string typed); (2, raw) ]
    (List.rev !seen)

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
(* A read's shared decoder                                             *)
(* ------------------------------------------------------------------ *)

(* A binary journal of [(node, dir, payload bytes)] frames, the bytes
   framed as they are. *)
let journal_of frames =
  let buf = Wbuf.create 1024 in
  Wbuf.str buf (Journal.binary_header ~version:Journal.format_version);
  List.iteri
    (fun i (node, dir, bytes) ->
      Journal.encode_frame_into buf ~seq:(i + 1) ~time_ms:(float_of_int i)
        ~node ~dir ~emit:(fun w -> Wbuf.str w bytes))
    frames;
  Wbuf.contents buf

let frame_of p =
  ("server-1", Codec_bin.payload_dir p, Codec_bin.payload_to_string p)

let rendered_payload p = Codec.to_string (Codec_bin.payload_to_json p)

let records contents =
  match Journal_io.fold contents ~init:(fun _ -> []) (fun acc r -> r :: acc) with
  | Ok rs -> List.rev rs
  | Error m -> Alcotest.failf "journal unreadable: %s" m

let install policies =
  Codec_bin.Ps_action (Ps_machine.Install { policies; announce = false })

let cont = Ps_machine.To_validate_reply { reply_to = "tm-t1"; round = 1 }

let eval credentials =
  Codec_bin.Ps_action
    (Ps_machine.Eval
       {
         txn = "t1";
         subject = "bob";
         credentials;
         queries = [];
         with_proofs = true;
         with_policies = false;
         cont;
       })

let permit_rule ~role ~item =
  Rule.rule
    (Rule.atom "permit" [ Rule.v "s"; Rule.c "read"; Rule.c item ])
    [ Rule.atom "role" [ Rule.v "s"; Rule.c role ] ]

let credential ?(id = "c1") ?(subject = "bob") ?(role = "clerk") () =
  Credential.make ~id ~subject ~issuer:"ca"
    ~kind:Credential.Attribute
    ~facts:[ Rule.fact "role" [ subject; role ] ]
    ~issued_at:0. ~expires_at:100.

let payload_of r =
  match r.Journal_io.body with
  | Journal_io.Payload p -> p
  | Journal_io.Event _ -> Alcotest.failf "seq %d: an event" r.Journal_io.seq
  | Journal_io.Undecodable m ->
    Alcotest.failf "seq %d undecodable: %s" r.Journal_io.seq m

let installed r =
  match payload_of r with
  | Codec_bin.Ps_action (Ps_machine.Install { policies = [ p ]; _ }) -> p
  | _ -> Alcotest.failf "seq %d: not an install" r.Journal_io.seq

let evaluated_with r =
  match payload_of r with
  | Codec_bin.Ps_action (Ps_machine.Eval { credentials = [ c ]; _ }) -> c
  | _ -> Alcotest.failf "seq %d: not an eval" r.Journal_io.seq

(* Pools with verbatim repeats and near-duplicates: policies that share a
   domain and version but not their rules or flag, credentials that
   share an id and signature but not their facts ([Credential.forge]). *)
let policy_pool =
  let p ?(accept_capabilities = true) ~domain ~version rules =
    Policy.of_wire ~domain ~version ~accept_capabilities rules
  in
  [|
    p ~domain:"retail" ~version:1 [ permit_rule ~role:"clerk" ~item:"db1" ];
    p ~domain:"retail" ~version:1 [ permit_rule ~role:"clerk" ~item:"db2" ];
    p ~accept_capabilities:false ~domain:"retail" ~version:1
      [ permit_rule ~role:"clerk" ~item:"db1" ];
    p ~domain:"retail" ~version:2 [];
    p ~domain:"bank" ~version:1
      [
        permit_rule ~role:"teller" ~item:"acct:7";
        permit_rule ~role:"auditor" ~item:"acct:7";
      ];
  |]

let credential_pool =
  let genuine = credential () in
  [|
    genuine;
    Credential.forge genuine ~facts:[ Rule.fact "role" [ "bob"; "admin" ] ];
    Credential.forge genuine ~facts:[];
    credential ~id:"c2" ~subject:"eve" ();
    Credential.make ~id:"cap" ~subject:"bob" ~issuer:"server-1"
      ~kind:(Credential.Access { action = "read"; item = "db1" })
      ~facts:[] ~issued_at:0.25 ~expires_at:9.;
  |]

let gen_payload =
  let open QCheck.Gen in
  let policy = map (Array.get policy_pool) (int_bound (Array.length policy_pool - 1)) in
  let cred =
    map (Array.get credential_pool) (int_bound (Array.length credential_pool - 1))
  in
  let some g = list_size (0 -- 3) g in
  let query = Query.make ~id:"q0" ~server:"server-1" ~reads:[ "a" ] () in
  frequency
    [
      (3, map install (some policy));
      ( 2,
        map
          (fun policies ->
            Codec_bin.Ps_input
              (Ps_machine.Evaluated { txn = "t1"; proofs = []; policies; cont }))
          (some policy) );
      ( 1,
        map
          (fun policy ->
            Codec_bin.Tm_input
              (Tm_machine.Deliver
                 { src = "server-1"; msg = Message.Propagate_policy { policy } }))
          policy );
      (3, map eval (some cred));
      ( 2,
        map
          (fun credentials ->
            Codec_bin.Ps_action
              (Ps_machine.Send
                 {
                   dst = "server-2";
                   msg =
                     Message.Execute
                       {
                         txn = "t1";
                         ts = 1.5;
                         query;
                         subject = "bob";
                         credentials;
                         evaluate_proof = true;
                         snapshot = false;
                       };
                   after_proofs = 0;
                   credentials;
                 }))
          (some cred) );
      (1, return (Codec_bin.Tm_action (Tm_machine.Mark "m")));
    ]

(* A frame's payload, a fifth of the time damaged: bytes overwritten or
   the tail cut. *)
let gen_frame =
  let open QCheck.Gen in
  let* node = oneofl [ "server-1"; "server-2"; "tm-t1" ] in
  let* p = gen_payload in
  let _, dir, bytes = frame_of p in
  let* damage =
    frequency
      [
        (4, return `None);
        ( 1,
          map
            (fun edits -> `Edit edits)
            (list_size (1 -- 2) (pair (int_bound 1_000_000) (int_bound 255))) );
        (1, map (fun n -> `Cut n) (int_bound 1_000_000));
      ]
  in
  let bytes =
    match damage with
    | `None -> bytes
    | `Edit edits -> mutate bytes edits
    | `Cut n -> String.sub bytes 0 (n mod String.length bytes)
  in
  return (node, dir, bytes)

(* Record for record, a read gives what [payload_of_string] gives on the
   frame's own copy of its payload: the same rendering, or the same
   error. *)
let prop_shared_decoder =
  QCheck.Test.make ~name:"shared decoder = unshared decoder" ~count:300
    (QCheck.make
       ~print:(fun frames ->
         String.concat "\n"
           (List.map (fun (node, dir, b) -> Printf.sprintf "%s %s %S" node dir b) frames))
       QCheck.Gen.(list_size (1 -- 40) gen_frame))
    (fun frames ->
      let contents = journal_of frames in
      let copies = (decode_ok contents).Journal.frames in
      List.for_all2
        (fun (r : Journal_io.record) (f : Journal.frame) ->
          String.equal r.Journal_io.node f.Journal.node
          &&
          match (r.Journal_io.body, Codec_bin.payload_of_string f.Journal.payload) with
          | Journal_io.Payload p, Ok q ->
            String.equal (rendered_payload p) (rendered_payload q)
            || QCheck.Test.fail_reportf "seq %d decodes as %s, alone as %s"
                 r.Journal_io.seq (rendered_payload p) (rendered_payload q)
          | Journal_io.Undecodable m, Error m' ->
            String.equal m m'
            || QCheck.Test.fail_reportf "seq %d: %S, alone %S" r.Journal_io.seq m m'
          | Journal_io.Undecodable _, Ok q ->
            (* Damage that changed the payload's kind. *)
            (not (String.equal (Codec_bin.payload_dir q) f.Journal.dir))
            || QCheck.Test.fail_reportf "seq %d undecodable, alone %s"
                 r.Journal_io.seq (rendered_payload q)
          | _ -> QCheck.Test.fail_reportf "seq %d: bodies differ" r.Journal_io.seq)
        (records contents) copies)

let test_near_duplicate_policies () =
  let p1 = policy_pool.(0) and p2 = policy_pool.(1) in
  match
    records (journal_of (List.map frame_of [ install [ p1 ]; install [ p2 ]; install [ p1 ] ]))
  with
  | [ a; b; c ] ->
    let a = installed a and b = installed b and c = installed c in
    Alcotest.(check bool) "the repeat is the first value" true (a == c);
    Alcotest.(check bool) "other rules, another value" false (a == b);
    Alcotest.(check string) "first as written"
      (Cloudtx_policy.Codec.policy_to_string p1)
      (Cloudtx_policy.Codec.policy_to_string a);
    Alcotest.(check string) "second as written"
      (Cloudtx_policy.Codec.policy_to_string p2)
      (Cloudtx_policy.Codec.policy_to_string b)
  | rs -> Alcotest.failf "%d records" (List.length rs)

let test_forged_credential () =
  let genuine = credential () in
  let forged = Credential.forge genuine ~facts:[ Rule.fact "role" [ "bob"; "admin" ] ] in
  match
    records (journal_of (List.map frame_of [ eval [ genuine ]; eval [ forged ]; eval [ genuine ] ]))
  with
  | [ a; b; c ] ->
    let a = evaluated_with a and b = evaluated_with b and c = evaluated_with c in
    Alcotest.(check bool) "the repeat is the first value" true (a == c);
    Alcotest.(check bool) "the forged copy is another value" false (a == b);
    Alcotest.(check bool) "same id and signature" true
      (a.Credential.id = b.Credential.id
      && a.Credential.signature = b.Credential.signature);
    Alcotest.(check bool) "genuine passes" true (Credential.signature_valid a);
    Alcotest.(check bool) "forged still fails after it" false
      (Credential.signature_valid b)
  | rs -> Alcotest.failf "%d records" (List.length rs)

(* Damage right after an interned policy: one copy whose bytes the skip
   cannot get through (cut inside the policy), one it can but the
   reader refuses (version 0).  Each reads as [payload_of_string] reads
   it, and the policy after them is still the first one. *)
let test_corrupt_after_interned () =
  let p = policy_pool.(4) in
  let _, dir, bytes = frame_of (install [ p ]) in
  (* Kind, constructor and count bytes, then the domain's length byte. *)
  let version_at = 4 + String.length p.Policy.domain in
  let zero_version =
    String.mapi (fun i c -> if i = version_at then '\000' else c) bytes
  in
  let cut = String.sub bytes 0 (String.length bytes - 3) in
  let frames =
    [ frame_of (install [ p ]); ("server-1", dir, cut); ("server-1", dir, zero_version);
      frame_of (install [ p ]) ]
  in
  match records (journal_of frames) with
  | [ a; b; c; d ] ->
    List.iter
      (fun (what, r, damaged, want) ->
        match (r.Journal_io.body, Codec_bin.payload_of_string damaged) with
        | Journal_io.Undecodable m, Error m' ->
          Alcotest.(check string) (what ^ ": as read alone") m' m;
          Alcotest.(check string) (what ^ ": the error") want m
        | _ -> Alcotest.failf "%s: decoded" what)
      [
        ("cut", b, cut, "unexpected end of payload in string");
        ("version 0", c, zero_version, "policy: Policy.of_wire: version must be >= 1");
      ];
    Alcotest.(check bool) "the next copy is the first value" true
      (installed a == installed d)
  | rs -> Alcotest.failf "%d records" (List.length rs)

(* Within one read a credential's second occurrence is its first; a
   second read decodes its own. *)
let test_sharing_pinned () =
  let contents =
    journal_of (List.map frame_of [ eval [ credential () ]; eval [ credential () ] ])
  in
  match (records contents, records contents) with
  | [ a; b ], [ a'; _ ] ->
    Alcotest.(check bool) "shared within a read" true
      (evaluated_with a == evaluated_with b);
    Alcotest.(check bool) "not across reads" false
      (evaluated_with a == evaluated_with a')
  | _ -> Alcotest.fail "two records expected"

(* Minor words one read allocates per record of a recorded journal, in
   the folds every consumer runs. *)
let read_words_per_record contents =
  let before = Gc.minor_words () in
  let n =
    match Journal_io.fold contents ~init:(fun _ -> 0) (fun n _ -> n + 1) with
    | Ok n -> n
    | Error m -> Alcotest.failf "journal unreadable: %s" m
  in
  (Gc.minor_words () -. before) /. float_of_int n

(* One read of a 20-txn recorded journal takes 38.0 words a record; it
   took 123.1 when every policy and credential was decoded afresh, every
   payload copied out of its frame and every list built reversed. *)
let test_read_allocation () =
  let contents =
    record_cell ~txns:20 ~format:Journal.Binary Scheme.Continuous Consistency.Global
  in
  let words = read_words_per_record contents in
  if words > 42. then
    Alcotest.failf "%.1f minor words a record read, at most 42 expected" words

(* ------------------------------------------------------------------ *)
(* Comparing actions by their encoding                                 *)
(* ------------------------------------------------------------------ *)

(* [Codec_bin.same_*_action] on two actions of one kind. *)
let same_payload p q =
  match (p, q) with
  | Codec_bin.Tm_action a, Codec_bin.Tm_action b ->
    Codec_bin.same_tm_action a b
  | Codec_bin.Ps_action a, Codec_bin.Ps_action b ->
    Codec_bin.same_ps_action a b
  | _ -> invalid_arg "same_payload"

(* The comparator's contract: it holds exactly when the two actions
   encode to the same bytes, and that is exactly when their JSON
   renderings agree. *)
let agree p q =
  let same = same_payload p q in
  let bytes =
    String.equal
      (Codec_bin.payload_to_string p)
      (Codec_bin.payload_to_string q)
  in
  let json =
    Json.same_rendering
      (Codec_bin.payload_to_json p)
      (Codec_bin.payload_to_json q)
  in
  if same = bytes && bytes = json then Ok same
  else
    Error
      (Printf.sprintf "same %b, bytes %b, JSON %b:\n  %s\n  %s" same bytes json
         (rendered_payload p) (rendered_payload q))

(* Floats that differ by their sign alone ([0.] renders [0], [-0.]
   renders [-0.0]) or by one ulp. *)
let float_pool = [| 0.; -0.; 2.5; Float.succ 2.5 |]

(* A policy value whose rules are compiled, and a copy without them; a
   credential whose signature verdict is memoised, and a copy without
   it.  Neither memo is encoded. *)
let memo_policies () =
  let copy (p : Policy.t) =
    Policy.of_wire ~domain:p.Policy.domain ~version:p.Policy.version
      ~accept_capabilities:p.Policy.accept_capabilities p.Policy.rules
  in
  let compiled = copy policy_pool.(0) in
  ignore
    (Policy.permits compiled ~facts:[] ~subject:"bob" ~action:"read"
       ~item:"db1");
  (compiled, copy policy_pool.(0))

let memo_credentials () =
  let checked = credential () in
  ignore (Credential.signature_valid checked);
  (checked, credential ())

(* The genuine credential's fields, its signature kept, at other times. *)
let retimed ~issued_at ~expires_at =
  let c = credential () in
  Credential.of_wire ~id:c.Credential.id ~subject:c.Credential.subject
    ~issuer:c.Credential.issuer ~kind:c.Credential.kind
    ~facts:c.Credential.facts ~issued_at ~expires_at
    ~signature:c.Credential.signature

let proof ?(result = true) evaluated_at =
  {
    Proof.query_id = "q0";
    server = "server-1";
    domain = "retail";
    policy_version = 1;
    evaluated_at;
    credential_ids = [ "c1" ];
    request = { Proof.subject = "bob"; action = "read"; items = [ "a" ] };
    result;
    failures = (if result then [] else [ Proof.Denied "a" ]);
  }

let query = Query.make ~id:"q0" ~server:"server-1" ~reads:[ "a" ] ()

let execute ~ts credentials =
  Message.Execute
    {
      txn = "t1";
      ts;
      query;
      subject = "bob";
      credentials;
      evaluate_proof = true;
      snapshot = false;
    }

let tm_send msg =
  Codec_bin.Tm_action (Tm_machine.Send { dst = "server-1"; msg })

let ps_send ?(credentials = []) msg =
  Codec_bin.Ps_action
    (Ps_machine.Send { dst = "tm-t1"; msg; after_proofs = 0; credentials })

let ps_eval credentials =
  Codec_bin.Ps_action
    (Ps_machine.Eval
       {
         txn = "t1";
         subject = "bob";
         credentials;
         queries = [ query ];
         with_proofs = true;
         with_policies = true;
         cont;
       })

let validate_reply proofs =
  Message.Validate_reply { txn = "t1"; round = 1; proofs; policies = [] }

let tm a = Codec_bin.Tm_action a
let ps a = Codec_bin.Ps_action a
let exec ~ts query evaluate =
  ps
    (Ps_machine.Exec
       { txn = "t1"; ts; query; evaluate; reply_to = "tm-t1"; snapshot = false })

let commit_reply ~integrity proofs policies =
  Message.Commit_reply
    { txn = "t1"; round = 1; integrity; read_only = false; proofs; policies }

let executed reads proof =
  Message.Execute_reply
    { txn = "t1"; query_id = "q0"; outcome = Message.Executed { reads; proof } }

(* Every float an action encodes, each as the one thing two actions
   differ in. *)
let float_builders =
  [|
    (fun x -> tm (Tm_machine.Arm_watchdog { epoch = 1; delay = x }));
    (fun x -> tm (Tm_machine.Arm_retry { delay = x }));
    (fun x -> tm_send (execute ~ts:x []));
    (fun x -> tm_send (execute ~ts:1. [ retimed ~issued_at:x ~expires_at:100. ]));
    (fun x -> ps (Ps_machine.Begin_work { txn = "t1"; ts = x }));
    (fun x -> exec ~ts:x query true);
    (fun x -> ps (Ps_machine.Arm_inquiry { txn = "t1"; epoch = 1; delay = x }));
    (fun x -> ps_eval [ retimed ~issued_at:x ~expires_at:100. ]);
    (fun x -> ps_eval [ retimed ~issued_at:(-1.) ~expires_at:x ]);
    (fun x -> ps_send (validate_reply [ proof x ]));
    (fun x -> ps_send (commit_reply ~integrity:true [ proof ~result:false x ] []));
    (fun x -> ps_send (executed [ ("a", None) ] (Some (proof x))));
    (fun x ->
      ps_send
        ~credentials:[ retimed ~issued_at:x ~expires_at:100. ]
        (Message.Inquiry { txn = "t1" }));
  |]

(* Actions of every constructor, each field drawn from a pool of two to
   a few values, so that two draws often agree. *)
let action_gens =
  let open QCheck.Gen in
  let compiled, plain = memo_policies () in
  let checked, unchecked = memo_credentials () in
  let policy = oneofa (Array.append policy_pool [| compiled; plain |]) in
  let cred =
    oneofa
      (Array.append credential_pool
         [| checked; unchecked; retimed ~issued_at:(-0.) ~expires_at:100. |])
  in
  let some g = list_size (0 -- 2) g in
  let f = oneofa float_pool in
  let txn = oneofl [ "t1"; "t2" ] in
  let round = 1 -- 2 in
  let proof = map2 (fun result x -> proof ~result x) bool f in
  let query =
    oneofl
      [
        query;
        Query.make ~id:"q1" ~server:"server-1"
          ~writes:[ ("a", Cloudtx_store.Value.Add 1) ]
          ();
      ]
  in
  let reads =
    oneofl
      [ []; [ ("a", None) ]; [ ("a", Some (Cloudtx_store.Value.Int 1)) ] ]
  in
  let message =
    oneof
      [
        map2 (fun ts credentials -> execute ~ts credentials) f (some cred);
        map2 executed reads (opt proof);
        return
          (Message.Execute_reply
             { txn = "t1"; query_id = "q0"; outcome = Message.Exec_die });
        map2 (fun txn round -> Message.Validate_request { txn; round }) txn round;
        map3
          (fun round proofs policies ->
            Message.Validate_reply { txn = "t1"; round; proofs; policies })
          round (some proof) (some policy);
        map2
          (fun validate expected ->
            Message.Commit_request
              { txn = "t1"; round = 1; validate; allow_read_only = false; expected })
          bool (1 -- 2);
        map3
          (fun integrity -> commit_reply ~integrity)
          bool (some proof) (some policy);
        map2
          (fun policies reply_with ->
            Message.Policy_update { txn = "t1"; round = 1; policies; reply_with })
          (some policy)
          (oneofl [ `Validate; `Commit ]);
        map2 (fun txn commit -> Message.Decision { txn; commit }) txn bool;
        map (fun txn -> Message.Decision_ack { txn }) txn;
        map (fun txn -> Message.Master_version_request { txn }) txn;
        map
          (fun policies -> Message.Master_version_reply { txn = "t1"; policies })
          (some policy);
        map (fun policy -> Message.Propagate_policy { policy }) policy;
        map (fun txn -> Message.Inquiry { txn }) txn;
      ]
  in
  let round_open query =
    Tm_machine.Round_open
      { parent = `Txn; span_name = "2pv.round"; round = 1; query }
  in
  [|
    map2
      (fun dst msg -> tm (Tm_machine.Send { dst; msg }))
      (oneofl [ "server-1"; "server-2" ])
      message;
    map2
      (fun epoch delay -> tm (Tm_machine.Arm_watchdog { epoch; delay }))
      (1 -- 2) f;
    map (fun delay -> tm (Tm_machine.Arm_retry { delay })) f;
    return (tm Tm_machine.Force_log);
    map (fun l -> tm (Tm_machine.Mark l)) (oneofl [ "a"; "b" ]);
    map
      (fun o -> tm (Tm_machine.Obs o))
      (oneofl
         [
           Tm_machine.Query_open { index = 0; server = "server-1" };
           round_open None;
           round_open (Some 0);
           Tm_machine.Phase_close;
         ]);
    map2
      (fun committed commit_rounds ->
        tm
          (Tm_machine.Finish
             {
               committed;
               reason = Cloudtx_protocol.Outcome.Committed;
               commit_rounds;
             }))
      bool (1 -- 2);
    map3
      (fun msg after_proofs credentials ->
        ps (Ps_machine.Send { dst = "tm-t1"; msg; after_proofs; credentials }))
      message (0 -- 1) (some cred);
    map2 (fun txn ts -> ps (Ps_machine.Begin_work { txn; ts })) txn f;
    map3 (fun ts -> exec ~ts) f query bool;
    map3
      (fun credentials queries with_policies ->
        ps
          (Ps_machine.Eval
             {
               txn = "t1";
               subject = "bob";
               credentials;
               queries;
               with_proofs = true;
               with_policies;
               cont;
             }))
      (some cred) (some query) bool;
    map
      (fun round ->
        ps (Ps_machine.Check_read_only { txn = "t1"; reply_to = "tm-t1"; round }))
      round;
    map2
      (fun proof_truth policy_versions ->
        ps (Ps_machine.Prepare { txn = "t1"; proof_truth; policy_versions }))
      bool
      (oneofl [ []; [ ("retail", 1) ]; [ ("retail", 2) ] ]);
    map2
      (fun commit writes ->
        ps (Ps_machine.Apply { txn = "t1"; commit; forced = true; writes }))
      bool
      (oneofl [ []; [ ("a", 1) ]; [ ("a", 2) ] ]);
    map (fun txn -> ps (Ps_machine.Forget { txn })) txn;
    map2
      (fun policies announce -> ps (Ps_machine.Install { policies; announce }))
      (some policy) bool;
    map
      (fun query_id -> ps (Ps_machine.Wait_open { txn = "t1"; query_id }))
      (oneofl [ "q0"; "q1" ]);
    map
      (fun killed_by ->
        ps (Ps_machine.Wait_close { txn = "t1"; outcome = "die"; killed_by }))
      (opt txn);
    map2
      (fun epoch delay ->
        ps (Ps_machine.Arm_inquiry { txn = "t1"; epoch; delay }))
      (1 -- 2) f;
    map (fun l -> ps (Ps_machine.Mark l)) (oneofl [ "a"; "b" ]);
  |]

(* What the binary decoder makes of [p]'s bytes: equal, and sharing no
   value with [p]. *)
let decoded_copy p =
  match Codec_bin.payload_of_string (Codec_bin.payload_to_string p) with
  | Ok q -> q
  | Error m -> failwith m

(* Two actions of one constructor: differing in one float, drawn
   independently, or one the decoded copy of the other. *)
let gen_action_pair =
  let open QCheck.Gen in
  frequency
    [
      ( 2,
        let* build = oneofa float_builders in
        let f = oneofa float_pool in
        map (fun (x, y) -> (build x, build y)) (pair f f) );
      (2, oneofa action_gens >>= fun g -> pair g g);
      (1, oneofa action_gens >>= fun g -> map (fun p -> (p, decoded_copy p)) g);
    ]

let prop_same_action =
  QCheck.Test.make ~name:"same action = same bytes = same rendering" ~count:3000
    (QCheck.make
       ~print:(fun (p, q) -> rendered_payload p ^ "\n" ^ rendered_payload q)
       gen_action_pair)
    (fun (p, q) ->
      match agree p q with Ok _ -> true | Error m -> QCheck.Test.fail_report m)

(* The compiled plan and the signature verdict are not compared: a
   policy that has been evaluated is the same as a copy that has not,
   and so is a credential. *)
let test_memos_not_compared () =
  let compiled, plain = memo_policies () in
  let checked, unchecked = memo_credentials () in
  Alcotest.(check bool) "the plan is compiled" true
    (Option.is_some compiled.Policy.plan);
  Alcotest.(check bool) "the copy's is not" true
    (Option.is_none plain.Policy.plan);
  Alcotest.(check bool) "the verdict is memoised" true
    (checked.Credential.check = Credential.Signed);
  Alcotest.(check bool) "the copy's is not" true
    (unchecked.Credential.check = Credential.Unchecked);
  List.iter
    (fun (what, p, q) ->
      match agree p q with
      | Ok same -> Alcotest.(check bool) what true same
      | Error m -> Alcotest.failf "%s: %s" what m)
    [
      ("install", install [ compiled ], install [ plain ]);
      ("eval", ps_eval [ checked ], ps_eval [ unchecked ]);
    ]

(* The actions of a journal, in order: TM ones and PS ones apart. *)
let actions_of_file path =
  match
    Journal_io.fold_file path ~init:(fun _ -> ([], [])) (fun (tm, ps) r ->
        match r.Journal_io.body with
        | Journal_io.Payload (Codec_bin.Tm_action _ as p) -> (p :: tm, ps)
        | Journal_io.Payload (Codec_bin.Ps_action _ as p) -> (tm, p :: ps)
        | _ -> (tm, ps))
  with
  | Ok (tm, ps) -> [ Array.of_list (List.rev tm); Array.of_list (List.rev ps) ]
  | Error m -> Alcotest.failf "%s unreadable: %s" path m

(* The first 40 transactions of bench/e2e's closed-bare stream, read
   back with policies and credentials shared as a read shares them. *)
let closed_bare_actions () =
  with_temp_file (Closed_bare.journal 40) actions_of_file

(* A small gray sweep, two plans in every cell under adaptive timeouts
   and the resilience gate, recorded as JSONL: crashes, recoveries,
   inquiries and RTT-sized delays, and every value decoded afresh. *)
let chaos_actions () =
  let path = Filename.temp_file "same-action" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.concat_map
        (fun cell ->
          List.concat_map
            (fun seed ->
              ignore
                (Campaign.run_plan ~journal_path:path
                   ~policy:(Timeout_policy.adaptive ())
                   ~resilience:(Resilience.config ()) cell
                   (Plan.random ~seed ()));
              actions_of_file path)
            [ 1000L; 1001L ])
        Campaign.all_cells)

(* Every pair of actions of one kind at most 25 apart in a real run: the
   comparator agrees with the bytes and the renderings, and allocates
   nothing. *)
let test_corpus_pairs () =
  let window = 25 in
  let corpora = closed_bare_actions () @ chaos_actions () in
  let pairs = ref 0 and equal = ref 0 in
  List.iter
    (fun actions ->
      let n = Array.length actions in
      let bytes = Array.map Codec_bin.payload_to_string actions in
      let json = Array.map Codec_bin.payload_to_json actions in
      for i = 0 to n - 1 do
        for j = i + 1 to min (n - 1) (i + window) do
          let same = same_payload actions.(i) actions.(j) in
          let b = String.equal bytes.(i) bytes.(j) in
          if same <> b || b <> Json.same_rendering json.(i) json.(j) then
            Alcotest.failf "same %b, bytes %b:\n  %s\n  %s" same b
              (rendered_payload actions.(i)) (rendered_payload actions.(j));
          incr pairs;
          if same then incr equal
        done
      done)
    corpora;
  Alcotest.(check bool)
    (Printf.sprintf "%d pairs, %d equal" !pairs !equal)
    true
    (!equal > 1000 && !pairs - !equal > 10_000);
  let words =
    List.fold_left
      (fun acc actions ->
        let before = Gc.minor_words () in
        for i = 0 to Array.length actions - 2 do
          ignore
            (Sys.opaque_identity (same_payload actions.(i) actions.(i + 1)))
        done;
        acc +. (Gc.minor_words () -. before))
      0. corpora
  in
  Alcotest.(check (float 0.)) "minor words comparing" 0. words

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
          [ prop_jsonl_mutation; prop_binary_mutation; prop_checksum ] );
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
          Alcotest.test_case "re-entrant raw write keeps each record's bytes"
            `Quick test_reentrant_raw_bytes;
          Alcotest.test_case "a consumer's exception" `Quick
            test_consumer_exception;
        ] );
      ( "sharing",
        [
          QCheck_alcotest.to_alcotest prop_shared_decoder;
          Alcotest.test_case "near-duplicate policies" `Quick
            test_near_duplicate_policies;
          Alcotest.test_case "forged credential" `Quick test_forged_credential;
          Alcotest.test_case "damage after an interned policy" `Quick
            test_corrupt_after_interned;
          Alcotest.test_case "sharing within a read only" `Quick
            test_sharing_pinned;
          Alcotest.test_case "allocation per record read" `Quick
            test_read_allocation;
        ] );
      ( "same action",
        [
          QCheck_alcotest.to_alcotest prop_same_action;
          Alcotest.test_case "memos not compared" `Quick
            test_memos_not_compared;
          Alcotest.test_case "recorded pairs" `Quick test_corpus_pairs;
        ] );
    ]
