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
module Scheme = Cloudtx_core.Scheme
module Consistency = Cloudtx_core.Consistency
module Cluster = Cloudtx_core.Cluster
module Codec_bin = Cloudtx_protocol.Codec_bin
module Transport = Cloudtx_sim.Transport
module Splitmix = Cloudtx_sim.Splitmix
module Scenario = Cloudtx_workload.Scenario
module Generator = Cloudtx_workload.Generator
module Experiment = Cloudtx_workload.Experiment

(* One protocol run recorded natively in [format]; the journal bytes. *)
let record_cell ?(txns = 4) ~format scheme level =
  let scenario = Scenario.retail ~seed:91L ~n_servers:3 ~n_subjects:3 () in
  let transport = Cluster.transport scenario.Scenario.cluster in
  let journal = Transport.enable_journal ~format transport in
  let rng = Splitmix.create 17L in
  let params = { Generator.default with queries_per_txn = 3; write_ratio = 0.5 } in
  ignore
    (Experiment.run_sequential scenario (Manager.config scheme level) ~n:txns
       (fun ~i -> Generator.generate scenario rng params ~id:(Printf.sprintf "t%d" i)));
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
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "all cells, both formats, same verdicts" `Quick
            test_cross_format_equivalence;
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_jsonl_mutation; prop_binary_mutation ] );
    ]
