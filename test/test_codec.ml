(* Tests for the JSON wire format: parser, round trips for rules /
   policies / credentials, signature preservation across the wire, and
   rejection of malformed or non-well-formed inputs.  The parser is held
   to a character-at-a-time reference on generated, mutated and recorded
   input, and the text decoders built on it (plans, policies,
   credentials) are fuzzed with byte mutations. *)

module Json = Cloudtx_policy.Json
module Codec = Cloudtx_policy.Codec
module Rule = Cloudtx_policy.Rule
module Policy = Cloudtx_policy.Policy
module Credential = Cloudtx_policy.Credential
module Ca = Cloudtx_policy.Ca
module Plan = Cloudtx_chaos.Plan
module Campaign = Cloudtx_chaos.Campaign

let ok = function Ok v -> v | Error m -> Alcotest.failf "unexpected error: %s" m

(* Replace the first occurrence of [needle] in [haystack]. *)
let replace haystack needle replacement =
  let nh = String.length haystack and nn = String.length needle in
  let rec find i =
    if i + nn > nh then None
    else if String.sub haystack i nn = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "substring %S not found" needle
  | Some i ->
    String.sub haystack 0 i ^ replacement
    ^ String.sub haystack (i + nn) (nh - i - nn)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_values () =
  let cases =
    [
      "null";
      "true";
      "false";
      "0";
      "-42";
      "[]";
      "{}";
      {|"hello"|};
      {|{"a":[1,2,3],"b":{"c":"d"}}|};
    ]
  in
  List.iter
    (fun s ->
      let v = ok (Json.parse s) in
      Alcotest.(check string) ("roundtrip " ^ s) s (Json.to_string v))
    cases

let test_json_string_escapes () =
  let v = Json.String "line\nquote\"back\\slash\ttab" in
  let rendered = Json.to_string v in
  Alcotest.(check bool) "same value back" true (ok (Json.parse rendered) = v)

let test_json_whitespace_tolerated () =
  let v = ok (Json.parse "  { \"a\" : [ 1 , 2 ] }  ") in
  Alcotest.(check bool) "parsed" true
    (v = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ])

let test_json_malformed () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [
      "";
      "{";
      "[1,]";
      "{\"a\"}";
      "\"unterminated";
      "tru";
      "1 2";
      "{\"a\":1,}";
    ]

let prop_json_string_roundtrip =
  QCheck.Test.make ~name:"json string roundtrip" ~count:300
    QCheck.(string_gen Gen.(char_range ' ' '~'))
    (fun s ->
      match Json.parse (Json.to_string (Json.String s)) with
      | Ok (Json.String s') -> String.equal s s'
      | Ok _ | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Rules and policies                                                  *)
(* ------------------------------------------------------------------ *)

let sample_rule =
  Rule.rule
    (Rule.atom "permit" [ Rule.v "s"; Rule.v "a"; Rule.v "i" ])
    [
      Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ];
      Rule.atom "req_action" [ Rule.v "a" ];
      Rule.atom "req_item" [ Rule.v "i" ];
    ]

let test_rule_roundtrip () =
  let back = ok (Codec.rule_of_json (Codec.rule_to_json sample_rule)) in
  Alcotest.(check string) "same rule" (Rule.to_string sample_rule)
    (Rule.to_string back)

let test_rule_range_restriction_on_decode () =
  (* A wire rule with an unbound head variable must be rejected. *)
  let bad =
    Json.Obj
      [
        ( "head",
          Json.Obj
            [
              ("pred", Json.String "p");
              ("args", Json.List [ Json.Obj [ ("v", Json.String "x") ] ]);
            ] );
        ("body", Json.List []);
      ]
  in
  Alcotest.(check bool) "rejected" true (Result.is_error (Codec.rule_of_json bad))

let test_negated_rule_roundtrip () =
  let r =
    Rule.rule_literals
      (Rule.atom "permit" [ Rule.v "s" ])
      [
        Rule.Pos (Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ]);
        Rule.Neg (Rule.atom "suspended" [ Rule.v "s" ]);
      ]
  in
  let back = ok (Codec.rule_of_json (Codec.rule_to_json r)) in
  Alcotest.(check string) "same rule" (Rule.to_string r) (Rule.to_string back);
  Alcotest.(check int) "negation survives" 1
    (List.length (Rule.negative_body back))

let test_policy_roundtrip () =
  let p =
    Policy.amend
      (Policy.create ~accept_capabilities:false ~domain:"retail" [ sample_rule ])
      [ sample_rule ]
  in
  let back = ok (Codec.policy_of_string (Codec.policy_to_string p)) in
  Alcotest.(check string) "domain" p.Policy.domain back.Policy.domain;
  Alcotest.(check int) "version survives" p.Policy.version back.Policy.version;
  Alcotest.(check bool) "flag" p.Policy.accept_capabilities
    back.Policy.accept_capabilities;
  Alcotest.(check int) "rules" (List.length p.Policy.rules)
    (List.length back.Policy.rules);
  (* The decoded policy behaves identically. *)
  let facts =
    [
      Rule.fact "role" [ "bob"; "clerk" ];
      Rule.fact "req_action" [ "read" ];
      Rule.fact "req_item" [ "x" ];
    ]
  in
  Alcotest.(check bool) "same decision" true
    (Policy.permits p ~facts ~subject:"bob" ~action:"read" ~item:"x"
    = Policy.permits back ~facts ~subject:"bob" ~action:"read" ~item:"x")

let test_policy_bad_version () =
  let p = Policy.create ~domain:"d" [] in
  let wire = Codec.policy_to_string p in
  let broken = replace wire "\"version\":1" "\"version\":0" in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Codec.policy_of_string broken))

(* ------------------------------------------------------------------ *)
(* Credentials                                                         *)
(* ------------------------------------------------------------------ *)

let sample_credential () =
  let ca = Ca.create "corp" in
  Ca.issue ca ~id:"bob-role" ~subject:"bob"
    ~facts:[ Rule.fact "role" [ "bob"; "clerk" ] ]
    ~now:3.5 ~ttl:100.

let test_credential_roundtrip () =
  let c = sample_credential () in
  let back = ok (Codec.credential_of_string (Codec.credential_to_string c)) in
  Alcotest.(check string) "id" c.Credential.id back.Credential.id;
  Alcotest.(check string) "subject" c.Credential.subject back.Credential.subject;
  Alcotest.(check (float 0.)) "issued_at" c.Credential.issued_at
    back.Credential.issued_at;
  Alcotest.(check bool) "signature still valid" true
    (Credential.signature_valid back);
  Alcotest.(check bool) "syntactic check passes" true
    (Credential.syntactically_valid back ~at:10. = Ok ())

let test_credential_access_kind_roundtrip () =
  let c =
    Credential.make ~id:"cap" ~subject:"bob" ~issuer:"server-1"
      ~kind:(Credential.Access { action = "read"; item = "db1" })
      ~facts:[] ~issued_at:0. ~expires_at:9.
  in
  let back = ok (Codec.credential_of_string (Codec.credential_to_string c)) in
  Alcotest.(check bool) "kind survives" true
    (match back.Credential.kind with
    | Credential.Access { action = "read"; item = "db1" } -> true
    | _ -> false);
  Alcotest.(check bool) "signature valid" true (Credential.signature_valid back)

let test_tampering_in_transit_detected () =
  (* Change the subject on the wire: the transported signature no longer
     matches, exactly like forgery at rest. *)
  let c = sample_credential () in
  let wire = Codec.credential_to_string c in
  let tampered = replace wire "\"subject\":\"bob\"" "\"subject\":\"eve\"" in
  let back = ok (Codec.credential_of_string tampered) in
  Alcotest.(check bool) "tampering detected" false (Credential.signature_valid back);
  Alcotest.(check bool) "syntactic check fails" true
    (Credential.syntactically_valid back ~at:10.
    = Error Credential.Bad_signature)

let test_credential_malformed () =
  List.iter
    (fun s ->
      match Codec.credential_of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [
      "";
      "{}";
      {|{"id":"x"}|};
      (* Non-ground fact. *)
      {|{"id":"x","subject":"s","issuer":"i","kind":{"kind":"attribute"},"facts":[{"pred":"p","args":[{"v":"z"}]}],"issued_at":0,"expires_at":1,"signature":"s"}|};
      (* Empty validity interval. *)
      {|{"id":"x","subject":"s","issuer":"i","kind":{"kind":"attribute"},"facts":[],"issued_at":5,"expires_at":5,"signature":"s"}|};
    ]

let prop_rule_roundtrip =
  (* Random well-formed rules survive the wire. *)
  let gen_rule =
    QCheck.Gen.(
      let var = map (fun i -> Rule.v (Printf.sprintf "x%d" i)) (0 -- 3) in
      let const = map (fun i -> Rule.c (Printf.sprintf "k%d" i)) (0 -- 5) in
      let body_atom =
        map2
          (fun p args -> Rule.atom (Printf.sprintf "p%d" p) args)
          (0 -- 3)
          (list_size (1 -- 3) (oneof [ var; const ]))
      in
      let* body = list_size (1 -- 4) body_atom in
      (* Head uses only variables that occur in the body (range
         restriction) plus constants. *)
      let body_vars =
        List.concat_map
          (fun (a : Rule.atom) ->
            List.filter_map
              (function Rule.Var x -> Some (Rule.v x) | Rule.Const _ -> None)
              a.Rule.args)
          body
      in
      let head_term =
        if body_vars = [] then const else oneof [ oneofl body_vars; const ]
      in
      let* head_args = list_size (1 -- 3) head_term in
      return (Rule.rule (Rule.atom "head" head_args) body))
  in
  QCheck.Test.make ~name:"rule wire roundtrip" ~count:200 (QCheck.make gen_rule)
    (fun r ->
      match Codec.rule_of_json (Codec.rule_to_json r) with
      | Ok back -> String.equal (Rule.to_string r) (Rule.to_string back)
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* The parser against its reference                                    *)
(* ------------------------------------------------------------------ *)

(* The recursive-descent parser that [Json.parse] replaced, verbatim: it
   peeks one [char option] at a time.  [Json.parse] must give the same
   tree, or the same error text at the same offset, on every input but
   one kind: a number whose float is not finite. *)
module Reference = struct
  open Json

  exception Bad of string

  let parse input =
    let pos = ref 0 in
    let len = String.length input in
    let peek () = if !pos < len then Some input.[!pos] else None in
    let advance () = incr pos in
    let fail fmt =
      Printf.ksprintf (fun m -> raise (Bad (Printf.sprintf "%s at offset %d" m !pos))) fmt
    in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | Some _ | None -> ()
    in
    let expect c =
      match peek () with
      | Some got when got = c -> advance ()
      | Some got -> fail "expected '%c', found '%c'" c got
      | None -> fail "expected '%c', found end of input" c
    in
    let literal word value =
      if !pos + String.length word <= len
         && String.sub input !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else fail "invalid literal"
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
          | Some 'u' ->
            advance ();
            if !pos + 4 > len then fail "truncated \\u escape";
            let hex = String.sub input !pos 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
            in
            (* Codec strings are byte-oriented; encode below 256 directly. *)
            if code < 256 then Buffer.add_char buf (Char.chr code)
            else begin
              Buffer.add_string buf (Printf.sprintf "\\u%s" hex)
            end;
            pos := !pos + 4;
            go ()
          | Some c -> fail "bad escape '\\%c'" c
          | None -> fail "unterminated escape")
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c when is_num_char c -> true | _ -> false) do
        advance ()
      done;
      let text = String.sub input start (!pos - start) in
      match int_of_string_opt text with
      | Some n -> Int n
      | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number %S" text)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (key, v)
          in
          let rec fields acc =
            let f = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields (f :: acc)
            | Some '}' ->
              advance ();
              List.rev (f :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
      | Some ('0' .. '9' | '-') -> parse_number ()
      | Some c -> fail "unexpected character '%c'" c
    in
    try
      let v = parse_value () in
      skip_ws ();
      if !pos <> len then Error (Printf.sprintf "trailing input at offset %d" !pos)
      else Ok v
    with Bad m -> Error m
end

(* Structural equality, except that floats compare by bits (so NaN,
   which no input can produce, and -0. are told apart exactly). *)
let rec same_tree a b =
  match (a, b) with
  | Json.Float x, Json.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys -> List.equal same_tree xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.equal (fun (k, x) (l, y) -> String.equal k l && same_tree x y) xs ys
  | _ -> a = b

let same_result a b =
  match (a, b) with
  | Ok x, Ok y -> same_tree x y
  | Error m, Error n -> String.equal m n
  | _ -> false

let show = function
  | Ok v -> "Ok " ^ Json.to_string v
  | Error m -> "Error " ^ m

(* The offset an error message ends with. *)
let offset_of message =
  match String.rindex_opt message ' ' with
  | Some i ->
    int_of_string_opt
      (String.sub message (i + 1) (String.length message - i - 1))
  | None -> None

let rec has_non_finite = function
  | Json.Float f -> not (Float.is_finite f)
  | Json.List xs -> List.exists has_non_finite xs
  | Json.Obj fs -> List.exists (fun (_, v) -> has_non_finite v) fs
  | _ -> false

(* [Json.parse] agrees with the reference on [input], or stops at a
   number token whose float is not finite and which the reference read
   past (into a tree holding that float, or a later error). *)
let agrees_with_reference input =
  let got = Json.parse input and want = Reference.parse input in
  same_result got want
  ||
  match got with
  | Error m when String.starts_with ~prefix:"number out of range " m -> (
    match offset_of m with
    | None -> false
    | Some stop ->
      let rec token_start i =
        if i > 0
           && (match input.[i - 1] with
              | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
              | _ -> false)
        then token_start (i - 1)
        else i
      in
      let start = token_start stop in
      let text = String.sub input start (stop - start) in
      String.equal m
        (Printf.sprintf "number out of range %S at offset %d" text stop)
      && (match float_of_string_opt text with
         | Some f -> not (Float.is_finite f)
         | None -> false)
      &&
      match want with
      | Ok t -> has_non_finite t
      | Error n -> (match offset_of n with Some o -> o >= stop | None -> false))
  | _ -> false

let test_json_named_cases () =
  let err m = Error m in
  let cases =
    [
      ("-0", Ok (Json.Int 0));
      ("-0.0", Ok (Json.Float (-0.)));
      ("007", Ok (Json.Int 7));
      ("123456789012345678", Ok (Json.Int 123456789012345678));
      ("-123456789012345678", Ok (Json.Int (-123456789012345678)));
      ("1234567890123456789", Ok (Json.Int 1234567890123456789));
      ("-1234567890123456789", Ok (Json.Int (-1234567890123456789)));
      (string_of_int max_int, Ok (Json.Int max_int));
      (string_of_int min_int, Ok (Json.Int min_int));
      ("4611686018427387904", Ok (Json.Float 4611686018427387904.));
      ("-", err {|bad number "-" at offset 1|});
      ("+1", err "unexpected character '+' at offset 0");
      ("1e5", Ok (Json.Float 1e5));
      ("-1.5e-3", Ok (Json.Float (-1.5e-3)));
      ("1-2", err {|bad number "1-2" at offset 3|});
      ({|"\u00e9"|}, Ok (Json.String "\xe9"));
      ({|"\u00ff"|}, Ok (Json.String "\xff"));
      ({|"\u0100"|}, Ok (Json.String {|\u0100|}));
      ({|"\uZZZZ"|}, err {|bad \u escape at offset 3|});
      ({|"\u12"|}, err {|truncated \u escape at offset 3|});
      ({|"ab\u|}, err {|truncated \u escape at offset 5|});
      ({|"ab\|}, err "unterminated escape at offset 4");
      ({|"\q"|}, err {|bad escape '\q' at offset 2|});
      ({|"a\"b\\c"|}, Ok (Json.String {|a"b\c|}));
      ({|"unterminated|}, err "unterminated string at offset 13");
      ("[1,]", err "unexpected character ']' at offset 3");
      ({|{"a" 1}|}, err "expected ':', found '1' at offset 5");
      ({|{"a":1,}|}, err {|expected '"', found '}' at offset 7|});
      ("{", err {|expected '"', found end of input at offset 1|});
      ("tru", err "invalid literal at offset 0");
      ("trux", err "invalid literal at offset 0");
      ("1 2", err "trailing input at offset 2");
      ("[1]x", err "trailing input at offset 3");
      ("", err "unexpected end of input at offset 0");
      (" \t\n\r", err "unexpected end of input at offset 4");
    ]
  in
  List.iter
    (fun (input, want) ->
      let got = Json.parse input in
      if not (same_result got want) then
        Alcotest.failf "%S: got %s, want %s" input (show got) (show want);
      if not (same_result (Reference.parse input) want) then
        Alcotest.failf "%S: the reference gives %s" input
          (show (Reference.parse input)))
    cases

(* -0. keeps its sign through text: rendered as "-0" it would read back
   as [Int 0] and render as "0" on the next round trip. *)
let test_json_negative_zero () =
  Alcotest.(check string) "renders" "-0.0" (Json.to_string (Json.Float (-0.)));
  let plan = { (Plan.random ~seed:3L ()) with Plan.horizon = -0. } in
  let once = Plan.to_string plan in
  let back = ok (Plan.of_string once) in
  Alcotest.(check bool) "the plan's horizon keeps its sign" true
    (Float.sign_bit back.Plan.horizon);
  Alcotest.(check string) "the plan's text is stable" once (Plan.to_string back)

(* A non-finite float would render as "inf", which no parser reads back,
   so the scanner rejects it where it stands. *)
let test_json_non_finite_rejected () =
  let input = "[1e999,-1e999]" in
  Alcotest.(check string) "rejected at the first token"
    {|Error number out of range "1e999" at offset 6|}
    (show (Json.parse input));
  (match Reference.parse input with
  | Ok t ->
    Alcotest.(check string) "the reference's tree renders unreadably"
      "[inf,-inf]" (Json.to_string t)
  | Error m -> Alcotest.failf "the reference rejected %S: %s" input m);
  Alcotest.(check bool) "the rendering does not parse" true
    (Result.is_error (Json.parse "[inf,-inf]"));
  Alcotest.(check bool) "agrees with the reference otherwise" true
    (agrees_with_reference input);
  (* Through the decoders built on the parser. *)
  let plan = Plan.to_string (Plan.random ~seed:3L ()) in
  let horizon = ok (Json.member "horizon" (ok (Json.parse plan))) in
  let bad_plan =
    replace plan
      (Printf.sprintf {|"horizon":%s|} (Json.to_string horizon))
      {|"horizon":-1e999|}
  in
  (match Plan.of_string bad_plan with
  | Error m
    when String.starts_with ~prefix:{|number out of range "-1e999"|} m ->
    ()
  | Error m -> Alcotest.failf "plan: unexpected error %s" m
  | Ok _ -> Alcotest.fail "plan with a non-finite horizon accepted");
  let cred = Codec.credential_to_string (sample_credential ()) in
  let bad_cred = replace cred {|"expires_at":103.5|} {|"expires_at":1e400|} in
  match Codec.credential_of_string bad_cred with
  | Error m
    when String.starts_with ~prefix:{|number out of range "1e400"|} m ->
    ()
  | Error m -> Alcotest.failf "credential: unexpected error %s" m
  | Ok _ -> Alcotest.fail "credential with a non-finite expiry accepted"

(* Random trees, rendered with random whitespace between tokens. *)
let gen_tree =
  QCheck.Gen.(
    let text =
      string_size
        ~gen:(frequency [ (6, char_range ' ' '~'); (1, char) ])
        (0 -- 6)
    in
    let number =
      oneof
        [
          map (fun n -> Json.Int n) small_signed_int;
          map (fun n -> Json.Int n) int;
          map (fun f -> Json.Float f) float;
          map (fun f -> Json.Float f) (float_range (-1e4) 1e4);
        ]
    in
    let leaf =
      frequency
        [
          (1, return Json.Null);
          (1, map (fun b -> Json.Bool b) bool);
          (4, number);
          (3, map (fun s -> Json.String s) text);
        ]
    in
    sized_size (0 -- 12)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 1,
                   map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 2)))
                 );
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (0 -- 4) (pair text (self (n / 2)))) );
               ]))

let render_with_whitespace st t =
  let buf = Buffer.create 64 in
  (* Up to two whitespace bytes, a quarter of the time. *)
  let ws () =
    if Random.State.int st 4 = 0 then
      for _ = 1 to Random.State.int st 3 do
        Buffer.add_char buf " \t\n\r".[Random.State.int st 4]
      done
  in
  let rec go t =
    ws ();
    (match t with
    | Json.List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          go v)
        items;
      ws ();
      Buffer.add_char buf ']'
    | Json.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          ws ();
          Buffer.add_string buf (Json.to_string (Json.String k));
          ws ();
          Buffer.add_char buf ':';
          go v)
        fields;
      ws ();
      Buffer.add_char buf '}'
    | leaf -> Buffer.add_string buf (Json.to_string leaf));
    ws ()
  in
  go t;
  Buffer.contents buf

(* The bytes JSON is made of, so that mutations mostly stay near-valid. *)
let json_alphabet =
  List.of_seq
    (String.to_seq
       ({|{}[]:,"\/-+.eE0123456789 tnrfalsuxbZ|} ^ "\t\n\r\x00\x7f\xff"))

let gen_edits =
  QCheck.Gen.(
    list_size (1 -- 4)
      (pair (int_bound 1_000_000)
         (frequency [ (3, oneofl json_alphabet); (1, char) ])))

let mutate s edits =
  if s = "" then s
  else begin
    let b = Bytes.of_string s in
    List.iter (fun (pos, c) -> Bytes.set b (pos mod Bytes.length b) c) edits;
    Bytes.to_string b
  end

(* Overwritten, then (half the time) truncated. *)
let gen_damage =
  QCheck.Gen.(pair gen_edits (option ~ratio:0.5 (int_bound 1_000_000)))

let damage s (edits, cut) =
  let s = mutate s edits in
  match cut with
  | Some n when s <> "" -> String.sub s 0 (n mod String.length s)
  | _ -> s

let prop_json_matches_reference =
  QCheck.Test.make ~name:"damaged trees = reference" ~count:3000
    (QCheck.make
       ~print:(fun (text, damaged) ->
         Printf.sprintf "%S damaged to %S" text damaged)
       QCheck.Gen.(
         let* t = gen_tree in
         let* text = fun st -> render_with_whitespace st t in
         let* d = gen_damage in
         return (text, damage text d)))
    (fun (text, damaged) ->
      (agrees_with_reference text && agrees_with_reference damaged)
      || QCheck.Test.fail_reportf "new %s, reference %s"
           (show (Json.parse damaged))
           (show (Reference.parse damaged)))

(* One faulted chaos run's JSONL journal, under the adaptive timeout
   policy (float RTT samples) with crash recovery. *)
let chaos_journal =
  lazy
    (let path = Filename.temp_file "cloudtx_codec_chaos" ".jsonl" in
     Fun.protect
       ~finally:(fun () -> Sys.remove path)
       (fun () ->
         let cell =
           {
             Campaign.scheme = Cloudtx_protocol.Scheme.Continuous;
             level = Cloudtx_protocol.Consistency.Global;
           }
         in
         (match
            Campaign.run_plan ~certify:true ~journal_path:path
              ~policy:(Cloudtx_protocol.Timeout_policy.adaptive ())
              ~resilience:(Cloudtx_core.Resilience.config ())
              cell
              (Plan.random ~seed:1002L ())
          with
         | Ok () -> ()
         | Error f -> Alcotest.failf "chaos run failed: %s" f.Campaign.what);
         In_channel.with_open_bin path In_channel.input_all
         |> String.split_on_char '\n'
         |> List.filter (fun l -> l <> "")
         |> Array.of_list))

let test_json_journal_lines () =
  let lines = Lazy.force chaos_journal in
  Alcotest.(check bool) "a faulted run's journal" true
    (Array.length lines > 100);
  let floats = ref 0 in
  Array.iter
    (fun line ->
      (match Json.parse line with
      | Ok t ->
        let rec count = function
          | Json.Float _ -> incr floats
          | Json.List xs -> List.iter count xs
          | Json.Obj fs -> List.iter (fun (_, v) -> count v) fs
          | _ -> ()
        in
        count t;
        Alcotest.(check string) "re-renders to the line" line (Json.to_string t)
      | Error m -> Alcotest.failf "line unreadable: %s" m);
      if not (agrees_with_reference line) then
        Alcotest.failf "disagree on %S" line)
    lines;
  Alcotest.(check bool) "with float fields" true (!floats > 0)

let prop_journal_lines_match_reference =
  QCheck.Test.make ~name:"damaged journal lines = reference" ~count:2000
    (QCheck.make QCheck.Gen.(pair small_nat gen_damage))
    (fun (i, d) ->
      let lines = Lazy.force chaos_journal in
      let damaged = damage lines.(i mod Array.length lines) d in
      agrees_with_reference damaged
      || QCheck.Test.fail_reportf "%S: new %s, reference %s" damaged
           (show (Json.parse damaged))
           (show (Reference.parse damaged)))

(* ------------------------------------------------------------------ *)
(* Fuzzing the text decoders                                           *)
(* ------------------------------------------------------------------ *)

(* Under damage a decoder never raises, and what it accepts re-renders to
   text that decodes back to the same rendering. *)
let decodes_stably ~decode ~render text =
  match decode text with
  | exception e ->
    QCheck.Test.fail_reportf "%S: raised %s" text (Printexc.to_string e)
  | Error _ -> true
  | Ok v -> (
    let once = render v in
    match decode once with
    | exception e ->
      QCheck.Test.fail_reportf "%S: its rendering %S raised %s" text once
        (Printexc.to_string e)
    | Ok v' when String.equal (render v') once -> true
    | Ok v' ->
      QCheck.Test.fail_reportf "%S renders as %S, then as %S" text once
        (render v')
    | Error m ->
      QCheck.Test.fail_reportf "%S renders as %S, which fails: %s" text once m
    )

let fuzz_corpus ~name ~count corpus ~decode ~render =
  QCheck.Test.make ~name ~count
    (QCheck.make
       ~print:(fun (i, d) ->
         let texts = Lazy.force corpus in
         damage texts.(i mod Array.length texts) d)
       QCheck.Gen.(pair small_nat gen_damage))
    (fun (i, d) ->
      let texts = Lazy.force corpus in
      let text = texts.(i mod Array.length texts) in
      decodes_stably ~decode ~render (damage text d))

let policy_corpus =
  lazy
    (let negated =
       Rule.rule_literals
         (Rule.atom "permit" [ Rule.v "s" ])
         [
           Rule.Pos (Rule.atom "role" [ Rule.v "s"; Rule.c "clerk" ]);
           Rule.Neg (Rule.atom "suspended" [ Rule.v "s" ]);
         ]
     in
     Array.map Codec.policy_to_string
       [|
         Policy.create ~domain:"d" [];
         Policy.amend
           (Policy.create ~accept_capabilities:false ~domain:"retail"
              [ sample_rule ])
           [ sample_rule; negated ];
       |])

let credential_corpus =
  lazy
    (Array.map Codec.credential_to_string
       [|
         sample_credential ();
         Credential.make ~id:"cap" ~subject:"bob" ~issuer:"server-1"
           ~kind:(Credential.Access { action = "read"; item = "db1" })
           ~facts:[] ~issued_at:0.25 ~expires_at:9.;
       |])

(* Seeded plans of the v2 grammar: fail-stop and gray ops, and one whose
   horizon is -0. *)
let plan_corpus =
  lazy
    (Array.map Plan.to_string
       (Array.append
          (Array.init 6 (fun i -> Plan.random ~seed:(Int64.of_int (i + 1)) ()))
          [| { (Plan.random ~seed:7L ()) with Plan.horizon = -0. } |]))

let prop_policy_fuzz =
  fuzz_corpus ~name:"policy decoder under damage" ~count:1000 policy_corpus
    ~decode:Codec.policy_of_string ~render:Codec.policy_to_string

let prop_credential_fuzz =
  fuzz_corpus ~name:"credential decoder under damage" ~count:1000
    credential_corpus ~decode:Codec.credential_of_string
    ~render:Codec.credential_to_string

let prop_plan_fuzz =
  fuzz_corpus ~name:"plan decoder under damage" ~count:1000 plan_corpus
    ~decode:Plan.of_string ~render:Plan.to_string

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "codec"
    [
      ( "json",
        [
          Alcotest.test_case "values" `Quick test_json_values;
          Alcotest.test_case "string escapes" `Quick test_json_string_escapes;
          Alcotest.test_case "whitespace" `Quick test_json_whitespace_tolerated;
          Alcotest.test_case "malformed" `Quick test_json_malformed;
          qc prop_json_string_roundtrip;
          Alcotest.test_case "named cases = reference" `Quick
            test_json_named_cases;
          Alcotest.test_case "negative zero round-trips" `Quick
            test_json_negative_zero;
          Alcotest.test_case "non-finite numbers rejected" `Quick
            test_json_non_finite_rejected;
          Alcotest.test_case "chaos journal lines = reference" `Quick
            test_json_journal_lines;
          qc prop_json_matches_reference;
          qc prop_journal_lines_match_reference;
        ] );
      ( "rules",
        [
          Alcotest.test_case "roundtrip" `Quick test_rule_roundtrip;
          Alcotest.test_case "range restriction on decode" `Quick
            test_rule_range_restriction_on_decode;
          Alcotest.test_case "negated rule roundtrip" `Quick
            test_negated_rule_roundtrip;
          qc prop_rule_roundtrip;
        ] );
      ( "policies",
        [
          Alcotest.test_case "roundtrip" `Quick test_policy_roundtrip;
          Alcotest.test_case "bad version rejected" `Quick test_policy_bad_version;
        ] );
      ( "credentials",
        [
          Alcotest.test_case "roundtrip" `Quick test_credential_roundtrip;
          Alcotest.test_case "access kind" `Quick
            test_credential_access_kind_roundtrip;
          Alcotest.test_case "tampering detected" `Quick
            test_tampering_in_transit_detected;
          Alcotest.test_case "malformed rejected" `Quick test_credential_malformed;
        ] );
      ( "fuzz",
        [
          qc prop_policy_fuzz;
          qc prop_credential_fuzz;
          qc prop_plan_fuzz;
        ] );
    ]
