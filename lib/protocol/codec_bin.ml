(* Compact binary codec for the journal payload vocabulary.  One byte
   tag per variant (tags are positional, fixed forever within a journal
   format version), zigzag-varint ints, varint-length strings, IEEE-754
   little-endian floats.  Encoders write straight into a caller-supplied
   [Cloudtx_obs.Wbuf.t] — the journal's reused frame writer — with no
   intermediate JSON or string copies, which is what makes the binary
   journal's hot path allocation-lean.  Decoders rebuild the typed value
   and never raise; [payload_to_json] renders a payload as the
   byte-identical canonical JSON a JSONL journal would have recorded.
   See codec_bin.mli. *)

module Wbuf = Cloudtx_obs.Wbuf
module Json = Cloudtx_policy.Json
module Pcodec = Cloudtx_policy.Codec
module Proof = Cloudtx_policy.Proof
module Credential = Cloudtx_policy.Credential
module Policy = Cloudtx_policy.Policy
module Rule = Cloudtx_policy.Rule
module Query = Cloudtx_txn.Query
module Transaction = Cloudtx_txn.Transaction
module Tpc = Cloudtx_txn.Tpc
module Value = Cloudtx_store.Value
module Lock_manager = Cloudtx_store.Lock_manager

(* ------------------------------------------------------------------ *)
(* Wire primitives                                                     *)
(* ------------------------------------------------------------------ *)

let add_tag b n = Wbuf.u8 b n

(* Unsigned LEB128. *)
let add_varint b n = Wbuf.varint b n

(* Zigzag, so negative ints stay short. *)
let add_int b n = Wbuf.varint b ((n lsl 1) lxor (n asr 62))
let add_bool b v = Wbuf.char b (if v then '\001' else '\000')
let add_f64 b f = Wbuf.f64_le b f

let add_str b s = Wbuf.lstr b s

let add_opt emit b = function
  | None -> add_tag b 0
  | Some v ->
    add_tag b 1;
    emit b v

(* Top-level recursion instead of [List.iter (emit b)]: the partial
   application would allocate a closure per list, and lists are
   everywhere in the payload vocabulary (hot-path emitters must not
   allocate). *)
let rec emit_each emit b = function
  | [] -> ()
  | x :: tl ->
    emit b x;
    emit_each emit b tl

(* Specialised [add_list add_str]: the per-element call through the
   [emit] closure cannot devirtualise in classic mode, and string lists
   (read sets, proof items, credential ids) are the hottest list
   shape. *)
let rec add_str_each b = function
  | [] -> ()
  | s :: tl ->
    add_str b s;
    add_str_each b tl

let add_str_list b l =
  add_varint b (List.length l);
  add_str_each b l

let add_list emit b l =
  add_varint b (List.length l);
  emit_each emit b l

type reader = { s : string; limit : int; mutable pos : int }

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let byte r =
  if r.pos >= r.limit then corrupt "unexpected end of payload"
  else begin
    let c = Char.code (String.unsafe_get r.s r.pos) in
    r.pos <- r.pos + 1;
    c
  end

let read_varint r =
  let n = ref 0 and shift = ref 0 in
  let fin = ref (-1) in
  while !fin < 0 do
    if !shift > 56 then corrupt "varint too wide";
    let b = byte r in
    n := !n lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then fin := 0
  done;
  !n

let read_int r =
  let u = read_varint r in
  (u lsr 1) lxor (-(u land 1))

let read_bool r =
  match byte r with
  | 0 -> false
  | 1 -> true
  | n -> corrupt "bool: bad byte %d" n

let read_f64 r =
  if r.pos + 8 > r.limit then corrupt "unexpected end of payload in float";
  let v = Bytes.get_int64_le (Bytes.unsafe_of_string r.s) r.pos in
  r.pos <- r.pos + 8;
  Int64.float_of_bits v

let read_str r =
  let len = read_varint r in
  if r.pos + len > r.limit then corrupt "unexpected end of payload in string";
  let s = String.sub r.s r.pos len in
  r.pos <- r.pos + len;
  s

let read_opt f r =
  match byte r with
  | 0 -> None
  | 1 -> Some (f r)
  | n -> corrupt "option: bad byte %d" n

let read_list f r =
  let n = read_varint r in
  let acc = ref [] in
  for _ = 1 to n do
    acc := f r :: !acc
  done;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Store values and queries                                            *)
(* ------------------------------------------------------------------ *)

let emit_value b = function
  | Value.Int n ->
    add_tag b 0;
    add_int b n
  | Value.Text s ->
    add_tag b 1;
    add_str b s

let read_value r =
  match byte r with
  | 0 -> Value.Int (read_int r)
  | 1 -> Value.Text (read_str r)
  | n -> corrupt "value: bad tag %d" n

let emit_update b = function
  | Value.Set v ->
    add_tag b 0;
    emit_value b v
  | Value.Add n ->
    add_tag b 1;
    add_int b n

let read_update r =
  match byte r with
  | 0 -> Value.Set (read_value r)
  | 1 -> Value.Add (read_int r)
  | n -> corrupt "update: bad tag %d" n

let emit_write b (key, update) =
  add_str b key;
  emit_update b update

let read_write r =
  let key = read_str r in
  let update = read_update r in
  (key, update)

let emit_query b (q : Query.t) =
  add_str b q.Query.id;
  add_str b q.Query.server;
  add_str_list b q.Query.reads;
  add_list emit_write b q.Query.writes;
  add_opt add_str b q.Query.action_override

let read_query r =
  let id = read_str r in
  let server = read_str r in
  let reads = read_list read_str r in
  let writes = read_list read_write r in
  let action = read_opt read_str r in
  Query.make ~id ~server ~reads ~writes ?action ()

(* ------------------------------------------------------------------ *)
(* Policies and credentials                                            *)
(* ------------------------------------------------------------------ *)

let emit_term b = function
  | Rule.Var x ->
    add_tag b 0;
    add_str b x
  | Rule.Const c ->
    add_tag b 1;
    add_str b c

let read_term r =
  match byte r with
  | 0 -> Rule.Var (read_str r)
  | 1 -> Rule.Const (read_str r)
  | n -> corrupt "term: bad tag %d" n

let emit_atom b (a : Rule.atom) =
  add_str b a.Rule.pred;
  add_list emit_term b a.Rule.args

let read_atom r =
  let pred = read_str r in
  let args = read_list read_term r in
  Rule.atom pred args

let emit_literal b = function
  | Rule.Pos a ->
    add_tag b 0;
    emit_atom b a
  | Rule.Neg a ->
    add_tag b 1;
    emit_atom b a

let read_literal r =
  match byte r with
  | 0 -> Rule.Pos (read_atom r)
  | 1 -> Rule.Neg (read_atom r)
  | n -> corrupt "literal: bad tag %d" n

let emit_rule b (rule : Rule.t) =
  emit_atom b rule.Rule.head;
  add_list emit_literal b rule.Rule.body

let read_rule r =
  let head = read_atom r in
  let body = read_list read_literal r in
  (* Same receiving-side re-validation as the JSON decoder. *)
  try Rule.rule_literals head body
  with Invalid_argument m -> corrupt "rule: %s" m

let emit_policy b (p : Policy.t) =
  add_str b p.Policy.domain;
  add_int b p.Policy.version;
  add_bool b p.Policy.accept_capabilities;
  add_list emit_rule b p.Policy.rules

let read_policy r =
  let domain = read_str r in
  let version = read_int r in
  let accept_capabilities = read_bool r in
  let rules = read_list read_rule r in
  try Policy.of_wire ~domain ~version ~accept_capabilities rules
  with Invalid_argument m -> corrupt "policy: %s" m

let emit_cred_kind b = function
  | Credential.Attribute -> add_tag b 0
  | Credential.Access { action; item } ->
    add_tag b 1;
    add_str b action;
    add_str b item

let read_cred_kind r =
  match byte r with
  | 0 -> Credential.Attribute
  | 1 ->
    let action = read_str r in
    let item = read_str r in
    Credential.Access { action; item }
  | n -> corrupt "credential kind: bad tag %d" n

let emit_credential b (c : Credential.t) =
  add_str b c.Credential.id;
  add_str b c.Credential.subject;
  add_str b c.Credential.issuer;
  emit_cred_kind b c.Credential.kind;
  add_list emit_atom b c.Credential.facts;
  add_f64 b c.Credential.issued_at;
  add_f64 b c.Credential.expires_at;
  add_str b c.Credential.signature

let read_credential r =
  let id = read_str r in
  let subject = read_str r in
  let issuer = read_str r in
  let kind = read_cred_kind r in
  let facts = read_list read_atom r in
  let issued_at = read_f64 r in
  let expires_at = read_f64 r in
  let signature = read_str r in
  List.iter
    (fun a -> if not (Rule.is_ground a) then corrupt "credential fact must be ground")
    facts;
  try
    Credential.of_wire ~id ~subject ~issuer ~kind ~facts ~issued_at ~expires_at
      ~signature
  with Invalid_argument m -> corrupt "credential: %s" m

let emit_credentials b creds = add_list emit_credential b creds
let read_credentials r = read_list read_credential r
let emit_policies b ps = add_list emit_policy b ps
let read_policies r = read_list read_policy r

let emit_transaction b (txn : Transaction.t) =
  add_str b txn.Transaction.id;
  add_str b txn.Transaction.subject;
  add_list emit_query b txn.Transaction.queries;
  emit_credentials b txn.Transaction.credentials

let read_transaction r =
  let id = read_str r in
  let subject = read_str r in
  let queries = read_list read_query r in
  let credentials = read_credentials r in
  Transaction.make ~id ~subject ~credentials queries

(* ------------------------------------------------------------------ *)
(* Proofs                                                              *)
(* ------------------------------------------------------------------ *)

let emit_syntactic_failure b = function
  | Credential.Not_yet_valid -> add_tag b 0
  | Credential.Expired -> add_tag b 1
  | Credential.Bad_signature -> add_tag b 2

let read_syntactic_failure r =
  match byte r with
  | 0 -> Credential.Not_yet_valid
  | 1 -> Credential.Expired
  | 2 -> Credential.Bad_signature
  | n -> corrupt "syntactic failure: bad tag %d" n

let emit_failure b = function
  | Proof.Syntactic (id, why) ->
    add_tag b 0;
    add_str b id;
    emit_syntactic_failure b why
  | Proof.Revoked id ->
    add_tag b 1;
    add_str b id
  | Proof.Untrusted_issuer id ->
    add_tag b 2;
    add_str b id
  | Proof.Denied item ->
    add_tag b 3;
    add_str b item

let read_failure r =
  match byte r with
  | 0 ->
    let id = read_str r in
    let why = read_syntactic_failure r in
    Proof.Syntactic (id, why)
  | 1 -> Proof.Revoked (read_str r)
  | 2 -> Proof.Untrusted_issuer (read_str r)
  | 3 -> Proof.Denied (read_str r)
  | n -> corrupt "proof failure: bad tag %d" n

let emit_request b (req : Proof.request) =
  add_str b req.Proof.subject;
  add_str b req.Proof.action;
  add_str_list b req.Proof.items

let read_request r =
  let subject = read_str r in
  let action = read_str r in
  let items = read_list read_str r in
  { Proof.subject; action; items }

let emit_proof b (p : Proof.t) =
  add_str b p.Proof.query_id;
  add_str b p.Proof.server;
  add_str b p.Proof.domain;
  add_int b p.Proof.policy_version;
  add_f64 b p.Proof.evaluated_at;
  add_str_list b p.Proof.credential_ids;
  emit_request b p.Proof.request;
  add_bool b p.Proof.result;
  add_list emit_failure b p.Proof.failures

let read_proof r =
  let query_id = read_str r in
  let server = read_str r in
  let domain = read_str r in
  let policy_version = read_int r in
  let evaluated_at = read_f64 r in
  let credential_ids = read_list read_str r in
  let request = read_request r in
  let result = read_bool r in
  let failures = read_list read_failure r in
  {
    Proof.query_id;
    server;
    domain;
    policy_version;
    evaluated_at;
    credential_ids;
    request;
    result;
    failures;
  }

let emit_proofs b ps = add_list emit_proof b ps
let read_proofs r = read_list read_proof r

(* (key, value option) read sets. *)
let emit_reads b reads =
  add_list
    (fun b (key, v) ->
      add_str b key;
      add_opt emit_value b v)
    b reads

let read_reads r =
  read_list
    (fun r ->
      let key = read_str r in
      let v = read_opt read_value r in
      (key, v))
    r

let emit_reply_with b = function
  | `Validate -> add_tag b 0
  | `Commit -> add_tag b 1

let read_reply_with r =
  match byte r with
  | 0 -> `Validate
  | 1 -> `Commit
  | n -> corrupt "reply_with: bad tag %d" n

(* ------------------------------------------------------------------ *)
(* Wire messages                                                       *)
(* ------------------------------------------------------------------ *)

let emit_exec_outcome b = function
  | Message.Executed { reads; proof } ->
    add_tag b 0;
    emit_reads b reads;
    add_opt emit_proof b proof
  | Message.Exec_die -> add_tag b 1

let read_exec_outcome r =
  match byte r with
  | 0 ->
    let reads = read_reads r in
    let proof = read_opt read_proof r in
    Message.Executed { reads; proof }
  | 1 -> Message.Exec_die
  | n -> corrupt "exec outcome: bad tag %d" n

let emit_message b = function
  | Message.Execute { txn; ts; query; subject; credentials; evaluate_proof; snapshot }
    ->
    add_tag b 0;
    add_str b txn;
    add_f64 b ts;
    emit_query b query;
    add_str b subject;
    emit_credentials b credentials;
    add_bool b evaluate_proof;
    add_bool b snapshot
  | Message.Execute_reply { txn; query_id; outcome } ->
    add_tag b 1;
    add_str b txn;
    add_str b query_id;
    emit_exec_outcome b outcome
  | Message.Validate_request { txn; round } ->
    add_tag b 2;
    add_str b txn;
    add_int b round
  | Message.Validate_reply { txn; round; proofs; policies } ->
    add_tag b 3;
    add_str b txn;
    add_int b round;
    emit_proofs b proofs;
    emit_policies b policies
  | Message.Commit_request { txn; round; validate; allow_read_only; expected } ->
    add_tag b 4;
    add_str b txn;
    add_int b round;
    add_bool b validate;
    add_bool b allow_read_only;
    add_int b expected
  | Message.Commit_reply { txn; round; integrity; read_only; proofs; policies } ->
    add_tag b 5;
    add_str b txn;
    add_int b round;
    add_bool b integrity;
    add_bool b read_only;
    emit_proofs b proofs;
    emit_policies b policies
  | Message.Policy_update { txn; round; policies; reply_with } ->
    add_tag b 6;
    add_str b txn;
    add_int b round;
    emit_policies b policies;
    emit_reply_with b reply_with
  | Message.Decision { txn; commit } ->
    add_tag b 7;
    add_str b txn;
    add_bool b commit
  | Message.Decision_ack { txn } ->
    add_tag b 8;
    add_str b txn
  | Message.Master_version_request { txn } ->
    add_tag b 9;
    add_str b txn
  | Message.Master_version_reply { txn; policies } ->
    add_tag b 10;
    add_str b txn;
    emit_policies b policies
  | Message.Propagate_policy { policy } ->
    add_tag b 11;
    emit_policy b policy
  | Message.Inquiry { txn } ->
    add_tag b 12;
    add_str b txn

let read_message r =
  match byte r with
  | 0 ->
    let txn = read_str r in
    let ts = read_f64 r in
    let query = read_query r in
    let subject = read_str r in
    let credentials = read_credentials r in
    let evaluate_proof = read_bool r in
    let snapshot = read_bool r in
    Message.Execute { txn; ts; query; subject; credentials; evaluate_proof; snapshot }
  | 1 ->
    let txn = read_str r in
    let query_id = read_str r in
    let outcome = read_exec_outcome r in
    Message.Execute_reply { txn; query_id; outcome }
  | 2 ->
    let txn = read_str r in
    let round = read_int r in
    Message.Validate_request { txn; round }
  | 3 ->
    let txn = read_str r in
    let round = read_int r in
    let proofs = read_proofs r in
    let policies = read_policies r in
    Message.Validate_reply { txn; round; proofs; policies }
  | 4 ->
    let txn = read_str r in
    let round = read_int r in
    let validate = read_bool r in
    let allow_read_only = read_bool r in
    let expected = read_int r in
    Message.Commit_request { txn; round; validate; allow_read_only; expected }
  | 5 ->
    let txn = read_str r in
    let round = read_int r in
    let integrity = read_bool r in
    let read_only = read_bool r in
    let proofs = read_proofs r in
    let policies = read_policies r in
    Message.Commit_reply { txn; round; integrity; read_only; proofs; policies }
  | 6 ->
    let txn = read_str r in
    let round = read_int r in
    let policies = read_policies r in
    let reply_with = read_reply_with r in
    Message.Policy_update { txn; round; policies; reply_with }
  | 7 ->
    let txn = read_str r in
    let commit = read_bool r in
    Message.Decision { txn; commit }
  | 8 -> Message.Decision_ack { txn = read_str r }
  | 9 -> Message.Master_version_request { txn = read_str r }
  | 10 ->
    let txn = read_str r in
    let policies = read_policies r in
    Message.Master_version_reply { txn; policies }
  | 11 -> Message.Propagate_policy { policy = read_policy r }
  | 12 -> Message.Inquiry { txn = read_str r }
  | n -> corrupt "message: bad tag %d" n

(* ------------------------------------------------------------------ *)
(* TM configuration                                                    *)
(* ------------------------------------------------------------------ *)

let emit_master_mode b = function
  | `Once -> add_tag b 0
  | `Every_round -> add_tag b 1

let read_master_mode r =
  match byte r with
  | 0 -> `Once
  | 1 -> `Every_round
  | n -> corrupt "master mode: bad tag %d" n

let emit_config b (cfg : Tm_machine.config) =
  add_str b (Scheme.name cfg.Tm_machine.scheme);
  add_str b (Consistency.name cfg.Tm_machine.level);
  emit_master_mode b cfg.Tm_machine.master_mode;
  add_int b cfg.Tm_machine.max_rounds;
  add_f64 b cfg.Tm_machine.vote_timeout;
  add_f64 b cfg.Tm_machine.decision_retry;
  add_bool b cfg.Tm_machine.read_only_optimization;
  add_bool b cfg.Tm_machine.snapshot_reads

(* The timeout policy is NOT part of [emit_config]'s frame: a [Fixed]
   Create_tm keeps payload kind 0 and the exact v3 config bytes, and a
   non-[Fixed] one uses the self-describing kind 6 which appends the
   policy after the config — so v3 journals decode unchanged with no
   version threading through [read_config]. *)
let add_i64 b v =
  for i = 0 to 7 do
    Wbuf.u8 b
      (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL))
  done

let read_i64 r =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (byte r)) (8 * i))
  done;
  !v

let emit_timeout_policy b = function
  | Timeout_policy.Fixed -> add_tag b 0
  | Timeout_policy.Adaptive a ->
    add_tag b 1;
    add_i64 b a.Timeout_policy.seed;
    add_f64 b a.Timeout_policy.rtt_multiplier;
    add_f64 b a.Timeout_policy.min_timeout;
    add_f64 b a.Timeout_policy.backoff_factor;
    add_f64 b a.Timeout_policy.backoff_max;
    add_f64 b a.Timeout_policy.jitter;
    add_int b a.Timeout_policy.vote_budget;
    add_int b a.Timeout_policy.retry_budget

let read_timeout_policy r =
  match byte r with
  | 0 -> Timeout_policy.Fixed
  | 1 ->
    let seed = read_i64 r in
    let rtt_multiplier = read_f64 r in
    let min_timeout = read_f64 r in
    let backoff_factor = read_f64 r in
    let backoff_max = read_f64 r in
    let jitter = read_f64 r in
    let vote_budget = read_int r in
    let retry_budget = read_int r in
    Timeout_policy.Adaptive
      {
        Timeout_policy.seed;
        rtt_multiplier;
        min_timeout;
        backoff_factor;
        backoff_max;
        jitter;
        vote_budget;
        retry_budget;
      }
  | n -> corrupt "timeout policy: bad tag %d" n

let read_config r =
  let scheme =
    let s = read_str r in
    match Scheme.of_string s with
    | Some scheme -> scheme
    | None -> corrupt "scheme %S unknown" s
  in
  let level =
    let s = read_str r in
    match Consistency.of_string s with
    | Some level -> level
    | None -> corrupt "consistency level %S unknown" s
  in
  let master_mode = read_master_mode r in
  let max_rounds = read_int r in
  let vote_timeout = read_f64 r in
  let decision_retry = read_f64 r in
  let read_only_optimization = read_bool r in
  let snapshot_reads = read_bool r in
  {
    Tm_machine.scheme;
    level;
    master_mode;
    max_rounds;
    vote_timeout;
    decision_retry;
    read_only_optimization;
    snapshot_reads;
    (* Kind-0 Create_tm frames carry no policy; kind 6 overrides this. *)
    timeout_policy = Timeout_policy.Fixed;
  }

let emit_variant b = function
  | Tpc.Basic -> add_tag b 0
  | Tpc.Presumed_abort -> add_tag b 1
  | Tpc.Presumed_commit -> add_tag b 2

let read_variant r =
  match byte r with
  | 0 -> Tpc.Basic
  | 1 -> Tpc.Presumed_abort
  | 2 -> Tpc.Presumed_commit
  | n -> corrupt "2PC variant: bad tag %d" n

let emit_reason b (reason : Outcome.reason) =
  add_tag b
    (match reason with
    | Outcome.Committed -> 0
    | Outcome.Integrity_violation -> 1
    | Outcome.Proof_failure -> 2
    | Outcome.Version_inconsistency -> 3
    | Outcome.Wait_die -> 4
    | Outcome.Rounds_exhausted -> 5
    | Outcome.Timed_out -> 6
    | Outcome.Coordinator_crash -> 7
    | Outcome.Budget_exhausted -> 8
    | Outcome.Breaker_open -> 9
    | Outcome.Admission_rejected -> 10)

let read_reason r =
  match byte r with
  | 0 -> Outcome.Committed
  | 1 -> Outcome.Integrity_violation
  | 2 -> Outcome.Proof_failure
  | 3 -> Outcome.Version_inconsistency
  | 4 -> Outcome.Wait_die
  | 5 -> Outcome.Rounds_exhausted
  | 6 -> Outcome.Timed_out
  | 7 -> Outcome.Coordinator_crash
  | 8 -> Outcome.Budget_exhausted
  | 9 -> Outcome.Breaker_open
  | 10 -> Outcome.Admission_rejected
  | n -> corrupt "outcome reason: bad tag %d" n

(* ------------------------------------------------------------------ *)
(* TM inputs and actions                                               *)
(* ------------------------------------------------------------------ *)

let emit_tm_input b = function
  | Tm_machine.Deliver { src; msg } ->
    add_tag b 0;
    add_str b src;
    emit_message b msg
  | Tm_machine.Watchdog_fired { epoch } ->
    add_tag b 1;
    add_int b epoch
  | Tm_machine.Retry_fired -> add_tag b 2
  | Tm_machine.Rtt_sample { peer; ms } ->
    add_tag b 3;
    add_str b peer;
    add_f64 b ms

let read_tm_input r =
  match byte r with
  | 0 ->
    let src = read_str r in
    let msg = read_message r in
    Tm_machine.Deliver { src; msg }
  | 1 -> Tm_machine.Watchdog_fired { epoch = read_int r }
  | 2 -> Tm_machine.Retry_fired
  | 3 ->
    let peer = read_str r in
    let ms = read_f64 r in
    Tm_machine.Rtt_sample { peer; ms }
  | n -> corrupt "TM input: bad tag %d" n

let emit_obs b = function
  | Tm_machine.Query_open { index; server } ->
    add_tag b 0;
    add_int b index;
    add_str b server
  | Tm_machine.Query_close { outcome } ->
    add_tag b 1;
    add_str b outcome
  | Tm_machine.Round_open { parent; span_name; round; query } ->
    add_tag b 2;
    add_tag b (match parent with `Txn -> 0 | `Phase -> 1);
    add_str b span_name;
    add_int b round;
    add_opt add_int b query
  | Tm_machine.Round_close { resolution } ->
    add_tag b 3;
    add_opt add_str b resolution
  | Tm_machine.Phase_open { span_name; reason } ->
    add_tag b 4;
    add_str b span_name;
    add_opt add_str b reason
  | Tm_machine.Phase_close -> add_tag b 5
  | Tm_machine.Txn_close { outcome; reason } ->
    add_tag b 6;
    add_str b outcome;
    add_str b reason

let read_obs r =
  match byte r with
  | 0 ->
    let index = read_int r in
    let server = read_str r in
    Tm_machine.Query_open { index; server }
  | 1 -> Tm_machine.Query_close { outcome = read_str r }
  | 2 ->
    let parent =
      match byte r with
      | 0 -> `Txn
      | 1 -> `Phase
      | n -> corrupt "round parent: bad tag %d" n
    in
    let span_name = read_str r in
    let round = read_int r in
    let query = read_opt read_int r in
    Tm_machine.Round_open { parent; span_name; round; query }
  | 3 -> Tm_machine.Round_close { resolution = read_opt read_str r }
  | 4 ->
    let span_name = read_str r in
    let reason = read_opt read_str r in
    Tm_machine.Phase_open { span_name; reason }
  | 5 -> Tm_machine.Phase_close
  | 6 ->
    let outcome = read_str r in
    let reason = read_str r in
    Tm_machine.Txn_close { outcome; reason }
  | n -> corrupt "TM obs: bad tag %d" n

let emit_tm_action b = function
  | Tm_machine.Send { dst; msg } ->
    add_tag b 0;
    add_str b dst;
    emit_message b msg
  | Tm_machine.Arm_watchdog { epoch; delay } ->
    add_tag b 1;
    add_int b epoch;
    add_f64 b delay
  | Tm_machine.Arm_retry { delay } ->
    add_tag b 2;
    add_f64 b delay
  | Tm_machine.Force_log -> add_tag b 3
  | Tm_machine.Mark label ->
    add_tag b 4;
    add_str b label
  | Tm_machine.Obs o ->
    add_tag b 5;
    emit_obs b o
  | Tm_machine.Finish { committed; reason; commit_rounds } ->
    add_tag b 6;
    add_bool b committed;
    emit_reason b reason;
    add_int b commit_rounds

let read_tm_action r =
  match byte r with
  | 0 ->
    let dst = read_str r in
    let msg = read_message r in
    Tm_machine.Send { dst; msg }
  | 1 ->
    let epoch = read_int r in
    let delay = read_f64 r in
    Tm_machine.Arm_watchdog { epoch; delay }
  | 2 -> Tm_machine.Arm_retry { delay = read_f64 r }
  | 3 -> Tm_machine.Force_log
  | 4 -> Tm_machine.Mark (read_str r)
  | 5 -> Tm_machine.Obs (read_obs r)
  | 6 ->
    let committed = read_bool r in
    let reason = read_reason r in
    let commit_rounds = read_int r in
    Tm_machine.Finish { committed; reason; commit_rounds }
  | n -> corrupt "TM action: bad tag %d" n

(* ------------------------------------------------------------------ *)
(* PS inputs and actions                                               *)
(* ------------------------------------------------------------------ *)

let emit_eval_cont b = function
  | Ps_machine.To_execute_reply { reply_to; query_id; reads } ->
    add_tag b 0;
    add_str b reply_to;
    add_str b query_id;
    emit_reads b reads
  | Ps_machine.To_validate_reply { reply_to; round } ->
    add_tag b 1;
    add_str b reply_to;
    add_int b round
  | Ps_machine.To_commit_reply { reply_to; round } ->
    add_tag b 2;
    add_str b reply_to;
    add_int b round
  | Ps_machine.To_update_reply { reply_to; round; reply_with } ->
    add_tag b 3;
    add_str b reply_to;
    add_int b round;
    emit_reply_with b reply_with
  | Ps_machine.To_read_only_reply { reply_to; round; vote } ->
    add_tag b 4;
    add_str b reply_to;
    add_int b round;
    add_bool b vote

let read_eval_cont r =
  match byte r with
  | 0 ->
    let reply_to = read_str r in
    let query_id = read_str r in
    let reads = read_reads r in
    Ps_machine.To_execute_reply { reply_to; query_id; reads }
  | 1 ->
    let reply_to = read_str r in
    let round = read_int r in
    Ps_machine.To_validate_reply { reply_to; round }
  | 2 ->
    let reply_to = read_str r in
    let round = read_int r in
    Ps_machine.To_commit_reply { reply_to; round }
  | 3 ->
    let reply_to = read_str r in
    let round = read_int r in
    let reply_with = read_reply_with r in
    Ps_machine.To_update_reply { reply_to; round; reply_with }
  | 4 ->
    let reply_to = read_str r in
    let round = read_int r in
    let vote = read_bool r in
    Ps_machine.To_read_only_reply { reply_to; round; vote }
  | n -> corrupt "eval continuation: bad tag %d" n

let emit_exec_result b = function
  | Ps_machine.Executed reads ->
    add_tag b 0;
    emit_reads b reads
  | Ps_machine.Blocked -> add_tag b 1
  | Ps_machine.Die -> add_tag b 2

let read_exec_result r =
  match byte r with
  | 0 -> Ps_machine.Executed (read_reads r)
  | 1 -> Ps_machine.Blocked
  | 2 -> Ps_machine.Die
  | n -> corrupt "exec result: bad tag %d" n

let emit_mode b = function
  | Lock_manager.Shared -> add_tag b 0
  | Lock_manager.Exclusive -> add_tag b 1

let read_mode r =
  match byte r with
  | 0 -> Lock_manager.Shared
  | 1 -> Lock_manager.Exclusive
  | n -> corrupt "lock mode: bad tag %d" n

let emit_release b (rel : Lock_manager.release) =
  add_list
    (fun b (txn, key, mode) ->
      add_str b txn;
      add_str b key;
      emit_mode b mode)
    b rel.Lock_manager.granted;
  add_list
    (fun b (txn, key) ->
      add_str b txn;
      add_str b key)
    b rel.Lock_manager.killed

let read_release r =
  let granted =
    read_list
      (fun r ->
        let txn = read_str r in
        let key = read_str r in
        let mode = read_mode r in
        (txn, key, mode))
      r
  in
  let killed =
    read_list
      (fun r ->
        let txn = read_str r in
        let key = read_str r in
        (txn, key))
      r
  in
  { Lock_manager.granted; killed }

let emit_policy_versions b versions =
  add_list
    (fun b (domain, v) ->
      add_str b domain;
      add_int b v)
    b versions

let read_policy_versions r =
  read_list
    (fun r ->
      let domain = read_str r in
      let v = read_int r in
      (domain, v))
    r

let emit_ps_input b = function
  | Ps_machine.Deliver { src; msg } ->
    add_tag b 0;
    add_str b src;
    emit_message b msg
  | Ps_machine.Exec_result { txn; query; evaluate; reply_to; result } ->
    add_tag b 1;
    add_str b txn;
    emit_query b query;
    add_bool b evaluate;
    add_str b reply_to;
    emit_exec_result b result
  | Ps_machine.Evaluated { txn; proofs; policies; cont } ->
    add_tag b 2;
    add_str b txn;
    emit_proofs b proofs;
    emit_policies b policies;
    emit_eval_cont b cont
  | Ps_machine.Prepared { txn; vote } ->
    add_tag b 3;
    add_str b txn;
    add_bool b vote
  | Ps_machine.Read_only_result { txn; reply_to; round; read_only; integrity_ok } ->
    add_tag b 4;
    add_str b txn;
    add_str b reply_to;
    add_int b round;
    add_bool b read_only;
    add_bool b integrity_ok
  | Ps_machine.Release { by; release } ->
    add_tag b 5;
    add_opt add_str b by;
    emit_release b release
  | Ps_machine.Inquiry_fired { txn; epoch } ->
    add_tag b 6;
    add_str b txn;
    add_int b epoch
  | Ps_machine.Recovered { decided; in_doubt } ->
    add_tag b 7;
    add_str_list b decided;
    add_list
      (fun b (txn, vote, writes) ->
        add_str b txn;
        add_bool b vote;
        add_str_list b writes)
      b in_doubt

let read_ps_input r =
  match byte r with
  | 0 ->
    let src = read_str r in
    let msg = read_message r in
    Ps_machine.Deliver { src; msg }
  | 1 ->
    let txn = read_str r in
    let query = read_query r in
    let evaluate = read_bool r in
    let reply_to = read_str r in
    let result = read_exec_result r in
    Ps_machine.Exec_result { txn; query; evaluate; reply_to; result }
  | 2 ->
    let txn = read_str r in
    let proofs = read_proofs r in
    let policies = read_policies r in
    let cont = read_eval_cont r in
    Ps_machine.Evaluated { txn; proofs; policies; cont }
  | 3 ->
    let txn = read_str r in
    let vote = read_bool r in
    Ps_machine.Prepared { txn; vote }
  | 4 ->
    let txn = read_str r in
    let reply_to = read_str r in
    let round = read_int r in
    let read_only = read_bool r in
    let integrity_ok = read_bool r in
    Ps_machine.Read_only_result { txn; reply_to; round; read_only; integrity_ok }
  | 5 ->
    let by = read_opt read_str r in
    let release = read_release r in
    Ps_machine.Release { by; release }
  | 6 ->
    let txn = read_str r in
    let epoch = read_int r in
    Ps_machine.Inquiry_fired { txn; epoch }
  | 7 ->
    let decided = read_list read_str r in
    let in_doubt =
      read_list
        (fun r ->
          let txn = read_str r in
          let vote = read_bool r in
          let writes = read_list read_str r in
          (txn, vote, writes))
        r
    in
    Ps_machine.Recovered { decided; in_doubt }
  | n -> corrupt "PS input: bad tag %d" n

let emit_ps_action b = function
  | Ps_machine.Send { dst; msg; after_proofs; credentials } ->
    add_tag b 0;
    add_str b dst;
    emit_message b msg;
    add_int b after_proofs;
    emit_credentials b credentials
  | Ps_machine.Begin_work { txn; ts } ->
    add_tag b 1;
    add_str b txn;
    add_f64 b ts
  | Ps_machine.Exec { txn; ts; query; evaluate; reply_to; snapshot } ->
    add_tag b 2;
    add_str b txn;
    add_f64 b ts;
    emit_query b query;
    add_bool b evaluate;
    add_str b reply_to;
    add_bool b snapshot
  | Ps_machine.Eval
      { txn; subject; credentials; queries; with_proofs; with_policies; cont } ->
    add_tag b 3;
    add_str b txn;
    add_str b subject;
    emit_credentials b credentials;
    add_list emit_query b queries;
    add_bool b with_proofs;
    add_bool b with_policies;
    emit_eval_cont b cont
  | Ps_machine.Check_read_only { txn; reply_to; round } ->
    add_tag b 4;
    add_str b txn;
    add_str b reply_to;
    add_int b round
  | Ps_machine.Prepare { txn; proof_truth; policy_versions } ->
    add_tag b 5;
    add_str b txn;
    add_bool b proof_truth;
    emit_policy_versions b policy_versions
  | Ps_machine.Apply { txn; commit; forced; writes } ->
    add_tag b 6;
    add_str b txn;
    add_bool b commit;
    add_bool b forced;
    add_list
      (fun b (key, v) ->
        add_str b key;
        add_int b v)
      b writes
  | Ps_machine.Forget { txn } ->
    add_tag b 7;
    add_str b txn
  | Ps_machine.Install { policies; announce } ->
    add_tag b 8;
    emit_policies b policies;
    add_bool b announce
  | Ps_machine.Wait_open { txn; query_id } ->
    add_tag b 9;
    add_str b txn;
    add_str b query_id
  | Ps_machine.Wait_close { txn; outcome; killed_by } ->
    add_tag b 10;
    add_str b txn;
    add_str b outcome;
    add_opt add_str b killed_by
  | Ps_machine.Arm_inquiry { txn; epoch; delay } ->
    add_tag b 11;
    add_str b txn;
    add_int b epoch;
    add_f64 b delay
  | Ps_machine.Mark label ->
    add_tag b 12;
    add_str b label

let read_ps_action r =
  match byte r with
  | 0 ->
    let dst = read_str r in
    let msg = read_message r in
    let after_proofs = read_int r in
    let credentials = read_credentials r in
    Ps_machine.Send { dst; msg; after_proofs; credentials }
  | 1 ->
    let txn = read_str r in
    let ts = read_f64 r in
    Ps_machine.Begin_work { txn; ts }
  | 2 ->
    let txn = read_str r in
    let ts = read_f64 r in
    let query = read_query r in
    let evaluate = read_bool r in
    let reply_to = read_str r in
    let snapshot = read_bool r in
    Ps_machine.Exec { txn; ts; query; evaluate; reply_to; snapshot }
  | 3 ->
    let txn = read_str r in
    let subject = read_str r in
    let credentials = read_credentials r in
    let queries = read_list read_query r in
    let with_proofs = read_bool r in
    let with_policies = read_bool r in
    let cont = read_eval_cont r in
    Ps_machine.Eval
      { txn; subject; credentials; queries; with_proofs; with_policies; cont }
  | 4 ->
    let txn = read_str r in
    let reply_to = read_str r in
    let round = read_int r in
    Ps_machine.Check_read_only { txn; reply_to; round }
  | 5 ->
    let txn = read_str r in
    let proof_truth = read_bool r in
    let policy_versions = read_policy_versions r in
    Ps_machine.Prepare { txn; proof_truth; policy_versions }
  | 6 ->
    let txn = read_str r in
    let commit = read_bool r in
    let forced = read_bool r in
    let writes =
      read_list
        (fun r ->
          let key = read_str r in
          let v = read_int r in
          (key, v))
        r
    in
    Ps_machine.Apply { txn; commit; forced; writes }
  | 7 -> Ps_machine.Forget { txn = read_str r }
  | 8 ->
    let policies = read_policies r in
    let announce = read_bool r in
    Ps_machine.Install { policies; announce }
  | 9 ->
    let txn = read_str r in
    let query_id = read_str r in
    Ps_machine.Wait_open { txn; query_id }
  | 10 ->
    let txn = read_str r in
    let outcome = read_str r in
    let killed_by = read_opt read_str r in
    Ps_machine.Wait_close { txn; outcome; killed_by }
  | 11 ->
    let txn = read_str r in
    let epoch = read_int r in
    let delay = read_f64 r in
    Ps_machine.Arm_inquiry { txn; epoch; delay }
  | 12 -> Ps_machine.Mark (read_str r)
  | n -> corrupt "PS action: bad tag %d" n

(* ------------------------------------------------------------------ *)
(* Self-describing journal payloads                                    *)
(* ------------------------------------------------------------------ *)

type payload =
  | Create_tm of {
      config : Tm_machine.config;
      txn : Transaction.t;
      submitted_at : float;
    }
  | Create_ps of { variant : Tpc.variant; inquiry_timeout : float }
  | Tm_input of Tm_machine.input
  | Tm_action of Tm_machine.action
  | Ps_input of Ps_machine.input
  | Ps_action of Ps_machine.action

(* Kind 0 keeps the v3 frame layout byte-for-byte (and is always used
   under the Fixed policy); kind 6 is the same frame with the timeout
   policy appended after the config, used only when one is set. *)
let emit_create_tm b ~config ~txn ~submitted_at =
  (match config.Tm_machine.timeout_policy with
  | Timeout_policy.Fixed -> add_tag b 0
  | _ -> add_tag b 6);
  emit_config b config;
  (match config.Tm_machine.timeout_policy with
  | Timeout_policy.Fixed -> ()
  | p -> emit_timeout_policy b p);
  emit_transaction b txn;
  add_f64 b submitted_at

let emit_create_ps b ~variant ~inquiry_timeout =
  add_tag b 1;
  emit_variant b variant;
  add_f64 b inquiry_timeout

let emit_tm_input_payload b i =
  add_tag b 2;
  emit_tm_input b i

let emit_tm_action_payload b a =
  add_tag b 3;
  emit_tm_action b a

let emit_ps_input_payload b i =
  add_tag b 4;
  emit_ps_input b i

let emit_ps_action_payload b a =
  add_tag b 5;
  emit_ps_action b a

let emit_payload b = function
  | Create_tm { config; txn; submitted_at } ->
    emit_create_tm b ~config ~txn ~submitted_at
  | Create_ps { variant; inquiry_timeout } ->
    emit_create_ps b ~variant ~inquiry_timeout
  | Tm_input i -> emit_tm_input_payload b i
  | Tm_action a -> emit_tm_action_payload b a
  | Ps_input i -> emit_ps_input_payload b i
  | Ps_action a -> emit_ps_action_payload b a

let read_payload r =
  match byte r with
  | 0 ->
    let config = read_config r in
    let txn = read_transaction r in
    let submitted_at = read_f64 r in
    Create_tm { config; txn; submitted_at }
  | 6 ->
    let config = read_config r in
    let timeout_policy = read_timeout_policy r in
    let txn = read_transaction r in
    let submitted_at = read_f64 r in
    Create_tm
      { config = { config with Tm_machine.timeout_policy }; txn; submitted_at }
  | 1 ->
    let variant = read_variant r in
    let inquiry_timeout = read_f64 r in
    Create_ps { variant; inquiry_timeout }
  | 2 -> Tm_input (read_tm_input r)
  | 3 -> Tm_action (read_tm_action r)
  | 4 -> Ps_input (read_ps_input r)
  | 5 -> Ps_action (read_ps_action r)
  | n -> corrupt "payload: bad kind tag %d" n

let payload_of_string s =
  let r = { s; limit = String.length s; pos = 0 } in
  match read_payload r with
  | p ->
    if r.pos <> r.limit then
      Error
        (Printf.sprintf "payload: %d trailing byte(s) after record"
           (r.limit - r.pos))
    else Ok p
  | exception Corrupt m -> Error m

let payload_dir = function
  | Create_tm _ | Create_ps _ -> "create"
  | Tm_input _ | Ps_input _ -> "input"
  | Tm_action _ | Ps_action _ -> "action"

let payload_to_string p =
  let b = Wbuf.create 128 in
  emit_payload b p;
  Wbuf.contents b

open Json

let payload_to_json = function
  | Create_tm { config; txn; submitted_at } ->
    Obj
      [
        ("kind", String "tm");
        ("config", Codec.config_to_json config);
        ("txn", Codec.transaction_to_json txn);
        ("submitted_at", Float submitted_at);
      ]
  | Create_ps { variant; inquiry_timeout } ->
    Obj
      [
        ("kind", String "ps");
        ("variant", Codec.variant_to_json variant);
        ("inquiry_timeout", Float inquiry_timeout);
      ]
  | Tm_input i -> Codec.tm_input_to_json i
  | Tm_action a -> Codec.tm_action_to_json a
  | Ps_input i -> Codec.ps_input_to_json i
  | Ps_action a -> Codec.ps_action_to_json a

type node_kind = Tm | Ps

let payload_of_json ~dir ~kind j =
  match dir with
  | "create" -> (
    match Result.bind (member "kind" j) to_str with
    | Error e -> Error e
    | Ok "tm" ->
      let* config = Result.bind (member "config" j) Codec.config_of_json in
      let* txn = Result.bind (member "txn" j) Codec.transaction_of_json in
      let* submitted_at = Result.bind (member "submitted_at" j) to_float in
      Ok (Create_tm { config; txn; submitted_at })
    | Ok "ps" ->
      let* variant = Result.bind (member "variant" j) Codec.variant_of_json in
      (* Absent in journals from before the termination protocol. *)
      let* inquiry_timeout =
        match member "inquiry_timeout" j with
        | Ok t -> to_float t
        | Error _ -> Ok 0.
      in
      Ok (Create_ps { variant; inquiry_timeout })
    | Ok other -> Error (Printf.sprintf "create kind %S unknown" other))
  | "input" -> (
    match kind with
    | Tm -> Result.map (fun i -> Tm_input i) (Codec.tm_input_of_json j)
    | Ps -> Result.map (fun i -> Ps_input i) (Codec.ps_input_of_json j))
  | "action" -> (
    match kind with
    | Tm -> Result.map (fun a -> Tm_action a) (Codec.tm_action_of_json j)
    | Ps -> Result.map (fun a -> Ps_action a) (Codec.ps_action_of_json j))
  | other -> Error (Printf.sprintf "record dir %S unknown" other)
