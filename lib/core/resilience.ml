(* Driver-side resilience: per-server circuit breakers and manager
   admission control.  Pure bookkeeping over evidence the manager already
   has (transaction outcomes), so verdicts stay a deterministic function
   of the simulation — breaker state never consults wall clocks or RNG.

   Breaker lifecycle (per server):

     Closed --consecutive timeout evidence >= threshold--> Open
     Open   --cooldown elapsed, next admit--> Half_open (one probe)
     Half_open --probe succeeds--> Closed
     Half_open --probe times out--> Open (cooldown restarts)

   Open breakers fail transactions fast at submit ([Breaker_open]);
   admission control bounds in-flight transactions and rejects the
   overflow deterministically ([Admission_rejected]).  Every breaker
   transition and admission reject is journaled as a dir="event" record
   on the synthetic node "resilience": a [Json.t] handed to
   [Journal_io.record_event], which writes its JSON text in both journal
   formats.  That is how Watchtower sees them live and offline. *)

module Journal = Cloudtx_obs.Journal
module Registry = Cloudtx_obs.Registry
module Json = Cloudtx_policy.Json

type breaker_state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type config = {
  failure_threshold : int;
  cooldown : float;
  max_in_flight : int;
}

let config ?(failure_threshold = 3) ?(cooldown = 200.) ?(max_in_flight = 0) ()
    =
  if failure_threshold < 1 then
    invalid_arg "Resilience.config: failure_threshold must be >= 1";
  if cooldown <= 0. then
    invalid_arg "Resilience.config: cooldown must be positive";
  if max_in_flight < 0 then
    invalid_arg "Resilience.config: max_in_flight must be >= 0";
  { failure_threshold; cooldown; max_in_flight }

type breaker = {
  server : string;
  mutable state : breaker_state;
  mutable consecutive_failures : int;
  mutable opened_at : float;
  mutable probe : string option; (* txn probing while Half_open *)
}

type t = {
  cfg : config;
  journal : Journal.t;
  registry : Registry.t;
  breakers : (string, breaker) Hashtbl.t;
  mutable in_flight : int;
  mutable admission_rejects : int;
  mutable fail_fasts : int;
}

let create ?(journal = Journal.noop) ?(registry = Registry.noop) cfg =
  {
    cfg;
    journal;
    registry;
    breakers = Hashtbl.create 8;
    in_flight = 0;
    admission_rejects = 0;
    fail_fasts = 0;
  }

let breaker t server =
  match Hashtbl.find_opt t.breakers server with
  | Some b -> b
  | None ->
    let b =
      {
        server;
        state = Closed;
        consecutive_failures = 0;
        opened_at = Float.neg_infinity;
        probe = None;
      }
    in
    Hashtbl.add t.breakers server b;
    b

let states t =
  Hashtbl.fold (fun server b acc -> (server, b.state) :: acc) t.breakers []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let in_flight t = t.in_flight
let admission_rejects t = t.admission_rejects
let fail_fasts t = t.fail_fasts

(* ------------------------------------------------------------------ *)
(* Event journaling                                                    *)
(* ------------------------------------------------------------------ *)

(* Each event is built only when the journal is on, so a disabled
   journal costs no event tree. *)
let note_transition t b ~to_ =
  let from = b.state in
  b.state <- to_;
  if Registry.enabled t.registry then
    Registry.incr t.registry "breaker_transitions_total"
      [ ("server", b.server); ("to", state_name to_) ];
  if Journal.enabled t.journal then
    Journal_io.record_event t.journal ~node:"resilience"
      (Json.Obj
         [
           ("event", Json.String "breaker");
           ("server", Json.String b.server);
           ("from", Json.String (state_name from));
           ("to", Json.String (state_name to_));
         ])

let journal_reject t ~txn ~reason ~server =
  if Journal.enabled t.journal then
    let server =
      match server with Some s -> [ ("server", Json.String s) ] | None -> []
    in
    Journal_io.record_event t.journal ~node:"resilience"
      (Json.Obj
         (("event", Json.String "admission")
         :: ("txn", Json.String txn)
         :: ("reason", Json.String reason)
         :: server))

let set_in_flight_gauge t =
  if Registry.enabled t.registry then
    Registry.set_gauge t.registry "resilience_in_flight" []
      (float_of_int t.in_flight)

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

(* [admit t ~txn ~servers ~now] — gate one transaction at submit.  The
   decision is deterministic in (breaker states, in-flight count, now).
   An open breaker past its cooldown moves to Half_open and adopts this
   transaction as its probe. *)
let admit t ~txn ~servers ~now =
  if t.cfg.max_in_flight > 0 && t.in_flight >= t.cfg.max_in_flight then begin
    t.admission_rejects <- t.admission_rejects + 1;
    if Registry.enabled t.registry then
      Registry.incr t.registry "admission_rejects_total"
        [ ("reason", "admission-rejected") ];
    journal_reject t ~txn ~reason:"admission-rejected" ~server:None;
    Error `Admission
  end
  else begin
    let blocking =
      List.find_opt
        (fun server ->
          let b = breaker t server in
          match b.state with
          | Closed -> false
          | Half_open ->
            (* One probe at a time: others fail fast until it resolves. *)
            b.probe <> None
          | Open ->
            if now >= b.opened_at +. t.cfg.cooldown then begin
              note_transition t b ~to_:Half_open;
              false
            end
            else true)
        servers
    in
    match blocking with
    | Some server ->
      t.fail_fasts <- t.fail_fasts + 1;
      if Registry.enabled t.registry then
        Registry.incr t.registry "admission_rejects_total"
          [ ("reason", "breaker-open") ];
      journal_reject t ~txn ~reason:"breaker-open" ~server:(Some server);
      Error (`Breaker server)
    | None ->
      (* Adopt this txn as the probe of every Half_open breaker it
         touches. *)
      List.iter
        (fun server ->
          let b = breaker t server in
          if b.state = Half_open && b.probe = None then b.probe <- Some txn)
        servers;
      t.in_flight <- t.in_flight + 1;
      set_in_flight_gauge t;
      Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Evidence                                                            *)
(* ------------------------------------------------------------------ *)

(* Timeout-shaped outcomes indict the transaction's servers; everything
   else (commits, policy/integrity aborts, wait-die) proves the servers
   were responsive and resets their failure streaks. *)
let is_failure_evidence (reason : Outcome.reason) =
  match reason with
  | Outcome.Timed_out | Outcome.Budget_exhausted -> true
  | Outcome.Committed | Outcome.Integrity_violation | Outcome.Proof_failure
  | Outcome.Version_inconsistency | Outcome.Wait_die
  | Outcome.Rounds_exhausted | Outcome.Coordinator_crash
  | Outcome.Breaker_open | Outcome.Admission_rejected -> false

let note_outcome t ~txn ~servers ~now ~reason =
  t.in_flight <- max 0 (t.in_flight - 1);
  set_in_flight_gauge t;
  let failure = is_failure_evidence reason in
  List.iter
    (fun server ->
      let b = breaker t server in
      let was_probe =
        match b.probe with Some p -> String.equal p txn | None -> false
      in
      if was_probe then b.probe <- None;
      if failure then begin
        b.consecutive_failures <- b.consecutive_failures + 1;
        match b.state with
        | Closed ->
          if b.consecutive_failures >= t.cfg.failure_threshold then begin
            b.opened_at <- now;
            note_transition t b ~to_:Open
          end
        | Half_open ->
          if was_probe then begin
            (* The probe struck out: back to Open, cooldown restarts. *)
            b.opened_at <- now;
            note_transition t b ~to_:Open
          end
        | Open -> b.opened_at <- now
      end
      else begin
        b.consecutive_failures <- 0;
        match b.state with
        | Half_open ->
          if was_probe then note_transition t b ~to_:Closed
        | Closed | Open -> ()
      end)
    servers
