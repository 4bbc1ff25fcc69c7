module Transport = Cloudtx_sim.Transport
module Splitmix = Cloudtx_sim.Splitmix
module Latency = Cloudtx_sim.Latency
module Server = Cloudtx_store.Server
module Admin = Cloudtx_policy.Admin
module Ca = Cloudtx_policy.Ca
module Proof = Cloudtx_policy.Proof

type server_spec = {
  s_name : string;
  s_items : (string * Cloudtx_store.Value.t) list;
  s_constraints : Cloudtx_store.Integrity.t list;
}

let server_spec ~name ?(constraints = []) ~items () =
  { s_name = name; s_items = items; s_constraints = constraints }

type slot = ..

type t = {
  transport : Message.t Transport.t;
  master : Master.t;
  participants : (string * Participant.t) list;
  admins : (string * Admin.t) list;
  cas : (string * Ca.t) list;
  domain_of : string -> string;
  variant : Cloudtx_txn.Tpc.variant;
  prop_rng : Splitmix.t;
  proofs : (string, int ref) Hashtbl.t; (* txn in flight -> proofs so far *)
  mutable slots : slot list;
}

let master_name = "master"

let create ?(seed = 1L) ?(latency = Latency.lan) ?ocsp_latency ?(cas = [])
    ?(context_facts = []) ?domain_of ?(variant = Cloudtx_txn.Tpc.Basic)
    ?dedup ?inquiry_timeout ~servers ~domains () =
  if servers = [] then invalid_arg "Cluster.create: no servers";
  if domains = [] then invalid_arg "Cluster.create: no domains";
  let domain_of =
    match domain_of with
    | Some f -> f
    | None ->
      let default = fst (List.hd domains) in
      fun _item -> default
  in
  let transport =
    Transport.create ~seed ~latency ~label_of:Message.label ()
  in
  let admins =
    List.map (fun (d, rules) -> (d, Admin.create ~domain:d rules)) domains
  in
  let master =
    Master.create ~transport ~name:master_name ~admins:(List.map snd admins)
  in
  let cas = List.map (fun ca -> (Ca.name ca, ca)) cas in
  let server_names = List.map (fun s -> s.s_name) servers in
  (* One shared environment: issuer resolution and the context facts are
     cluster-wide. *)
  let env =
    {
      Proof.find_ca = (fun issuer -> List.assoc_opt issuer cas);
      trusted_server = (fun issuer -> List.mem issuer server_names);
      context = (fun () -> context_facts);
    }
  in
  let ocsp_delay =
    Option.map
      (fun model ->
        let rng = Transport.fork_rng transport in
        fun () -> Latency.sample model rng)
      ocsp_latency
  in
  let proofs = Hashtbl.create 16 in
  let on_proof ~txn =
    match Hashtbl.find_opt proofs txn with Some n -> incr n | None -> ()
  in
  let participants =
    List.map
      (fun spec ->
        let server =
          Server.create ~name:spec.s_name ~constraints:spec.s_constraints
            ~items:spec.s_items ()
        in
        (* Bootstrap: every replica starts at version 1 of every domain. *)
        List.iter
          (fun (_, admin) ->
            ignore
              (Cloudtx_policy.Replica.install (Server.replica server)
                 (Admin.latest admin)))
          admins;
        let participant =
          Participant.create ~transport ~server ~env ~domain_of ~on_proof
            ~variant ?ocsp_delay ?dedup ?inquiry_timeout ()
        in
        (spec.s_name, participant))
      servers
  in
  let prop_rng = Transport.fork_rng transport in
  {
    transport;
    master;
    participants;
    admins;
    cas;
    domain_of;
    variant;
    prop_rng;
    proofs;
    slots = [];
  }

let transport t = t.transport
let variant t = t.variant
let master t = t.master
let participants t = List.map snd t.participants

let participant t name =
  match List.assoc_opt name t.participants with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Cluster.participant: unknown %s" name)

let ca t name = List.assoc_opt name t.cas
let domain_of t item = t.domain_of item
let slots t = t.slots
let add_slot t x = t.slots <- x :: t.slots
let track_proofs t ~txn = Hashtbl.replace t.proofs txn (ref 0)

let take_proofs t ~txn =
  match Hashtbl.find_opt t.proofs txn with
  | Some n ->
    Hashtbl.remove t.proofs txn;
    !n
  | None -> 0

let publish t ~domain ?accept_capabilities ~delay rules =
  let admin =
    match List.assoc_opt domain t.admins with
    | Some a -> a
    | None -> invalid_arg (Printf.sprintf "Cluster.publish: unknown domain %s" domain)
  in
  let policy = Admin.publish ?accept_capabilities admin rules in
  (* Staleness accounting: record the master's latest version and how far
     each replica now trails it.  Participants re-settle their own gauge
     as propagations and fetch-driven updates land. *)
  let registry = Transport.registry t.transport in
  if Cloudtx_obs.Registry.enabled registry then begin
    let version = float_of_int policy.Cloudtx_policy.Policy.version in
    Cloudtx_obs.Registry.set_gauge registry "policy_master_version"
      [ ("domain", domain) ] version;
    List.iter
      (fun (name, participant) ->
        let held =
          match
            Cloudtx_policy.Replica.get
              (Server.replica (Participant.server participant))
              ~domain
          with
          | Some p -> float_of_int p.Cloudtx_policy.Policy.version
          | None -> 0.
        in
        Cloudtx_obs.Registry.set_gauge registry "policy_staleness"
          [ ("server", name); ("domain", domain) ]
          (Float.max 0. (version -. held)))
      t.participants
  end;
  List.iter
    (fun (name, _) ->
      let lag =
        match delay with
        | `Now -> 0.
        | `Uniform (lo, hi) -> Splitmix.uniform t.prop_rng ~lo ~hi
        | `Fixed f -> f name
      in
      (* An infinite lag means the update never reaches this server (a
         perpetually stale replica) — don't schedule anything, or the
         far-future event would stall quiescence detection. *)
      if Float.is_finite lag then
        Transport.at t.transport ~delay:lag (fun () ->
            Transport.send t.transport ~src:master_name ~dst:name
              (Message.Propagate_policy { policy })))
    t.participants;
  policy

let run ?until ?max_steps t = Transport.run ?until ?max_steps t.transport
let now t = Transport.now t.transport
