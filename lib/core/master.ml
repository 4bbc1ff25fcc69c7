module Transport = Cloudtx_sim.Transport
module Admin = Cloudtx_policy.Admin

type t = {
  transport : Message.t Transport.t;
  name : string;
  admins : (string * Admin.t) list;
}

let handle t ~src msg =
  match msg with
  | Message.Master_version_request { txn } ->
    let policies = List.map (fun (_, a) -> Admin.latest a) t.admins in
    Transport.send t.transport ~src:t.name ~dst:src
      (Message.Master_version_reply { txn; policies })
  | _ ->
    invalid_arg
      (Printf.sprintf "master %s: unexpected %s" t.name (Message.label msg))

let create ~transport ~name ~admins =
  let t =
    { transport; name; admins = List.map (fun a -> (Admin.domain a, a)) admins }
  in
  Transport.register transport name (fun ~src msg -> handle t ~src msg);
  t

let name t = t.name
let admin t ~domain = List.assoc_opt domain t.admins

let latest t ~domain = Option.map Admin.latest_version (admin t ~domain)
