type payload = Announce of Route.t | Withdraw of Rpi_net.Prefix.t

type t = { from_as : Asn.t; to_as : Asn.t; payload : payload }

let announce ~from_as ~to_as route = { from_as; to_as; payload = Announce route }
let withdraw ~from_as ~to_as prefix = { from_as; to_as; payload = Withdraw prefix }

let prefix t =
  match t.payload with
  | Announce r -> r.Route.prefix
  | Withdraw p -> p

let apply t rib =
  match t.payload with
  | Announce route ->
      if As_path.mem t.to_as route.Route.as_path then rib
      else Rib.add_route { route with Route.peer_as = Some t.from_as } rib
  | Withdraw p -> Rib.withdraw ~peer_as:t.from_as p rib
