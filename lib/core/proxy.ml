module Net = Peertrust_net

let forwarded_count session ~device ~proxy =
  Net.Stats.between (Net.Network.stats session.Session.network) device proxy

let attach_device session ~device ~proxy =
  let proxy_peer = Session.peer session proxy in
  let device_peer = Session.add_peer session device in
  let forward payload =
    Net.Network.notify session.Session.network ~from:device ~target:proxy
      payload
  in
  (* The device <-> proxy hops are accounted on the network; the trusted
     proxy serves the payload with the *original* requester bound, so
     release contexts are evaluated against the real counterparty. *)
  let handler ~from payload =
    match payload with
    | Net.Message.Query { goal } -> (
        match forward payload with
        | exception Net.Network.Unreachable _ ->
            Net.Message.Deny { goal; reason = Net.Denial.Proxy_unreachable }
        | () ->
            let response = Engine.handler session proxy_peer ~from payload in
            Net.Network.notify session.Session.network ~from:proxy
              ~target:device response;
            response)
    | Net.Message.Disclosure _ ->
        forward payload;
        Engine.handler session proxy_peer ~from payload
    | Net.Message.Answer _ | Net.Message.Deny _ | Net.Message.Ack
    | Net.Message.Raw _ | Net.Message.Tquery _ | Net.Message.Tanswer _
    | Net.Message.Tprobe _ | Net.Message.Tstat _ | Net.Message.Tcomplete _
    | Net.Message.Cancel _ ->
        Net.Message.Ack
  in
  (* Replace the device's default handler with the forwarding one. *)
  Net.Network.register session.Session.network device handler;
  device_peer
