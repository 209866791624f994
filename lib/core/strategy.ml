open Peertrust_dlp
module Net = Peertrust_net
module Obs = Peertrust_obs.Obs
module Metric = Peertrust_obs.Metric
module Otracer = Peertrust_obs.Tracer

type t = Relevant | Eager | Push_relevant

let m_eager_rounds = Obs.counter "strategy.eager_rounds"

(* One disclosure round of the eager strategies, as a [round] span when
   tracing is on. *)
let in_round n f =
  Metric.incr m_eager_rounds;
  let tracer = Obs.tracer () in
  if Otracer.enabled tracer then
    Otracer.with_span tracer
      ~attrs:[ ("n", Peertrust_obs.Json.Int n) ]
      "round" f
  else f ()

let all = [ Relevant; Eager; Push_relevant ]

let to_string = function
  | Relevant -> "relevant"
  | Eager -> "eager"
  | Push_relevant -> "push-relevant"

let eager_rounds_limit = 64

let run_eager_multi session ~participants ~requester ~target goal =
  if not (List.mem requester participants && List.mem target participants)
  then invalid_arg "Strategy.negotiate_multi: requester/target not listed";
  let peers = List.map (Session.peer session) participants in
  let net = session.Session.network in
  let saved = List.map (fun p -> Net.Network.handler net p.Peer.name) peers in
  List.iter
    (fun p ->
      Net.Network.register net p.Peer.name
        (Engine.handler ~remote:Sld.no_remote session p))
    peers;
  Fun.protect
    ~finally:(fun () ->
      List.iter2
        (fun p -> function
          | Some h -> Net.Network.register net p.Peer.name h
          | None -> Net.Network.unregister net p.Peer.name)
        peers saved)
    (fun () ->
      let r_peer = Session.peer session requester in
      let sent = Hashtbl.create 64 in
      let push from_peer to_name =
        let fresh =
          Engine.releasable_certs ~remote:Sld.no_remote session from_peer
            ~requester:to_name
          |> List.filter (fun (c : Peertrust_crypto.Cert.t) ->
                 not
                   (Hashtbl.mem sent
                      ( from_peer.Peer.name,
                        to_name,
                        c.Peertrust_crypto.Cert.serial )))
        in
        List.iter
          (fun (c : Peertrust_crypto.Cert.t) ->
            Hashtbl.add sent
              (from_peer.Peer.name, to_name, c.Peertrust_crypto.Cert.serial)
              ())
          fresh;
        Engine.disclose session from_peer ~target:to_name fresh;
        fresh <> []
      in
      let push_round () =
        List.fold_left
          (fun progress p ->
            List.fold_left
              (fun progress other ->
                if String.equal other p.Peer.name then progress
                else push p other || progress)
              progress participants)
          false peers
      in
      let rec round n =
        if n > eager_rounds_limit then
          Error Net.Denial.Rounds_exceeded
        else
          let decision =
            in_round n (fun () ->
                match
                  Net.Network.send net ~from:requester ~target
                    (Net.Message.Query { goal })
                with
                | Net.Message.Answer { instances; certs; _ } ->
                    ignore
                      (Engine.receive session r_peer ~from:target ~instances
                         certs);
                    `Done (Ok instances)
                | Net.Message.Deny _ ->
                    if push_round () then `Retry
                    else `Done (Error Net.Denial.No_safe_sequence)
                | Net.Message.Query _ | Net.Message.Disclosure _
                | Net.Message.Ack | Net.Message.Raw _ | Net.Message.Tquery _
                | Net.Message.Tanswer _ | Net.Message.Tprobe _
                | Net.Message.Tstat _ | Net.Message.Tcomplete _
                | Net.Message.Cancel _ ->
                    `Done (Error Net.Denial.Protocol_error))
          in
          match decision with `Done o -> o | `Retry -> round (n + 1)
      in
      round 1)

let negotiate_multi session ~participants ~requester ~target goal =
  Negotiation.measure session (fun () ->
      run_eager_multi session ~participants ~requester ~target goal)

let run_push_relevant session ~requester ~target goal =
  let r_peer = Session.peer session requester in
  let certs =
    Engine.releasable_certs ~remote:Sld.no_remote session r_peer
      ~requester:target
  in
  Engine.disclose session r_peer ~target certs;
  match Engine.query session ~requester ~target goal with
  | [] -> Error Net.Denial.Not_derivable
  | instances -> Ok instances

let negotiate session ~strategy ~requester ~target goal =
  match strategy with
  | Relevant -> Negotiation.request session ~requester ~target goal
  | Eager ->
      negotiate_multi session ~participants:[ requester; target ] ~requester
        ~target goal
  | Push_relevant ->
      Negotiation.measure session (fun () ->
          run_push_relevant session ~requester ~target goal)

let negotiate_str session ~strategy ~requester ~target goal_src =
  negotiate session ~strategy ~requester ~target
    (Parser.parse_literal goal_src)
