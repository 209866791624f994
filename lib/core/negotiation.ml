open Peertrust_dlp
module Net = Peertrust_net
module Obs = Peertrust_obs.Obs
module Metric = Peertrust_obs.Metric
module Otracer = Peertrust_obs.Tracer
module Ojson = Peertrust_obs.Json

type outcome = Granted of Engine.instance list | Denied of string
type verdict = (Engine.instance list, Net.Denial.t) result

let outcome_of = function
  | Ok instances -> Granted instances
  | Error d -> Denied (Net.Denial.to_string d)

type report = {
  outcome : outcome;
  denial : Net.Denial.t option;
  messages : int;
  bytes : int;
  disclosures : int;
  elapsed : int;
  transcript : Net.Network.entry list;
}

let succeeded r = match r.outcome with Granted _ -> true | Denied _ -> false

let m_negotiations = Obs.counter "negotiation.count"
let m_granted = Obs.counter "negotiation.granted"
let m_denied = Obs.counter "negotiation.denied"
let h_messages = Obs.histogram "negotiation.messages"
let h_bytes = Obs.histogram "negotiation.bytes"
let h_disclosures = Obs.histogram "negotiation.disclosures"
let h_ticks = Obs.histogram "negotiation.ticks"

let measure_inner session run =
  let net = session.Session.network in
  let stats = Net.Network.stats net in
  let clock = Net.Network.clock net in
  let msgs0 = Net.Stats.messages stats in
  let bytes0 = Net.Stats.bytes stats in
  let t0 = Net.Clock.now clock in
  let log0 = Net.Network.logged net in
  let verdict =
    try run () with
    | Net.Network.Budget_exhausted -> Error Net.Denial.Budget_exhausted
    | Net.Network.Unreachable peer -> Error (Net.Denial.Peer_unreachable peer)
  in
  let transcript = Net.Network.transcript_since net log0 in
  {
    outcome = outcome_of verdict;
    denial = (match verdict with Ok _ -> None | Error d -> Some d);
    messages = Net.Stats.messages stats - msgs0;
    bytes = Net.Stats.bytes stats - bytes0;
    disclosures =
      List.fold_left (fun acc e -> acc + e.Net.Network.certs_) 0 transcript;
    elapsed = Net.Clock.now clock - t0;
    transcript;
  }

let measure session run =
  let report =
    let tracer = Obs.tracer () in
    if Otracer.enabled tracer then
      (* Each negotiation roots its own causal trace; the minted context
         propagates on every message the engines send on its behalf. *)
      let ctx = Otracer.mint tracer in
      Otracer.with_span tracer ?ctx "negotiation" (fun () ->
          let r = measure_inner session run in
          Otracer.set_attr tracer "outcome"
            (Ojson.Str (if succeeded r then "granted" else "denied"));
          Option.iter
            (fun d ->
              Otracer.set_attr tracer "denial.class"
                (Ojson.Str
                   (Net.Denial.Class.to_string (Net.Denial.class_of d))))
            r.denial;
          Otracer.set_attr tracer "messages" (Ojson.Int r.messages);
          Otracer.set_attr tracer "disclosures" (Ojson.Int r.disclosures);
          r)
    else measure_inner session run
  in
  Metric.incr m_negotiations;
  Metric.incr (if succeeded report then m_granted else m_denied);
  Metric.observe_int h_messages report.messages;
  Metric.observe_int h_bytes report.bytes;
  Metric.observe_int h_disclosures report.disclosures;
  Metric.observe_int h_ticks report.elapsed;
  report

let request session ~requester ~target goal =
  measure session (fun () ->
      match Engine.query session ~requester ~target goal with
      | [] -> Error Net.Denial.Not_derivable
      | instances -> Ok instances)

let request_str session ~requester ~target goal_src =
  request session ~requester ~target (Parser.parse_literal goal_src)

let pp_outcome fmt = function
  | Granted instances ->
      Format.fprintf fmt "granted: %a"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
           (fun fmt (l, _) -> Literal.pp fmt l))
        instances
  | Denied reason -> Format.fprintf fmt "denied (%s)" reason

let pp_report fmt r =
  Format.fprintf fmt
    "%a@\n%d message(s), %d byte(s), %d disclosure(s), %d tick(s)" pp_outcome
    r.outcome r.messages r.bytes r.disclosures r.elapsed
