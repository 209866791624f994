(** Top-level trust negotiations and their measured reports.

    A negotiation is triggered when one peer requests a resource of
    another (§2): the requester sends the goal, the target answers under
    its release policies, counter-querying the requester as needed.  The
    report captures what the paper's evaluation narrates: the outcome, the
    sequence of disclosures, and the message/byte/latency cost. *)

open Peertrust_dlp

type outcome =
  | Granted of Engine.instance list
      (** access granted; the provable instances of the goal *)
  | Denied of string
      (** the denial as {!Peertrust_net.Denial.to_string} prints it *)

type verdict = (Engine.instance list, Peertrust_net.Denial.t) result
(** What a negotiation procedure decides: the typed form of {!outcome}. *)

val outcome_of : verdict -> outcome

type report = {
  outcome : outcome;
  denial : Peertrust_net.Denial.t option;  (** why [outcome] is [Denied] *)
  messages : int;  (** messages exchanged during this negotiation *)
  bytes : int;
  disclosures : int;  (** certificates transferred *)
  elapsed : int;  (** simulated-clock ticks *)
  transcript : Peertrust_net.Network.entry list;
}

val succeeded : report -> bool

val request :
  Session.t -> requester:string -> target:string -> Literal.t -> report
(** Run one negotiation with the backward-chaining (relevant) strategy. *)

val request_str :
  Session.t -> requester:string -> target:string -> string -> report
(** Convenience: parse the goal from text.  @raise Parser.Error. *)

val measure : Session.t -> (unit -> verdict) -> report
(** Wrap an arbitrary negotiation procedure (used by {!Strategy}): snapshot
    network statistics around the call and collect the transcript delta.
    A message-budget exhaustion or an unreachable top-level target turns
    into a [Denied] outcome rather than an exception. *)

val pp_report : Format.formatter -> report -> unit
