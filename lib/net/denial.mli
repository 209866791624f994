(** Why a peer refused a query or a negotiation ended denied: one
    constructor per reason the runtime produces.  A [Deny] payload carries
    one on the wire.  A reason's class, and whether it is a transport
    failure rather than a decision, follow from the constructor alone;
    nothing parses the printed form back. *)

module Class : sig
  type t =
    | Policy  (** the target's policies do not release the resource *)
    | Timeout  (** a sub-query or the request ran out of time *)
    | Unreachable  (** a peer was down or unregistered *)
    | Budget  (** the session's message budget ran out *)
    | Cycle  (** deadlocked release policies (negotiation cycle) *)
    | Quiescent  (** the queue drained without resolving the request *)
    | Quarantined  (** rejected by a guard: requester's breaker is open *)
    | Rate_limited  (** rejected by a guard: query rate above the limit *)
    | Quota  (** rejected by a guard: resolution work quota spent *)
    | Unsupported  (** outside the evaluating engine's fragment *)
    | Crashed  (** a peer crash-stopped with no recovery in sight *)

  val to_string : t -> string
end

(** A guard's reason to reject a payload ({!Peertrust.Guard}). *)
type violation =
  | Malformed of string  (** unparseable or ill-shaped payload *)
  | Oversized of int  (** payload byte size above [max_bytes] *)
  | Unsolicited of string  (** answer/deny without an outstanding query *)
  | Bad_cert of string  (** certificate failing signature verification *)
  | Flooding  (** query rate above [rate] per [rate_window] *)
  | Quota_exhausted  (** requester's resolution work quota spent *)
  | Bomb of int  (** query goal deeper than [max_goal_depth] *)
  | Quarantined  (** requester's circuit breaker is open *)

(** A [string option] is the peer a settled request names: [None] on the
    wire, [Some target] once {!reported_by} has settled a request. *)
type t =
  | Release_unsatisfied  (** no release policy of the goal was satisfied *)
  | No_release_policy  (** no release policy covers the goal *)
  | Reentrant  (** the goal is already being answered for this requester *)
  | Not_derivable  (** a synchronous request found no instance *)
  | By_target  (** the target denied the request on policy *)
  | Rounds_exceeded  (** the eager strategy ran out of rounds *)
  | No_safe_sequence  (** eager pushes stopped unlocking anything *)
  | Protocol_error  (** a query was answered with a non-answer *)
  | Withdrawn  (** the requester cancelled the sub-query *)
  | Unreachable of string option  (** a peer was down or unregistered *)
  | Peer_unreachable of string  (** a synchronous send found it down *)
  | Proxy_unreachable  (** a device could not reach its proxy *)
  | Timeout of string option  (** retransmissions exhausted *)
  | Deadline_expired  (** the request's deadline passed first *)
  | Budget_exhausted  (** the session's message budget ran out *)
  | Crashed of string option  (** the counterparty crash-stopped for good *)
  | Requester_crashed  (** the requester restarted without a journal *)
  | Rejected of violation * string option  (** a guard rejected the query *)
  | Cycle  (** a quiescence break denied a goal of a policy cycle *)
  | Quiescent  (** the queue drained without resolving the request *)
  | Unsupported of string  (** e.g. negation under distributed tabling *)

val to_string : t -> string
(** The reason as transcripts, reports and [Deny] summaries print it. *)

val class_of : t -> Class.t

val is_transport : t -> bool
(** The {!Class.Timeout}, {!Class.Unreachable} and {!Class.Budget}
    classes: the links or the clock failed, not a decision.  A crash is a
    fate of the counterparty that retransmitting cannot help. *)

val reported_by : target:string -> t -> t
(** What a requester settles on when [target] denied its request: a
    transport failure, a crash or a breaker, rate or quota rejection
    names [target]; unsupported stays; any other refusal is
    {!By_target}. *)
