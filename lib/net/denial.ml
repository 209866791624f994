module Class = struct
  type t =
    | Policy
    | Timeout
    | Unreachable
    | Budget
    | Cycle
    | Quiescent
    | Quarantined
    | Rate_limited
    | Quota
    | Unsupported
    | Crashed

  let to_string = function
    | Policy -> "policy"
    | Timeout -> "timeout"
    | Unreachable -> "unreachable"
    | Budget -> "budget"
    | Cycle -> "cycle"
    | Quiescent -> "quiescent"
    | Quarantined -> "quarantined"
    | Rate_limited -> "rate-limited"
    | Quota -> "quota"
    | Unsupported -> "unsupported"
    | Crashed -> "crashed"
end

type violation =
  | Malformed of string
  | Oversized of int
  | Unsolicited of string
  | Bad_cert of string
  | Flooding
  | Quota_exhausted
  | Bomb of int
  | Quarantined

type t =
  | Release_unsatisfied
  | No_release_policy
  | Reentrant
  | Not_derivable
  | By_target
  | Rounds_exceeded
  | No_safe_sequence
  | Protocol_error
  | Withdrawn
  | Unreachable of string option
  | Peer_unreachable of string
  | Proxy_unreachable
  | Timeout of string option
  | Deadline_expired
  | Budget_exhausted
  | Crashed of string option
  | Requester_crashed
  | Rejected of violation * string option
  | Cycle
  | Quiescent
  | Unsupported of string

let against word = function None -> word | Some peer -> word ^ ": " ^ peer

(* Each reason's printed form and class, one row per constructor (per
   violation for a guard's rejection, whose detail is not printed). *)
let describe = function
  | Release_unsatisfied -> ("release policy not satisfied", Class.Policy)
  | No_release_policy -> ("no release policy covers goal", Class.Policy)
  | Reentrant -> ("cycle", Class.Policy)
  | Not_derivable -> ("request denied or not derivable", Class.Policy)
  | By_target -> ("denied by target", Class.Policy)
  | Rounds_exceeded -> ("eager rounds limit exceeded", Class.Policy)
  | No_safe_sequence -> ("no safe disclosure sequence", Class.Policy)
  | Protocol_error -> ("protocol error", Class.Policy)
  | Withdrawn -> ("withdrawn", Class.Policy)
  | Unreachable peer -> (against "unreachable" peer, Class.Unreachable)
  | Peer_unreachable peer -> ("peer unreachable: " ^ peer, Class.Unreachable)
  | Proxy_unreachable -> ("proxy unreachable", Class.Unreachable)
  | Timeout peer -> (against "timeout" peer, Class.Timeout)
  | Deadline_expired -> ("deadline expired", Class.Timeout)
  | Budget_exhausted -> ("message budget exhausted", Class.Budget)
  | Crashed peer -> (against "crashed" peer, Class.Crashed)
  | Requester_crashed -> ("peer crashed", Class.Crashed)
  | Rejected (Quarantined, p) -> (against "quarantined" p, Class.Quarantined)
  | Rejected (Flooding, p) -> (against "rate-limited" p, Class.Rate_limited)
  | Rejected (Quota_exhausted, p) -> (against "quota" p, Class.Quota)
  | Rejected (Malformed _, p) -> (against "malformed" p, Class.Policy)
  | Rejected (Oversized _, p) -> (against "oversized" p, Class.Policy)
  | Rejected (Bad_cert _, p) -> (against "bad certificate" p, Class.Policy)
  | Rejected (Unsolicited _, p) -> (against "unsolicited" p, Class.Policy)
  | Rejected (Bomb _, p) -> (against "delegation bomb" p, Class.Policy)
  | Cycle -> ("negotiation cycle", Class.Cycle)
  | Quiescent -> ("negotiation quiescent", Class.Quiescent)
  | Unsupported msg -> ("unsupported: " ^ msg, Class.Unsupported)

let to_string d = fst (describe d)
let class_of d = snd (describe d)

let is_transport d =
  match class_of d with
  | Class.Timeout | Class.Unreachable | Class.Budget -> true
  | Class.Policy | Class.Cycle | Class.Quiescent | Class.Quarantined
  | Class.Rate_limited | Class.Quota | Class.Unsupported | Class.Crashed ->
      false

let reported_by ~target d =
  match d with
  | Unreachable _ -> Unreachable (Some target)
  | Timeout _ -> Timeout (Some target)
  | Crashed _ -> Crashed (Some target)
  | Rejected (v, _) when class_of d <> Class.Policy -> Rejected (v, Some target)
  | Unsupported _ -> d
  | _ -> By_target
