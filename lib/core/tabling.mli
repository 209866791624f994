(** Distributed tabling: {!Peertrust_dlp.Tabled} ported across the
    reactor, with GEM-style termination detection.

    Each goal skeleton has one table at its owning peer; consumers keep
    monotone views of remote tables, fed by full-list [Tanswer] pushes
    (idempotent under duplication and reorder).  A table's resumable
    {!Peertrust_dlp.Tabled.t} lives as long as the table, and a view that
    grows feeds it only the new instances.  Acyclic chains complete
    bottom-up; genuine cross-peer SCCs are frozen at reactor quiescence
    by an epoch-stamped probe round ([Tprobe]/[Tstat]/[Tcomplete]) in
    which the minimal member — the leader — verifies with the members'
    size/seen counters that every intra-SCC edge is fully propagated
    before broadcasting completion.

    The module is a pure state machine owned by {!Reactor}: handlers
    consume decoded payloads and return the {!post}s to put on the wire.
    All iteration is sorted, keeping fault-free runs byte-deterministic. *)

open Peertrust_dlp
module Net := Peertrust_net

type t

type post = {
  p_from : string;
  p_target : string;
  p_payload : Net.Message.payload;
}

val create : Session.t -> t

val register_root : t -> consumer:string -> owner:string -> Literal.t -> unit
(** Register a top-level requester's view of [goal]'s table before the
    initial [Tquery] is posted, so quiescence healing covers a final
    answer lost on the last hop back to the requester. *)

val handle_query :
  t ->
  owner:string ->
  from:string ->
  path:(string * string) list ->
  Literal.t ->
  post list
(** A [Tquery] arrived at [owner]: find or create the goal's table,
    subscribe [from], evaluate, and always leave [from] with at least a
    state reply.  A [path] already containing the table increments the
    [tabling.loops_detected] counter. *)

val handle_answer :
  t ->
  consumer:string ->
  from:string ->
  Literal.t ->
  Literal.t list ->
  final:bool ->
  post list
(** A [Tanswer] arrived at [consumer]: merge into the view and resume
    the tables that read it (indexed by view, in table order) with the
    instances the view gained.  Returns [[]] for a top-level request
    (no view) — the reactor settles those itself. *)

val handle_deny :
  t -> consumer:string -> from:string -> Literal.t -> Net.Denial.t -> post list
(** A [Deny] for a tabled sub-goal: mark the view failed and fail every
    dependent table (propagating the reason to their consumers). *)

val handle_probe :
  t ->
  peer:string ->
  from:string ->
  (string * string) * int * (string * string) list ->
  post list
(** [Tprobe (leader, epoch, members)]: report this peer's member-table
    counters back to the leader. *)

val handle_stat :
  t ->
  peer:string ->
  from:string ->
  (string * string) * int * Net.Message.tstat_entry list ->
  post list
(** [Tstat]: record a member report on the leader.  When the last report
    of the current epoch arrives and every intra-SCC edge checks out
    (consumer seen = producer size, external deps final), completes the
    leader's own members and broadcasts [Tcomplete]; otherwise the epoch
    is aborted and the next quiescence retries. *)

val handle_complete :
  t ->
  peer:string ->
  (string * string) * int * (string * string) list ->
  post list
(** [Tcomplete]: freeze this peer's member tables and push their final
    answers to all consumers. *)

val crash : t -> string -> unit
(** The peer crash-stopped: drop its tables (with their evaluation
    states) and the views it consumes (volatile state), remove it from surviving tables' consumer lists,
    and abort any in-flight completion round that involves it.  Views
    held {e by others} on the crashed peer's tables stay registered —
    the next {!quiesce} finds their tables missing and re-posts the
    [Tquery], re-healing once the peer restarts. *)

val quiesce : t -> post list
(** Called by the reactor when the network is quiet but tables remain
    active.  First heals any consumer view lagging its owner table
    (re-pushing lost answers / re-posting lost queries — the simulated
    runtime's stand-in for per-link retransmission); only when every
    view is in sync does it elect the first ready SCC and start a probe
    epoch.  Returns [[]] when there is nothing left to do. *)

val summary : t -> (string * string * int * string) list
(** [(peer, key, answers, status)] for every table, sorted — the
    "completed tables" signature the chaos suite compares across fault
    plans. *)

val table_count : t -> int
