(** In-process simulated peer-to-peer network.

    Peers register a synchronous handler; {!send} delivers a request to the
    target's handler and returns its response, charging latency on the
    shared clock and recording both directions in the statistics and the
    transcript.  Deterministic by construction — no real I/O, no threads —
    which is what makes the benchmark tables reproducible.

    Failure injection: peers can be marked down ({!set_down}), a message
    budget can be imposed to abort runaway negotiations, and a seeded
    {!Faults} plan ({!set_faults}) injects drops, duplicates, delays and
    transient outages into the queued ({!post}) path. *)

type t

exception Unreachable of string
(** Target peer is down or not registered. *)

exception Budget_exhausted
(** The configured message budget was hit. *)

type handler = from:string -> Message.payload -> Message.payload

type entry = {
  time : int;
  from : string;
  target : string;
  kind : Stats.kind;
  summary : string;
  bytes_ : int;
  certs_ : int;  (** certificates carried by this message *)
}

val create : ?latency:int -> ?max_messages:int -> ?log_cap:int -> unit -> t
(** [latency] (default 1) is the tick cost of one message direction.
    [log_cap] (default 10_000) bounds the transcript ring buffer: past the
    cap the oldest entries are discarded and counted by
    {!dropped_log_entries}.  @raise Invalid_argument when [log_cap < 1]. *)

val clock : t -> Clock.t
val stats : t -> Stats.t
val register : t -> string -> handler -> unit
(** Re-registering a name replaces its handler. *)

val unregister : t -> string -> unit
val handler : t -> string -> handler option
val registered : t -> string list
val set_down : t -> string -> bool -> unit
val is_down : t -> string -> bool

val set_faults : t -> Faults.t -> unit
(** Install a fault plan; it applies to {!post} (the queued engines).
    Synchronous {!send}/{!notify} traffic is not fault-injected. *)

val faults : t -> Faults.t

val set_link_latency : t -> from:string -> target:string -> int -> unit
(** Override the tick cost of one directed link (e.g. a slow WAN hop to a
    remote authority).  @raise Invalid_argument on negative values. *)

val link_latency : t -> from:string -> target:string -> int
(** Effective latency of a directed link (override or default). *)

val send : t -> from:string -> target:string -> Message.payload -> Message.payload
(** One request/response round trip.
    @raise Unreachable if the target is down or unknown.
    @raise Budget_exhausted past the message budget. *)

val notify : t -> from:string -> target:string -> Message.payload -> unit
(** One-way message: recorded in statistics and transcript, charged
    latency, but not delivered to any handler.  Used to account for
    forwarding traffic handled out-of-band (e.g. device-to-proxy hops).
    @raise Unreachable / Budget_exhausted as {!send}. *)

val post :
  t ->
  from:string ->
  target:string ->
  ?attempt:int ->
  ?incarnation:int ->
  ?trace:Peertrust_obs.Trace_context.t ->
  Message.payload ->
  Envelope.t list
(** Queue-oriented one-way send under the installed fault plan: charge and
    log the transmission, then return the envelope copies that actually
    reach the target — [[]] when the message is lost (sampled drop, or the
    target is inside a scheduled outage or crash window), one envelope
    normally, two sharing an id when duplicated.  [incarnation] (default
    0) is the sender's restart count, stamped on every surviving copy.  Extra delivery delay is reflected
    in [deliver_at].  Lost and duplicated sends increment [net.drops] /
    [net.duplicates].  [trace] (default [None]) is stamped verbatim on
    every surviving copy — the in-process form of the wire-propagated
    trace header ({!Wire}).  With the fault-free plan this is exactly
    {!notify} plus one envelope.
    @raise Unreachable if the target is down ({!set_down}) or the message
    budget is exhausted ([Budget_exhausted]); scheduled outages do NOT
    raise — the sender only learns through missing answers. *)

val transcript : t -> entry list
(** Retained messages in delivery order (both directions of each round
    trip).  Long runs keep only the newest [log_cap] entries. *)

val logged : t -> int
(** Entries logged since creation — monotonic, unaffected by the cap and
    by {!clear_transcript}; a mark for {!transcript_since}. *)

val transcript_since : t -> int -> entry list
(** [transcript_since t n] is the retained entries logged after
    [logged t] read [n], in delivery order — what one negotiation sent,
    at a cost proportional to that, not to the whole log. *)

val dropped_log_entries : t -> int
(** Transcript entries discarded by the ring buffer so far. *)

val clear_transcript : t -> unit
val pp_transcript : Format.formatter -> t -> unit
