(** The distributed evaluation engine: answers queries from other peers
    under release policies, issues counter-queries, verifies and learns
    credentials, and dispatches sub-goals along authority chains.

    Answering a remote query [G] from requester [R] (the paper's run-time
    semantics, §3.2, specialised to backward chaining):

    + reject [G] if the same (requester, goal) pair is already in flight at
      this peer (negotiation cycle);
    + consider the rules whose head matches [G] {e and} that carry a [$]
      head context — the release policies.  A rule without a head context
      is private: usable inside local proofs, never to answer an outsider;
    + for each such rule, prove the built-in part of the context, then the
      body (local SLD with remote dispatch along [@] authority chains),
      then the remaining context literals with [Requester = R] — this last
      step is what triggers counter-queries back to [R] and makes the
      negotiation bilateral and iterative;
    + attach the certificates for the signed rules used by the proof,
      filtered by their own release policies;
    + the requester verifies every received certificate before its rule
      enters the knowledge base, and records each literal [lit] received
      from [P] as [lit @ P] ({!receive}, shared by both runtimes).

    Remote dispatch has one parameter, [remote]: by default sub-goals go
    over the session network and are answered recursively;
    {!Sld.no_remote} keeps evaluation local (eager strategy); the
    {!Reactor} passes a collector of blocked sub-goals. *)

open Peertrust_dlp

type instance = Literal.t * Trace.t option

val handler :
  ?remote:Sld.remote -> Session.t -> Peer.t -> Peertrust_net.Network.handler
(** The peer's synchronous message handler: a [Query] is answered by
    {!answer} with the sender as requester ([Answer] or [Deny]); a
    [Disclosure] goes through {!receive} and is acknowledged; anything
    else gets [Ack].  [remote] is passed to {!answer}: the eager strategy
    serves with {!Sld.no_remote}, so no counter-query leaves the peer.
    Wrappers ({!Audit}, {!Proxy}) decorate or delegate to it. *)

val attach : Session.t -> Peer.t -> unit
(** Register the peer's {!handler} on the session network. *)

val attach_all : Session.t -> unit

val query :
  Session.t -> requester:string -> target:string -> Literal.t -> instance list
(** Client side: send one query, take the reply through {!receive},
    return the provable instances.  Empty on denial or unreachable
    target. *)

val answer :
  ?remote:Sld.remote ->
  Session.t ->
  Peer.t ->
  requester:string ->
  Literal.t ->
  (instance list * Peertrust_crypto.Cert.t list, Peertrust_net.Denial.t) result
(** Server side: compute the releasable answer to a query.  [Error]
    names why nothing is releasable. *)

val answer_stats :
  ?remote:Sld.remote ->
  ?max_steps:int ->
  Session.t ->
  Peer.t ->
  requester:string ->
  Literal.t ->
  (instance list * Peertrust_crypto.Cert.t list, Peertrust_net.Denial.t) result * int
(** Like {!answer}, also returning the resolution steps the call spent:
    the sum over every inner solve, each capped at [max_steps] (default
    unbounded) on top of the peer's own {!Sld.options}.  The reactor
    charges this count against the requester's guard quota. *)

val evaluate :
  ?remote:Sld.remote ->
  ?solutions:int ->
  ?requester:string ->
  Session.t ->
  Peer.t ->
  Literal.t list ->
  Sld.answer list
(** Local evaluation (release policies {e not} enforced — this is the
    peer reasoning over its own knowledge), with remote dispatch through
    [remote]. *)

val prover : ?remote:Sld.remote -> Session.t -> Peer.t -> Policy.prover
(** The context prover backed by {!evaluate}. *)

val releasable_certs :
  ?remote:Sld.remote ->
  Session.t ->
  Peer.t ->
  requester:string ->
  Peertrust_crypto.Cert.t list
(** All held certificates whose release policy grants disclosure to
    [requester] (the eager strategy's per-round disclosure set). *)

val disclose :
  Session.t -> Peer.t -> target:string -> Peertrust_crypto.Cert.t list -> unit
(** Push credentials to another peer (eager / push strategies). *)

val learn :
  ?from_:string -> Session.t -> Peer.t -> Peertrust_crypto.Cert.t list ->
  Peertrust_crypto.Cert.t list
(** Verify certificates (when the session demands it) and add the valid
    ones to the peer's KB and certificate store, recording their origin.
    Returns those the wallet did not hold before, in order. *)

val receive :
  Session.t -> Peer.t -> from:string -> ?instances:instance list ->
  Peertrust_crypto.Cert.t list -> Peertrust_crypto.Cert.t list * Rule.t list
(** The receipt step of every runtime: the certificates of an [Answer]
    or [Disclosure] from peer [from] go through {!learn}, then each
    ground answer instance [lit] becomes the fact [lit @ from].  Returns
    exactly what was new, certificates then facts, for the reactor to
    journal. *)
