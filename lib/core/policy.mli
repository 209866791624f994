(** Release-policy (context) evaluation.

    A context guards the disclosure of a literal or rule: it may be
    disclosed to requester [R] iff the context is derivable with
    [Requester] bound to [R] and [Self] to the local peer.  The paper's
    default context — when no [$] guard is written — is [Requester = Self]:
    private to the local peer.  The explicit context [true] (empty
    conjunction) is public. *)

open Peertrust_dlp

type decision = Granted | Denied of Peertrust_net.Denial.t
(** [Release_unsatisfied] for an unprovable or the default context;
    [No_release_policy] when no release rule covers a credential. *)

type prover = requester:string -> Literal.t list -> Sld.answer option
(** Proves a conjunction with [Requester]/[Self] bound; the negotiation
    engine supplies a prover that can issue counter-queries to other
    peers. *)

val releasable :
  prover:prover -> requester:string -> self:string -> Rule.ctx option ->
  decision
(** Decide a bare context: [None] is the default-private context. *)

val rule_releasable :
  prover:prover -> requester:string -> self:string -> Rule.t -> decision
(** May the rule text itself be sent to [requester]?  Decided by the
    rule's arrow context ([rule_ctx]). *)

val credential_releasable :
  prover:prover -> kb:Kb.t -> requester:string -> self:string -> Rule.t ->
  decision
(** May this signed rule (credential) be sent to [requester]?  Granted when
    (a) the credential's own arrow context grants it, or (b) some release
    rule in [kb] — a rule with a [$] head context — covers the
    credential's head (directly or through the signed-rule axiom
    [h @ signer]) and its head context is provable.  Default: denied. *)

val credential_heads : Rule.t -> Literal.t list
(** The heads a rule can stand for when it answers a goal: its own head,
    then [head @ signer] for each signer (the signed-rule axiom). *)

val is_release_rule : Rule.t -> bool
(** Does the rule carry a [$] head context (i.e. can it gate an answer to a
    remote query)? *)

val pp_decision : Format.formatter -> decision -> unit
