(** Tabled (OLDT-style) local evaluation — the third evaluation paradigm
    next to {!Sld} (depth-first backward) and {!Forward} (bottom-up).

    Calls are memoised by their variant (alpha-invariant skeleton): each
    distinct call gets a table of answer instances.  Tabling makes
    {e left-recursive} programs complete — where SLD's ancestor check
    prunes the recursive branch and loses answers —

    {v path(X, Z) <- path(X, Y), edge(Y, Z).  path(X, Y) <- edge(X, Y). v}

    and shares work across repeated sub-goals.

    Evaluation is semi-naive and resumable.  Tables are append-only; a
    rule instance waiting on a table joins each of its answers exactly
    once, so a fixpoint round only touches answers past the frontier of
    a table that grew.  A {!t} outlives its fixpoint: {!extend} feeds it
    new instances of a remote view and {!run} resumes it, deriving only
    what the new instances add.

    Scope: goals are resolved against the local KB (with the signed-rule
    axiom and [@ Self]-stripping, like {!Sld}).  A literal whose
    outermost authority names another peer reads the [?remote] view of
    the owner's table when a hook is given — the distributed-tabling
    runtime supplies it — and otherwise gets a local table that no local
    rule feeds (the pre-distribution behaviour).  Negation as failure is
    rejected ({!Unsupported}) because a NAF check against an unfinished
    table would be unsound. *)

exception Unsupported of string

type remote = target:string -> Literal.t -> Literal.t list
(** Answer view for a foreign-authority call: given the owning peer's
    name and the goal (authority popped, display form), return the
    instances known so far.  A state calls the hook once per distinct
    call variant, when evaluation first reaches it; returning a subset
    is sound.  When the view grows, the caller passes the new instances
    to {!extend} and resumes the state with {!run}: the table is
    resumed, not re-solved.  The caller deduplicates the view. *)

type stats = { tables : int  (** tables allocated by the call *) }
(** Per-call statistics, returned alongside the answers by
    {!solve_stats}.  Statistics are values threaded out of each call —
    there is no "most recent solve" global, so interleaved callers (and
    tests) can never observe another call's counts. *)

type t
(** A resumable evaluation of one conjunction: its tables, their
    answers and every suspended rule instance. *)

val create :
  ?max_rounds:int ->
  ?max_answers:int ->
  ?externals:Sld.externals ->
  ?remote:remote ->
  ?bindings:(string * Term.t) list ->
  self:string ->
  Kb.t ->
  Literal.t list ->
  t
(** A state for the conjunction, not yet evaluated.  [max_rounds]
    (default 10_000) bounds the fixpoint rounds of each {!run};
    [max_answers] (default 100_000) bounds the total table size over the
    state's lifetime — hitting either stops with the answers found so
    far.
    @raise Unsupported on a negation-as-failure literal in the goals or
    the KB. *)

val run : t -> Subst.t list
(** Run to fixpoint (under the caps) and return the conjunction's
    answers found since the previous [run], as substitutions over the
    goals' variables, deduplicated.  Opens one [tabled.solve] span.
    Exceptions raised by the [remote] hook or externals propagate and
    leave the state unusable. *)

val extend : t -> target:string -> Literal.t -> Literal.t list -> unit
(** [extend s ~target goal instances] appends instances to the remote
    view of [goal] (any variant) owned by [target]; the next {!run}
    joins only them.  A view the state never consulted is ignored. *)

val solve :
  ?max_rounds:int ->
  ?max_answers:int ->
  ?externals:Sld.externals ->
  ?remote:remote ->
  ?bindings:(string * Term.t) list ->
  self:string ->
  Kb.t ->
  Literal.t list ->
  Subst.t list
(** [run (create ...)]: answers for the conjunction, as substitutions
    over the goals' variables (deduplicated).
    @raise Unsupported on a negation-as-failure literal. *)

val solve_stats :
  ?max_rounds:int ->
  ?max_answers:int ->
  ?externals:Sld.externals ->
  ?remote:remote ->
  ?bindings:(string * Term.t) list ->
  self:string ->
  Kb.t ->
  Literal.t list ->
  Subst.t list * stats
(** Like {!solve}, also returning the call's {!stats}. *)

val provable :
  ?max_rounds:int ->
  ?externals:Sld.externals ->
  ?bindings:(string * Term.t) list ->
  self:string ->
  Kb.t ->
  Literal.t list ->
  bool
