open Peertrust_dlp
module Net = Peertrust_net
module Obs = Peertrust_obs.Obs
module Metric = Peertrust_obs.Metric
module Otracer = Peertrust_obs.Tracer
module Ojson = Peertrust_obs.Json
module Tctx = Peertrust_obs.Trace_context

let src = Logs.Src.create "peertrust.reactor" ~doc:"PeerTrust queued engine"

module Log = (val Logs.src_log src : Logs.LOG)

let m_steps = Obs.counter "reactor.steps"
let m_posts = Obs.counter "reactor.posts"
let m_parks = Obs.counter "reactor.parks"
let m_quiescence_breaks = Obs.counter "reactor.quiescence_breaks"
let m_drops = Obs.counter "reactor.drops"
let m_retries = Obs.counter "reactor.retries"
let m_timeouts = Obs.counter "reactor.timeouts"
let m_dup_deliveries = Obs.counter "reactor.dup_deliveries"
let m_dedup_evictions = Obs.counter "reactor.dedup_evictions"
let m_crashes = Obs.counter "reactor.crashes"
let m_restarts = Obs.counter "reactor.restarts"
let m_checkpoints = Obs.counter "reactor.checkpoints"
let m_crash_drops = Obs.counter "reactor.crash_drops"
let m_recovered_goals = Obs.counter "reactor.recovered_goals"
let m_reissued = Obs.counter "reactor.reissued_subqueries"
let m_stale_epoch = Obs.counter "reactor.stale_epoch"
let m_cancels = Obs.counter "reactor.cancels"
let m_cancelled_goals = Obs.counter "reactor.cancelled_goals"
let m_deadline_expiries = Obs.counter "reactor.deadline_expiries"
let g_outstanding = Obs.gauge "reactor.outstanding_subqueries"
let g_parked = Obs.gauge "reactor.parked_goals"
let h_steps = Obs.histogram "reactor.steps_per_run"

(* Where the write-ahead journal lives.  [Journal_memory] is the
   simulator's stand-in for a durable disk: the buffer belongs to the
   reactor, not to the peer, so it survives the crash wipe exactly as a
   synced file would survive a process death. *)
type journal_mode = Journal_off | Journal_memory | Journal_dir of string

type config = {
  retry_limit : int;  (* retransmissions per sub-query before timeout *)
  cache : Answer_cache.t option;
  (* answer cache consulted before posting a sub-query and filled on
     answer delivery; pass one reactor's cache to the next for the
     shared cross-session mode *)
  tabling : bool;
  (* route requests through distributed tabling: per-goal tables at the
     owning peer, monotone answer views, SCC completion at quiescence —
     terminates on mutually recursive cross-peer policies.  Off by
     default; fault-free transcripts with tabling off are unchanged. *)
  journal : journal_mode;
  (* write-ahead journal per peer: learned certificates, learned
     says-facts, completed table answers and accepted root goals are
     appended as they happen, and a restarting incarnation replays the
     journal instead of starting cold.  Off by default. *)
}

let default_config =
  { retry_limit = 3; cache = None; tabling = false; journal = Journal_off }

(* Initial retransmission timeout in ticks (doubling per retry), and the
   capacity of each peer's delivered-envelope-id dedup ring (past it the
   oldest ids are forgotten, counted as reactor.dedup_evictions). *)
let rto = 8
let dedup_cap = 8192

type parked = {
  pk_peer : string;  (* the peer holding the goal *)
  pk_requester : string;  (* whom to answer *)
  pk_goal : Literal.t;
  mutable pk_waiting : sub list;  (* the peer's sub-queries it awaits *)
  pk_request : int option;  (* top-level request id *)
  pk_seq : int;  (* stamp when parked: identity and park order *)
}

(* One sub-query a peer has asked, keyed by (target, goal key) in the
   asking peer's record: each is posted at most once per asker. *)
and sub = {
  sq_target : string;
  sq_key : string;
  mutable sq_state : sub_state;
  sq_waiters : (int, parked) Hashtbl.t;
      (* the asker's goals parked on this sub-query, by [pk_seq] *)
  mutable sq_wire : wire;
}

(* A later Answer overrides a Deny; a Deny never overrides an Answer. *)
and sub_state =
  | Pending
  | Answered of Engine.instance list
  | Denied of Net.Denial.t  (* reason of the last Deny *)

and wire =
  | Idle  (* not outstanding on the wire *)
  | Armed of timer
      (* posted and unanswered; indexed in [t.timers] under a fault plan *)
  | Suspended of timer
      (* retries exhausted against a crashed target whose restart is
         scheduled: reissued when it comes back *)

(* Retransmission state of one posted sub-query. *)
and timer = {
  tm_goal : Literal.t;
  tm_path : (string * string) list option;
      (* [Some path] when the sub-query is a tabling Tquery; retransmits
         must resend the same payload kind *)
  mutable tm_attempt : int;  (* the timeout doubles per attempt *)
  mutable tm_next : int;  (* clock tick of the next retransmit/timeout *)
  tm_trace : Tctx.t option;
      (* trace context captured when the timer was armed, so retransmits
         and timeout denials stay on the originating negotiation's trace *)
}

(* Delivery queue ordered by (deliver_at, envelope id): earliest delivery
   first, post order on ties — plain FIFO when no delays are injected. *)
module Dq = Map.Make (struct
  type t = int * int

  let compare = compare
end)

(* Armed timers by (due tick, asker, target, goal key): the next one to
   fire is the minimum. *)
module Due = Set.Make (struct
  type t = int * string * string * string

  let compare = compare
end)

(* A peer's durable baseline, captured at reactor creation: the world a
   crash-stop restart falls back to before replaying its journal.  The
   KB value is immutable (cheap to hold); the cert/origin tables are
   copied. *)
type snapshot = {
  sn_kb : Kb.t;
  sn_certs : (string, Peertrust_crypto.Cert.t) Hashtbl.t;
  sn_origins : (int, string) Hashtbl.t;
}

(* Everything the reactor keeps about one peer.  A crash wipes the
   volatile part — ring, parked goals, unwoken sub-queries and the
   sub-queries themselves; the rest survives it. *)
type peer = {
  name : string;
  mutable ring : Net.Dedup.t option;  (* delivered envelope ids *)
  parked : (int, parked) Hashtbl.t;  (* its parked goals, by [pk_seq] *)
  mutable woken : int;  (* stamp of its last wake *)
  mutable unwoken : sub list;
      (* sub-queries resolved without a wake (deadline withdrawals);
         their waiters join the peer's next wake *)
  subs : (string * string, sub) Hashtbl.t;  (* (target, goal key) *)
  mutable incarnation : int;  (* 0 at boot *)
  observed : (string, int) Hashtbl.t;
      (* sender -> highest incarnation seen from it *)
  mutable crashed_at : int;  (* tick of the last crash; min_int if none *)
  snapshot : snapshot option;  (* session peers only *)
  journal : Persist.Journal.t option;
}

(* Scheduled point events on the reactor timeline, merged with
   deliveries and timers (events first on ties). *)
type event =
  | Ev_crash of string
  | Ev_restart of string
  | Ev_deadline of int  (* request id *)

type t = {
  session : Session.t;
  config : config;
  guard : Guard.t;
  adversaries : (string, Net.Adversary.t) Hashtbl.t;
  peers : (string, peer) Hashtbl.t;
  mutable dq : Net.Envelope.t Dq.t;
  mutable next_synth : int;  (* ids for locally synthesized messages, < 0 *)
  mutable timers : Due.t;
  awaiting : (string, (string * string) list) Hashtbl.t;
  (* crashed target -> (asker, goal key) of the sub-queries suspended
     until it restarts, in suspension order *)
  mutable stamp : int;  (* orders parks, wakes and quiescence breaks *)
  mutable last_break : int;  (* stamp of the last quiescence break *)
  results : (int, Negotiation.verdict) Hashtbl.t;
  req_owner : (int, string) Hashtbl.t;  (* request id -> requester *)
  mutable next_request : int;
  mutable budget_hit : bool;
  tabling_st : Tabling.t option;  (* present iff [config.tabling] *)
  mutable events : (int * event) list;  (* sorted by tick, stable *)
}

type request = int

let new_peer ?snapshot ?journal name =
  {
    name;
    ring = None;
    parked = Hashtbl.create 8;
    woken = 0;
    unwoken = [];
    subs = Hashtbl.create 16;
    incarnation = 0;
    observed = Hashtbl.create 8;
    crashed_at = min_int;
    snapshot;
    journal;
  }

(* The record of [name]; names outside the session (adversaries, unknown
   targets) get one on first use, with no snapshot and no journal. *)
let peer_of t name =
  match Hashtbl.find_opt t.peers name with
  | Some st -> st
  | None ->
      let st = new_peer name in
      Hashtbl.replace t.peers name st;
      st

let create ?(config = default_config) session =
  if config.retry_limit < 0 then
    invalid_arg "Reactor.create: retry_limit must be >= 0";
  let events =
    Net.Faults.crashes (Net.Network.faults session.Session.network)
    |> List.concat_map (fun (peer, at_tick, restart_tick) ->
           (at_tick, Ev_crash peer)
           ::
           (if restart_tick = max_int then []
            else [ (restart_tick, Ev_restart peer) ]))
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let peers = Hashtbl.create 8 in
  Hashtbl.iter
    (fun name (peer : Peer.t) ->
      let snapshot =
        {
          sn_kb = peer.Peer.kb;
          sn_certs = Hashtbl.copy peer.Peer.certs;
          sn_origins = Hashtbl.copy peer.Peer.origins;
        }
      in
      let journal =
        match config.journal with
        | Journal_off -> None
        | Journal_memory -> Some (Persist.Journal.in_memory ())
        | Journal_dir dir -> Some (Persist.Journal.for_peer ~dir ~peer:name)
      in
      Hashtbl.replace peers name (new_peer ~snapshot ?journal name))
    session.Session.peers;
  let t =
    {
      session;
      config;
      guard =
        Guard.create ~config:session.Session.config.Session.guard
          ~verify:(Session.admits_cert session) ();
      adversaries = Hashtbl.create 4;
      peers;
      dq = Dq.empty;
      next_synth = -1;
      timers = Due.empty;
      awaiting = Hashtbl.create 8;
      stamp = 0;
      last_break = 0;
      results = Hashtbl.create 8;
      req_owner = Hashtbl.create 8;
      next_request = 1;
      budget_hit = false;
      tabling_st =
        (if config.tabling then Some (Tabling.create session) else None);
      events;
    }
  in
  (* Cross-process recovery: a disk journal left by an earlier process
     replays its knowledge into the freshly loaded world.  Goal entries
     are not auto-resubmitted across processes — the driver owns request
     ids — but [next_request] moves past them so ids never collide. *)
  (match config.journal with
  | Journal_dir _ ->
      Session.peer_names session
      |> List.iter (fun name ->
             match
               Persist.Journal.entries
                 (Option.get (Hashtbl.find peers name).journal)
             with
             | Ok entries ->
                 Persist.Journal.replay_peer (Session.peer session name) entries;
                 List.iter
                   (function
                     | Persist.Journal.Goal { id; _ } ->
                         if id >= t.next_request then t.next_request <- id + 1
                     | _ -> ())
                   entries
             | Error _ -> ())
  | Journal_off | Journal_memory -> ());
  t

let goal_key = Peer.goal_key
let now t = Net.Clock.now (Net.Network.clock t.session.Session.network)
let enqueue t env = t.dq <- Dq.add (env.Net.Envelope.deliver_at, env.Net.Envelope.id) env t.dq

(* The trace context a message sent right now should carry: the innermost
   open span's, [None] on untraced runs.  Callers that act on behalf of a
   message received earlier (retransmits, timeout denials) pass the
   context they captured instead. *)
let ambient_trace () =
  let tracer = Obs.tracer () in
  if Otracer.enabled tracer then Otracer.current_context tracer else None

let resolve_trace = function
  | Some _ as explicit -> explicit
  | None -> ambient_trace ()

(* Enqueue a locally synthesized message (not charged on the network):
   the denial a sender owes itself when a target is unreachable or a
   sub-query times out, or a cache replay. *)
let enqueue_synthetic ?trace t ~from ~target payload =
  let id = t.next_synth in
  t.next_synth <- id - 1;
  let at = now t in
  enqueue t
    {
      Net.Envelope.id;
      seq = 0;
      from_ = from;
      target;
      sent_at = at;
      deliver_at = at;
      attempt = 0;
      incarnation = 0;
      trace = resolve_trace trace;
      payload;
    }

(* Append one durable entry to a peer's journal (a no-op with
   journaling off).  Every append is one checkpoint write. *)
let jappend st entry =
  match st.journal with
  | None -> ()
  | Some j ->
      Persist.Journal.append j entry;
      Metric.incr m_checkpoints

(* Post a message: account it on the network under the fault plan and
   enqueue the surviving copies.  An unreachable target of a query turns
   into a synthetic denial; other payloads to unreachable peers are
   counted and traced as reactor drops. *)
let post ?attempt ?trace t ~from ~target payload =
  Metric.incr m_posts;
  let trace = resolve_trace trace in
  match
    Net.Network.post t.session.Session.network ~from ~target ?attempt
      ~incarnation:(peer_of t from).incarnation ?trace payload
  with
  | envelopes -> List.iter (enqueue t) envelopes
  | exception Net.Network.Unreachable _ -> (
      match payload with
      | Net.Message.Query { goal } | Net.Message.Tquery { goal; _ } ->
          enqueue_synthetic ?trace t ~from:target ~target:from
            (Net.Message.Deny { goal; reason = Net.Denial.Unreachable None })
      | Net.Message.Answer _ | Net.Message.Deny _ | Net.Message.Disclosure _
      | Net.Message.Ack | Net.Message.Raw _ | Net.Message.Tanswer _
      | Net.Message.Tprobe _ | Net.Message.Tstat _ | Net.Message.Tcomplete _
      | Net.Message.Cancel _ ->
          Metric.incr m_drops;
          Otracer.event (Obs.tracer ())
            (Printf.sprintf "reactor.drop %s -> %s: %s (unreachable)" from
               target
               (Net.Message.summary payload));
          Log.debug (fun m ->
              m "dropping %s -> %s: %s (unreachable)" from target
                (Net.Message.summary payload)))
  | exception Net.Network.Budget_exhausted -> t.budget_hit <- true

(* Retransmission timers only run under an active fault plan: without one
   every posted message is delivered, and spurious retransmits would
   perturb the fault-free transcript. *)
let resilient t =
  not (Net.Faults.is_none (Net.Network.faults t.session.Session.network))

let due st sq tm = (tm.tm_next, st.name, sq.sq_target, sq.sq_key)

let arm t st sq tm =
  sq.sq_wire <- Armed tm;
  if resilient t then t.timers <- Due.add (due st sq tm) t.timers

(* Stand an armed sub-query down; a suspended one stays suspended. *)
let disarm t st sq =
  match sq.sq_wire with
  | Armed tm ->
      t.timers <- Due.remove (due st sq tm) t.timers;
      sq.sq_wire <- Idle
  | Idle | Suspended _ -> ()

(* Re-arm [tm] after [attempt] retransmissions. *)
let rearm t st sq tm ~attempt =
  disarm t st sq;
  tm.tm_attempt <- attempt;
  tm.tm_next <- now t + (rto lsl attempt);
  arm t st sq tm

let query_payload goal = function
  | Some path -> Net.Message.Tquery { goal; path }
  | None -> Net.Message.Query { goal }

let sub_of st ~target key = Hashtbl.find_opt st.subs (target, key)

let sub_for st ~target key =
  match sub_of st ~target key with
  | Some sq -> sq
  | None ->
      let sq =
        {
          sq_target = target;
          sq_key = key;
          sq_state = Pending;
          sq_waiters = Hashtbl.create 2;
          sq_wire = Idle;
        }
      in
      Hashtbl.replace st.subs (target, key) sq;
      sq

(* Send [st]'s sub-query [sq] — a Query, or a tabling Tquery when [path]
   is given.  A cache hit short-circuits into a locally synthesized
   reply, with no envelope and no timer: an Answer, or a final Tanswer,
   which is sound because the cache only ever holds completed tables.  A
   miss posts the query and arms its timer unless one is running. *)
let send_sub ?trace ?path t st sq goal =
  let target = sq.sq_target in
  match
    Option.bind t.config.cache (fun c ->
        Answer_cache.find c ~now:(now t) ~asker:st.name ~owner:target goal)
  with
  | Some a ->
      Otracer.event (Obs.tracer ())
        (Printf.sprintf "reactor.cache_hit %s -> %s: %s" st.name target
           (Literal.to_string goal));
      enqueue_synthetic ?trace t ~from:target ~target:st.name
        (match path with
        | None ->
            Net.Message.Answer
              {
                goal;
                instances = a.Answer_cache.instances;
                certs = a.Answer_cache.certs;
              }
        | Some _ ->
            Net.Message.Tanswer
              {
                goal;
                instances = List.map fst a.Answer_cache.instances;
                final = true;
              })
  | None -> (
      post ?trace t ~from:st.name ~target (query_payload goal path);
      match sq.sq_wire with
      | Armed _ -> ()
      | Idle | Suspended _ ->
          arm t st sq
            {
              tm_goal = goal;
              tm_path = path;
              tm_attempt = 0;
              tm_next = now t + rto;
              tm_trace = resolve_trace trace;
            })

(* Record a reply to [st]'s sub-query of [goal] at [target] and stand its
   timer down.  A reply nobody asked for still gets a record, so the
   sub-query is never posted afterwards. *)
let resolve t st ~target goal state =
  let sq = sub_for st ~target (goal_key goal) in
  (match (state, sq.sq_state) with
  | Denied _, Answered _ -> ()
  | _ -> sq.sq_state <- state);
  disarm t st sq;
  sq

(* Put a batch of tabling posts on the wire.  Tqueries go through
   {!send_sub} (a record, so the guard's solicitation oracle accepts the
   eventual answers, a cache consult and a timer carrying the call
   path).  Everything else (answer pushes, probe traffic) is
   fire-and-forget: losses are repaired by quiescence healing, not
   timers. *)
let tabling_send ?trace t posts =
  List.iter
    (fun { Tabling.p_from; p_target; p_payload } ->
      match p_payload with
      | Net.Message.Tquery { goal; path } ->
          let st = peer_of t p_from in
          send_sub ?trace ~path t st
            (sub_for st ~target:p_target (goal_key goal))
            goal
      | _ -> post ?trace t ~from:p_from ~target:p_target p_payload)
    posts

let with_tabling t f =
  match t.tabling_st with None -> () | Some tb -> tabling_send t (f tb)

(* Evaluate a goal at a peer with a collecting remote callback; either
   respond (true) or report the sub-queries it is blocked on (false).
   Work is done on [requester]'s behalf: each inner solve is capped at
   the requester's unspent guard quota and the steps it spent are
   charged against it. *)
let evaluate_goal t st peer ~requester goal ~respond =
  let blocked = ref [] in
  let collector ~target lit =
    blocked := (target, lit) :: !blocked;
    []
  in
  let result, steps =
    Engine.answer_stats ~remote:collector
      ~max_steps:(Guard.remaining_work t.guard ~from:requester ~target:st.name)
      t.session peer ~requester goal
  in
  Guard.charge_work t.guard ~from:requester ~target:st.name steps;
  match result with
  | Ok (instances, certs) ->
      respond (Net.Message.Answer { goal; instances; certs });
      `Settled
  | Error reason ->
      let pairs =
        List.sort_uniq compare
          (List.map (fun (tg, lit) -> (tg, goal_key lit, lit)) !blocked)
      in
      let waiting =
        List.filter_map
          (fun (target, key, lit) ->
            match sub_of st ~target key with
            | Some ({ sq_state = Pending; _ } as sq) -> Some sq
            | Some _ -> None
            | None ->
                let sq = sub_for st ~target key in
                send_sub t st sq lit;
                Some sq)
          pairs
      in
      if waiting = [] then begin
        respond (Net.Message.Deny { goal; reason });
        `Settled
      end
      else `Parked waiting

(* Checkpoint compaction threshold: once this many root goals have
   settled since the last compaction, the journal is rewritten without
   their Goal/Done pairs (and without duplicate knowledge entries). *)
let compact_after = 8

let maybe_compact st =
  match st.journal with
  | None -> ()
  | Some j -> (
      match Persist.Journal.compact ~after:compact_after j with
      | None -> ()
      | Some live ->
          Otracer.event (Obs.tracer ())
            (Printf.sprintf "reactor.compact %s journal -> %d entries" st.name
               live))

let settle_request t id verdict =
  if not (Hashtbl.mem t.results id) then begin
    Hashtbl.replace t.results id verdict;
    match Hashtbl.find_opt t.req_owner id with
    | None -> ()
    | Some owner ->
        let st = peer_of t owner in
        jappend st (Persist.Journal.Done { id });
        maybe_compact st
  end

(* ------------------------------------------------------------------ *)
(* Parked goals.  Each one sits in its peer's table and in the waiter
   table of every sub-query it awaits; a delivery that resolves a
   sub-query wakes just its waiters.

   Every wake stamps the peer, and the order the goals are retried and
   broken in is a function of those stamps: within a peer, goals parked
   since the last quiescence break come first, newest first; older ones
   follow as the break left them, non-root goals before roots, newest
   first within each.  Across peers, the goal parked or woken most
   recently comes first. *)

let next_stamp t =
  t.stamp <- t.stamp + 1;
  t.stamp

let goals_of tbl = Hashtbl.fold (fun _ p acc -> p :: acc) tbl []

let all_parked t =
  Hashtbl.fold
    (fun _ st acc -> Hashtbl.fold (fun _ p a -> p :: a) st.parked acc)
    t.peers []

(* Retry order within one peer (ascending). *)
let peer_rank t p =
  if p.pk_seq > t.last_break then (0, -p.pk_seq)
  else ((if p.pk_request = None then 1 else 2), -p.pk_seq)

let in_peer_order t ps =
  List.sort_uniq (fun a b -> compare (peer_rank t a) (peer_rank t b)) ps

(* Recency across peers (descending): park or last wake, whichever is
   later, ties within a peer to the newer goal. *)
let recency t p = (max p.pk_seq (peer_of t p.pk_peer).woken, p.pk_seq)

let register p =
  List.iter (fun sq -> Hashtbl.replace sq.sq_waiters p.pk_seq p) p.pk_waiting

let unregister p =
  List.iter (fun sq -> Hashtbl.remove sq.sq_waiters p.pk_seq) p.pk_waiting

let park st p =
  Hashtbl.replace st.parked p.pk_seq p;
  register p

let unpark st p =
  if Hashtbl.mem st.parked p.pk_seq then begin
    Hashtbl.remove st.parked p.pk_seq;
    unregister p
  end

(* Try to settle one parked goal; [true] when it is resolved.  A goal
   that stays parked is re-registered under what it now awaits. *)
let try_settle t st p =
  let peer = Session.peer t.session p.pk_peer in
  match p.pk_request with
  | Some id -> (
      (* Top-level: resolved by its single sub-query. *)
      match p.pk_waiting with
      | [ sq ] -> (
          match sq.sq_state with
          | Pending -> false
          | Answered instances ->
              settle_request t id (Ok instances);
              true
          | Denied reason ->
              settle_request t id
                (Error (Net.Denial.reported_by ~target:sq.sq_target reason));
              true)
      | _ -> false)
  | None -> (
      let respond payload =
        post t ~from:p.pk_peer ~target:p.pk_requester payload
      in
      match
        evaluate_goal t st peer ~requester:p.pk_requester p.pk_goal ~respond
      with
      | `Settled -> true
      | `Parked waiting ->
          unregister p;
          p.pk_waiting <- waiting;
          register p;
          false)

(* A delivery to [st] can unblock goals parked there: an answer or
   denial for [`Sub sq] unblocks the goals waiting on that sub-query; a
   disclosure ([`All]) adds knowledge without resolving any, so it
   retries every goal parked at the peer.  Sub-queries resolved without
   a wake since the last one join in. *)
let wake t st scope =
  st.woken <- next_stamp t;
  let due =
    match scope with
    | `Sub sq -> goals_of sq.sq_waiters
    | `All -> goals_of st.parked
  in
  let due =
    match st.unwoken with
    | [] -> due
    | subs ->
        st.unwoken <- [];
        List.concat_map (fun sq -> goals_of sq.sq_waiters) subs @ due
  in
  List.iter
    (fun p -> if try_settle t st p then unpark st p)
    (in_peer_order t due)

let handle_query t st peer ~from goal =
  let respond payload = post t ~from:st.name ~target:from payload in
  match evaluate_goal t st peer ~requester:from goal ~respond with
  | `Settled -> ()
  | `Parked waiting ->
      Metric.incr m_parks;
      Log.debug (fun m ->
          m "%s parks %s for %s (%d sub-quer%s outstanding)" st.name
            (Literal.to_string goal) from (List.length waiting)
            (if List.length waiting = 1 then "y" else "ies"));
      park st
        {
          pk_peer = st.name;
          pk_requester = from;
          pk_goal = goal;
          pk_waiting = waiting;
          pk_request = None;
          pk_seq = next_stamp t;
        }

(* Take an inbound answer or disclosure through the engine's receipt
   step and journal exactly what it reports new, so replaying the
   journal never learns a certificate or a says-fact twice. *)
let receive t st peer ~from ?instances certs =
  let certs, facts = Engine.receive t.session peer ~from ?instances certs in
  List.iter (fun c -> jappend st (Persist.Journal.Cert c)) certs;
  List.iter (fun r -> jappend st (Persist.Journal.Fact r)) facts

let dispatch t ~synthetic (from, target, payload) =
  match Hashtbl.find_opt t.session.Session.peers target with
  | None -> ()
  | Some peer -> (
      let st = peer_of t target in
      match payload with
      | Net.Message.Query { goal } -> handle_query t st peer ~from goal
      | Net.Message.Answer { goal; instances; certs } ->
          receive t st peer ~from ~instances certs;
          (* Fill the cache from answers that travelled the wire; replayed
             (synthetic) hits must not refresh their own TTL. *)
          (match t.config.cache with
          | Some c when not synthetic ->
              Answer_cache.store c ~now:(now t) ~asker:target ~owner:from
                goal
                { Answer_cache.instances; certs }
          | Some _ | None -> ());
          wake t st (`Sub (resolve t st ~target:from goal (Answered instances)))
      | Net.Message.Deny { goal; reason } ->
          (* When tabling is on, a denial may kill a table's dependency
             view; the failure cascades to the view's dependent tables. *)
          with_tabling t (fun tb ->
              Tabling.handle_deny tb ~consumer:target ~from goal reason);
          wake t st (`Sub (resolve t st ~target:from goal (Denied reason)))
      | Net.Message.Disclosure { certs } ->
          receive t st peer ~from certs;
          wake t st `All
      | Net.Message.Cancel { goal } ->
          (* The requester withdrew this goal (deadline expiry): drop
             the work parked on its behalf; sub-queries the evaluation
             already posted resolve into answers nobody consumes. *)
          let key = goal_key goal in
          List.iter
            (fun p ->
              if
                p.pk_request = None
                && String.equal p.pk_requester from
                && String.equal (goal_key p.pk_goal) key
              then begin
                unpark st p;
                Metric.incr m_cancelled_goals;
                Otracer.event (Obs.tracer ())
                  (Printf.sprintf "reactor.cancelled %s withdraws %s at %s"
                     from key target)
              end)
            (goals_of st.parked)
      | Net.Message.Ack -> ()
      | Net.Message.Raw _ ->
          (* Garbage on the wire: without a guard there is nothing to do
             with it; the guard layer rejects it before dispatch. *)
          ()
      | Net.Message.Tquery { goal; path } ->
          with_tabling t (fun tb ->
              Tabling.handle_query tb ~owner:target ~from ~path goal)
      | Net.Message.Tanswer { goal; instances; final } ->
          with_tabling t (fun tb ->
              Tabling.handle_answer tb ~consumer:target ~from goal instances
                ~final);
          if final then begin
            (* Only completed tables reach the cache: the [completed]
               gate makes a premature (still-in-SCC) store impossible. *)
            (match t.config.cache with
            | Some c when not synthetic ->
                Answer_cache.store ~completed:true c ~now:(now t)
                  ~asker:target ~owner:from goal
                  {
                    Answer_cache.instances =
                      List.map (fun i -> (i, None)) instances;
                    certs = [];
                  }
            | Some _ | None -> ());
            jappend st
              (Persist.Journal.Answer { owner = from; goal; instances });
            let answered = Answered (List.map (fun i -> (i, None)) instances) in
            wake t st (`Sub (resolve t st ~target:from goal answered))
          end
          else
            (* A non-final push proves the link is alive — stand the
               retransmission timer down, but keep the request pending
               until the table completes. *)
            Option.iter (disarm t st) (sub_of st ~target:from (goal_key goal))
      | Net.Message.Tprobe { leader; epoch; members } ->
          with_tabling t (fun tb ->
              Tabling.handle_probe tb ~peer:target ~from
                (leader, epoch, members))
      | Net.Message.Tstat { leader; epoch; entries } ->
          with_tabling t (fun tb ->
              Tabling.handle_stat tb ~peer:target ~from
                (leader, epoch, entries))
      | Net.Message.Tcomplete { leader; epoch; members } ->
          with_tabling t (fun tb ->
              Tabling.handle_complete tb ~peer:target
                (leader, epoch, members)))

(* Insert a scheduled event keeping the list sorted by tick; among
   equal ticks, earlier insertions fire first. *)
let insert_event t tick ev =
  let rec go = function
    | (tk, e) :: rest when tk <= tick -> (tk, e) :: go rest
    | later -> (tick, ev) :: later
  in
  t.events <- go t.events

(* Put a root goal in flight under an already allocated request id —
   shared by {!submit} and crash recovery, which re-launches a goal
   recovered from the journal under its original id. *)
let launch_root ?trace t ~id ~requester ~target goal =
  let st = peer_of t requester in
  let key = goal_key goal in
  let asked = Option.is_some (sub_of st ~target key) in
  let sq = sub_for st ~target key in
  (match t.tabling_st with
  | Some tb ->
      Tabling.register_root tb ~consumer:requester ~owner:target goal;
      send_sub ?trace ~path:[] t st sq goal
  | None -> if not asked then send_sub ?trace t st sq goal);
  let p =
    {
      pk_peer = requester;
      pk_requester = requester;
      pk_goal = goal;
      pk_waiting = [ sq ];
      pk_request = Some id;
      pk_seq = next_stamp t;
    }
  in
  if not (try_settle t st p) then park st p

let submit ?deadline t ~requester ~target goal =
  let id = t.next_request in
  t.next_request <- id + 1;
  Hashtbl.replace t.req_owner id requester;
  let key = goal_key goal in
  (* Root of the causal trace: join the ambient context (a surrounding
     [Negotiation.measure] span) or mint a fresh trace, and record the
     request itself as a zero-width span so every downstream span — on
     any peer — hangs off one negotiation root. *)
  let trace =
    let tracer = Obs.tracer () in
    if not (Otracer.enabled tracer) then None
    else
      let ctx =
        match Otracer.current_context tracer with
        | Some _ as ambient -> ambient
        | None -> Otracer.mint tracer
      in
      match ctx with
      | None -> None
      | Some c -> (
          match
            Otracer.record tracer ~ctx:c
              ~attrs:
                [
                  ("peer", Ojson.Str requester);
                  ("requester", Ojson.Str requester);
                  ("target", Ojson.Str target);
                  ("goal", Ojson.Str key);
                ]
              ~name:"negotiation.request" ~start_ticks:(now t)
              ~end_ticks:(now t) ()
          with
          | Some span -> Some (Tctx.child c ~parent_span:span.Peertrust_obs.Span.id)
          | None -> Some c)
  in
  (* The accepted goal is the journal's recovery anchor: a restart
     re-launches every Goal entry with no matching Done. *)
  jappend (peer_of t requester) (Persist.Journal.Goal { id; target; goal });
  Option.iter
    (fun tick ->
      if tick < 0 then invalid_arg "Reactor.submit: deadline must be >= 0";
      insert_event t tick (Ev_deadline id))
    deadline;
  launch_root ?trace t ~id ~requester ~target goal;
  id

(* ------------------------------------------------------------------ *)
(* Event loop: deliveries and retransmission timers on one timeline *)

let clock_to t tick =
  Net.Clock.advance_to (Net.Network.clock t.session.Session.network) tick

let restart_upcoming t name =
  List.exists
    (fun (_, ev) -> match ev with Ev_restart p -> String.equal p name | _ -> false)
    t.events

(* A timer came due: retransmit with doubled timeout while the retry
   budget lasts, then give up.  Exhaustion against a live target is a
   timeout denial; against a crashed target it is a [crashed] denial —
   unless a restart is scheduled, in which case the sub-query is
   suspended and reissued the moment the target comes back. *)
let fire_timer t (_, asker, target, key) =
  let st = peer_of t asker in
  let sq = Hashtbl.find st.subs (target, key) in
  let tm = match sq.sq_wire with Armed tm -> tm | Idle | Suspended _ -> assert false in
  clock_to t tm.tm_next;
  (* Timer work runs outside any negotiation span, so the captured
     context re-attaches it to the originating trace; the retransmit
     (resp. denial) is posted inside the span and inherits from it. *)
  let in_span name body =
    let tracer = Obs.tracer () in
    if Otracer.enabled tracer then
      Otracer.with_span tracer ?ctx:tm.tm_trace
        ~attrs:
          [
            ("peer", Ojson.Str asker);
            ("target", Ojson.Str target);
            ("goal", Ojson.Str (goal_key tm.tm_goal));
            ("attempt", Ojson.Int tm.tm_attempt);
          ]
        name body
    else body ()
  in
  if tm.tm_attempt < t.config.retry_limit then begin
    rearm t st sq tm ~attempt:(tm.tm_attempt + 1);
    Metric.incr m_retries;
    Log.debug (fun m ->
        m "retry #%d %s -> %s: %s" tm.tm_attempt asker target
          (Literal.to_string tm.tm_goal));
    in_span "reactor.retry" (fun () ->
        Otracer.event (Obs.tracer ())
          (Printf.sprintf "reactor.retry #%d %s -> %s: %s" tm.tm_attempt asker
             target
             (Literal.to_string tm.tm_goal));
        post ~attempt:tm.tm_attempt t ~from:asker ~target
          (query_payload tm.tm_goal tm.tm_path))
  end
  else begin
    disarm t st sq;
    Metric.incr m_timeouts;
    let crashed =
      Net.Faults.in_crash
        (Net.Network.faults t.session.Session.network)
        target ~now:(now t)
    in
    if crashed && restart_upcoming t target then begin
      Log.debug (fun m ->
          m "suspend %s -> %s: %s (awaiting restart)" asker target
            (Literal.to_string tm.tm_goal));
      in_span "reactor.timeout" (fun () ->
          Otracer.event (Obs.tracer ())
            (Printf.sprintf
               "reactor.timeout %s -> %s: %s (suspended awaiting restart)"
               asker target
               (Literal.to_string tm.tm_goal)));
      sq.sq_wire <- Suspended tm;
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt t.awaiting target)
      in
      Hashtbl.replace t.awaiting target (prev @ [ (asker, key) ])
    end
    else begin
      let reason =
        if crashed then Net.Denial.Crashed None else Net.Denial.Timeout None
      in
      let word = Net.Denial.to_string reason in
      Log.debug (fun m ->
          m "%s %s -> %s: %s" word asker target
            (Literal.to_string tm.tm_goal));
      in_span "reactor.timeout" (fun () ->
          Otracer.event (Obs.tracer ())
            (Printf.sprintf "reactor.%s %s -> %s: %s (after %d retries)"
               word asker target
               (Literal.to_string tm.tm_goal)
               tm.tm_attempt);
          enqueue_synthetic t ~from:target ~target:asker
            (Net.Message.Deny { goal = tm.tm_goal; reason }))
    end
  end

(* The guard's solicitation oracle: does [target] have this sub-query
   outstanding toward [from]? *)
let solicited_by t ~from ~target goal =
  match sub_of (peer_of t target) ~target:from (goal_key goal) with
  | None -> `Unknown
  | Some { sq_state = Pending; _ } -> `Outstanding
  | Some _ -> `Resolved

(* A rejected query still owes its sender a reply — the honest reading
   of a rejection is a denial, and an honest requester that trips a
   limit must terminate with a structured outcome rather than hang.
   One Deny per rejected query (1:1, no amplification); rejected
   non-query payloads are dropped silently. *)
let reject_payload t ~from ~target reason payload =
  match payload with
  | Net.Message.Query { goal } | Net.Message.Tquery { goal; _ } ->
      post t ~from:target ~target:from (Net.Message.Deny { goal; reason })
  | Net.Message.Answer _ | Net.Message.Deny _ | Net.Message.Disclosure _
  | Net.Message.Ack | Net.Message.Raw _ | Net.Message.Tanswer _
  | Net.Message.Tprobe _ | Net.Message.Tstat _ | Net.Message.Tcomplete _
  | Net.Message.Cancel _ ->
      ()

(* Inbound traffic for a registered adversary: let it misbehave in
   response. *)
let dispatch_adversary t adv ~from payload =
  List.iter
    (fun { Net.Adversary.act_target; act_payload } ->
      post t ~from:(Net.Adversary.name adv) ~target:act_target act_payload)
    (Net.Adversary.react adv ~from payload)

(* Goal skeleton of a payload, for span attributes. *)
let payload_goal = function
  | Net.Message.Query { goal }
  | Net.Message.Answer { goal; _ }
  | Net.Message.Deny { goal; _ }
  | Net.Message.Tquery { goal; _ }
  | Net.Message.Tanswer { goal; _ }
  | Net.Message.Cancel { goal } ->
      Some (goal_key goal)
  | Net.Message.Disclosure _ | Net.Message.Ack | Net.Message.Raw _
  | Net.Message.Tprobe _ | Net.Message.Tstat _ | Net.Message.Tcomplete _ ->
      None

let ring_of st =
  match st.ring with
  | Some r -> r
  | None ->
      let r = Net.Dedup.create ~cap:dedup_cap in
      st.ring <- Some r;
      r

(* Incarnation hygiene for an envelope that travelled the wire to [st]:
   discard anything sent by an incarnation that has since crashed (its
   sender died after posting), and anything stamped with a lower
   incarnation than the receiver has already observed from that
   sender. *)
let stale_incarnation t st (env : Net.Envelope.t) =
  let from = env.Net.Envelope.from_ in
  match Hashtbl.find_opt t.peers from with
  | Some sender when env.Net.Envelope.sent_at < sender.crashed_at -> true
  | Some _ | None ->
      let observed =
        Option.value ~default:0 (Hashtbl.find_opt st.observed from)
      in
      if env.Net.Envelope.incarnation < observed then true
      else begin
        if env.Net.Envelope.incarnation > observed then
          Hashtbl.replace st.observed from env.Net.Envelope.incarnation;
        false
      end

let deliver_envelope t env =
  clock_to t env.Net.Envelope.deliver_at;
  let wire = env.Net.Envelope.id >= 0 in
  let st = peer_of t env.Net.Envelope.target in
  if
    wire
    && Net.Faults.in_crash
         (Net.Network.faults t.session.Session.network)
         env.Net.Envelope.target ~now:(now t)
  then begin
    (* Landed inside the target's crash window (e.g. a multi-tick delay
       bridged the crash): the dead peer hears nothing. *)
    Metric.incr m_crash_drops;
    Otracer.event (Obs.tracer ())
      (Printf.sprintf "reactor.crash_drop %s" (Net.Envelope.summary env))
  end
  else if wire && stale_incarnation t st env then begin
    Metric.incr m_stale_epoch;
    Otracer.event (Obs.tracer ())
      (Printf.sprintf "reactor.stale_epoch %s" (Net.Envelope.summary env))
  end
  else if Net.Dedup.mem (ring_of st) env.Net.Envelope.id then begin
    Metric.incr m_dup_deliveries;
    Otracer.event (Obs.tracer ())
      (Printf.sprintf "reactor.duplicate %s" (Net.Envelope.summary env))
  end
  else begin
    if Net.Dedup.add (ring_of st) env.Net.Envelope.id then
      Metric.incr m_dedup_evictions;
    let from = env.Net.Envelope.from_ in
    let target = env.Net.Envelope.target in
    let payload = env.Net.Envelope.payload in
    let tracer = Obs.tracer () in
    let body () =
      match Hashtbl.find_opt t.adversaries target with
      | Some adv -> dispatch_adversary t adv ~from payload
      | None ->
          (* Synthetic envelopes (ids < 0) are the reactor's own bookkeeping
             — cache replays, timeout/unreachable denials — and bypass the
             guard; everything that travelled the wire is judged first. *)
          if env.Net.Envelope.id < 0 || not (Hashtbl.mem t.session.Session.peers target)
          then dispatch t ~synthetic:(env.Net.Envelope.id < 0) (from, target, payload)
          else
            match
              Guard.admit t.guard ~now:(now t) ~from ~target
                ~solicited:(solicited_by t ~from ~target)
                payload
            with
            | Guard.Admit -> dispatch t ~synthetic:false (from, target, payload)
            | Guard.Stale why ->
                Otracer.event tracer
                  (Printf.sprintf "guard.stale %s -> %s: %s" from target why)
            | Guard.Reject violation ->
                let reason = Net.Denial.Rejected (violation, None) in
                Otracer.set_attr tracer "denial.class"
                  (Ojson.Str
                     (Net.Denial.Class.to_string (Net.Denial.class_of reason)));
                reject_payload t ~from ~target reason payload
    in
    (* Join the sender's trace: reconstruct the wire transit as a
       retrospective span (real envelopes only — synthetic ones never
       travelled), then process the delivery in a receive span parented
       under it, so cross-peer causality survives the queue. *)
    match env.Net.Envelope.trace with
    | Some c when Otracer.enabled tracer && c.Tctx.sampled ->
        let kind = Net.Stats.kind_to_string (Net.Message.kind payload) in
        let ctx =
          if env.Net.Envelope.id < 0 then c
          else
            match
              Otracer.record tracer ~ctx:c
                ~attrs:
                  [
                    ("from", Ojson.Str from);
                    ("target", Ojson.Str target);
                    ("kind", Ojson.Str kind);
                    ("attempt", Ojson.Int env.Net.Envelope.attempt);
                  ]
                ~name:"net.wire" ~start_ticks:env.Net.Envelope.sent_at
                ~end_ticks:env.Net.Envelope.deliver_at ()
            with
            | Some span ->
                Tctx.child c ~parent_span:span.Peertrust_obs.Span.id
            | None -> c
        in
        let attrs =
          [
            ("peer", Ojson.Str target);
            ("requester", Ojson.Str from);
            ("kind", Ojson.Str kind);
          ]
          @
          match payload_goal payload with
          | Some g -> [ ("goal", Ojson.Str g) ]
          | None -> []
        in
        Otracer.with_span tracer ~ctx ~attrs ("recv." ^ kind) body
    | Some _ | None -> body ()
  end

(* ------------------------------------------------------------------ *)
(* Crash-stop: scheduled crash, restart and deadline events *)

(* Wipe everything volatile a crash-stop destroys at [name]: in-flight
   deliveries addressed to it, its own outstanding sub-queries, parked
   goals, dedup ring, guard admission state, cached answers, tables —
   and roll its knowledge back to the boot snapshot.  The journal (held
   by the reactor, standing in for a synced disk) survives. *)
let crash_peer t name =
  let st = peer_of t name in
  Metric.incr m_crashes;
  st.crashed_at <- now t;
  Otracer.event (Obs.tracer ())
    (Printf.sprintf "reactor.crash %s @%d" name (now t));
  Log.debug (fun m -> m "%s crashes at %d" name (now t));
  (* In-flight envelopes addressed to the dead peer: wire ones were sent
     at a live incarnation and die with it (stale epoch); synthetic ones
     are its own bookkeeping and vanish silently. *)
  let doomed =
    Dq.fold
      (fun k (env : Net.Envelope.t) acc ->
        if String.equal env.Net.Envelope.target name then
          (k, env.Net.Envelope.id >= 0) :: acc
        else acc)
      t.dq []
  in
  List.iter
    (fun (k, wire) ->
      t.dq <- Dq.remove k t.dq;
      if wire then Metric.incr m_stale_epoch)
    doomed;
  Hashtbl.iter (fun _ sq -> disarm t st sq) st.subs;
  Hashtbl.reset st.subs;
  st.ring <- None;
  Guard.reset_peer t.guard name;
  (match t.config.cache with
  | Some c ->
      ignore (Answer_cache.invalidate_asker c name : int);
      ignore (Answer_cache.invalidate_owner c name : int)
  | None -> ());
  (match t.tabling_st with Some tb -> Tabling.crash tb name | None -> ());
  let mine = in_peer_order t (goals_of st.parked) in
  Hashtbl.clear st.parked;
  st.unwoken <- [];
  List.iter
    (fun p ->
      match p.pk_request with
      | Some _ when t.config.journal <> Journal_off && restart_upcoming t name
        ->
          (* the journal's Goal entry re-launches it at restart *)
          ()
      | Some id -> settle_request t id (Error Net.Denial.Requester_crashed)
      | None -> ())
    mine;
  match st.snapshot with
  | Some sn ->
      let peer = Session.peer t.session name in
      peer.Peer.kb <- sn.sn_kb;
      Hashtbl.reset peer.Peer.certs;
      Hashtbl.iter (Hashtbl.replace peer.Peer.certs) sn.sn_certs;
      Hashtbl.reset peer.Peer.origins;
      Hashtbl.iter (Hashtbl.replace peer.Peer.origins) sn.sn_origins
  | None -> ()

(* A restart brings the peer back under a bumped incarnation: replay the
   journal (knowledge first, then unfinished root goals), then reissue
   the sub-queries counterparties had suspended awaiting the restart —
   looked up by key, so one whose asker has crashed since is gone. *)
let restart_peer t name =
  let st = peer_of t name in
  Metric.incr m_restarts;
  st.incarnation <- st.incarnation + 1;
  Otracer.event (Obs.tracer ())
    (Printf.sprintf "reactor.restart %s (incarnation %d)" name st.incarnation);
  Log.debug (fun m ->
      m "%s restarts at %d (incarnation %d)" name (now t) st.incarnation);
  (match st.journal with
  | None -> ()
  | Some j -> (
      match Persist.Journal.entries j with
      | Error _ -> ()  (* mid-stream corruption: restart cold *)
      | Ok entries ->
          let peer = Session.peer t.session name in
          Persist.Journal.replay_peer peer entries;
          (match t.config.cache with
          | Some c ->
              List.iter
                (function
                  | Persist.Journal.Answer { owner; goal; instances } ->
                      Answer_cache.store ~completed:true c ~now:(now t)
                        ~asker:name ~owner goal
                        {
                          Answer_cache.instances =
                            List.map (fun i -> (i, None)) instances;
                          certs = [];
                        }
                  | _ -> ())
                entries
          | None -> ());
          let finished = Hashtbl.create 16 in
          List.iter
            (function
              | Persist.Journal.Done { id } -> Hashtbl.replace finished id ()
              | _ -> ())
            entries;
          List.iter
            (function
              | Persist.Journal.Goal { id; target; goal }
                when (not (Hashtbl.mem finished id))
                     && not (Hashtbl.mem t.results id) ->
                  Metric.incr m_recovered_goals;
                  Otracer.event (Obs.tracer ())
                    (Printf.sprintf "reactor.recover %s request#%d: %s" name
                       id (goal_key goal));
                  launch_root t ~id ~requester:name ~target goal
              | _ -> ())
            entries));
  match Hashtbl.find_opt t.awaiting name with
  | None -> ()
  | Some suspended ->
      Hashtbl.remove t.awaiting name;
      List.iter
        (fun (asker, key) ->
          let ast = peer_of t asker in
          match sub_of ast ~target:name key with
          | Some ({ sq_state = Pending; sq_wire = Suspended tm; _ } as sq) ->
              Metric.incr m_reissued;
              Otracer.event (Obs.tracer ())
                (Printf.sprintf "reactor.reissue %s -> %s: %s" asker name
                   (Literal.to_string tm.tm_goal));
              rearm t ast sq tm ~attempt:0;
              post ?trace:tm.tm_trace t ~from:asker ~target:name
                (query_payload tm.tm_goal tm.tm_path)
          | Some _ | None -> ())
        suspended

(* The requester's deadline passed with the request unsettled: deny it
   and withdraw its outstanding sub-queries with Cancel messages so
   counterparties drop the parked work.  Outstanding means armed: a
   sub-query answered from the cache, pushed by a still-open table or
   suspended awaiting a restart is not on the wire (the suspended ones
   are dropped from the restart's reissue instead). *)
let expire_deadline t id =
  if not (Hashtbl.mem t.results id) then begin
    Metric.incr m_deadline_expiries;
    let requester = Hashtbl.find t.req_owner id in
    Otracer.event (Obs.tracer ())
      (Printf.sprintf "reactor.deadline request#%d at %s expired" id
         requester);
    let st = peer_of t requester in
    let armed =
      Hashtbl.fold
        (fun _ sq acc ->
          match sq.sq_wire with
          | Armed tm -> (sq, tm) :: acc
          | Suspended _ ->
              sq.sq_wire <- Idle;
              acc
          | Idle -> acc)
        st.subs []
      |> List.sort (fun (a, _) (b, _) ->
             compare (a.sq_target, a.sq_key) (b.sq_target, b.sq_key))
    in
    List.iter
      (fun (sq, tm) ->
        Metric.incr m_cancels;
        (* A withdrawn sub-query reads as denied by its target. *)
        (match sq.sq_state with
        | Pending -> sq.sq_state <- Denied Net.Denial.Withdrawn
        | Answered _ | Denied _ -> ());
        disarm t st sq;
        post ?trace:tm.tm_trace t ~from:requester ~target:sq.sq_target
          (Net.Message.Cancel { goal = tm.tm_goal }))
      armed;
    (* Withdrawn sub-queries resolve without a wake: whatever else waits
       on them is retried at the requester's next wake. *)
    st.unwoken <- List.map fst armed @ st.unwoken;
    List.iter
      (fun p -> if p.pk_request = Some id then unpark st p)
      (goals_of st.parked);
    settle_request t id (Error Net.Denial.Deadline_expired)
  end

let process_event t = function
  | Ev_crash name -> crash_peer t name
  | Ev_restart name -> restart_peer t name
  | Ev_deadline id -> expire_deadline t id

(* Process the next event — a scheduled crash/restart/deadline, a
   delivery or a timer, whichever is due first (scheduled events win
   ties, then deliveries); [false] when all timelines are empty. *)
let step t =
  let ev_tick = match t.events with [] -> max_int | (tk, _) :: _ -> tk in
  let dv = Dq.min_binding_opt t.dq in
  let tmr = Due.min_elt_opt t.timers in
  let dq_tick = match dv with Some ((at, _), _) -> at | None -> max_int in
  let tm_tick = match tmr with Some (tt, _, _, _) -> tt | None -> max_int in
  if ev_tick = max_int && dv = None && tmr = None then false
  else if ev_tick <= dq_tick && ev_tick <= tm_tick then begin
    (match t.events with
    | (tick, ev) :: rest ->
        t.events <- rest;
        clock_to t tick;
        process_event t ev
    | [] -> assert false);
    true
  end
  else
    match (dv, tmr) with
    | Some (dkey, env), _ when dq_tick <= tm_tick ->
        t.dq <- Dq.remove dkey t.dq;
        deliver_envelope t env;
        true
    | _, Some due ->
        fire_timer t due;
        true
    | _ -> assert false

(* At quiescence, parked goals form dependency cycles (or wait on goals
   that do).  Force-deny one non-top-level goal to break the cycle — the
   finite-failure reading of cyclic policies — and let the denial
   propagate; top-level survivors are denied as quiescent. *)
let break_quiescence t =
  let latest ps =
    List.fold_left
      (fun best p ->
        match best with
        | Some b when recency t b >= recency t p -> best
        | Some _ | None -> Some p)
      None ps
  in
  let roots, others =
    List.partition (fun p -> p.pk_request <> None) (all_parked t)
  in
  t.last_break <- next_stamp t;
  match (latest others, latest roots) with
  | Some p, _ ->
      unpark (peer_of t p.pk_peer) p;
      post t ~from:p.pk_peer ~target:p.pk_requester
        (Net.Message.Deny { goal = p.pk_goal; reason = Net.Denial.Cycle });
      true
  | None, Some ({ pk_request = Some id; _ } as p) ->
      settle_request t id (Error Net.Denial.Quiescent);
      unpark (peer_of t p.pk_peer) p;
      true
  | None, (Some _ | None) -> false

(* Tabling's quiescence hook: heal lagging views, then (if all in sync)
   start an SCC probe epoch.  Runs before [break_quiescence] so cyclic
   tabled goals complete rather than being force-denied. *)
let tabling_quiesce t =
  match t.tabling_st with
  | None -> false
  | Some tb -> (
      match Tabling.quiesce tb with
      | [] -> false
      | posts ->
          tabling_send t posts;
          true)

let run_inner ?(max_steps = 100_000) t =
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < max_steps && not t.budget_hit do
    if step t then begin
      incr steps;
      Metric.incr m_steps
    end
    else if tabling_quiesce t then Metric.incr m_steps
    else if break_quiescence t then Metric.incr m_quiescence_breaks
    else continue := false
  done;
  if t.budget_hit then
    all_parked t
    |> List.filter_map (fun p ->
           Option.map (fun id -> (recency t p, id)) p.pk_request)
    |> List.sort (fun (a, _) (b, _) -> compare b a)
    |> List.iter (fun (_, id) ->
           settle_request t id (Error Net.Denial.Budget_exhausted));
  !steps

let parked_count t =
  Hashtbl.fold (fun _ st n -> n + Hashtbl.length st.parked) t.peers 0

let run ?max_steps t =
  let steps =
    let tracer = Obs.tracer () in
    if Otracer.enabled tracer then
      Otracer.with_span tracer "reactor.run" (fun () ->
          let steps = run_inner ?max_steps t in
          Otracer.set_attr tracer "steps" (Peertrust_obs.Json.Int steps);
          steps)
    else run_inner ?max_steps t
  in
  Metric.observe_int h_steps steps;
  Metric.set g_outstanding
    (float_of_int
       (Hashtbl.fold
          (fun _ st acc ->
            Hashtbl.fold
              (fun _ sq acc ->
                match sq.sq_state with Pending -> acc + 1 | _ -> acc)
              st.subs acc)
          t.peers 0));
  Metric.set g_parked (float_of_int (parked_count t));
  steps

let result t id = Hashtbl.find_opt t.results id

let verdict t id =
  Option.value ~default:(Error Net.Denial.Quiescent) (result t id)

let outcome t id = Negotiation.outcome_of (verdict t id)

let pending_timers t = Due.cardinal t.timers

let tabling_summary t =
  match t.tabling_st with None -> [] | Some tb -> Tabling.summary tb
let guard t = t.guard
let dedup_evictions t =
  Hashtbl.fold
    (fun _ st n -> n + Option.fold ~none:0 ~some:Net.Dedup.evictions st.ring)
    t.peers 0

(* Register an adversary and queue its opening burst against [targets]
   (default: every honest session peer). *)
let add_adversary ?targets t adv =
  let name = Net.Adversary.name adv in
  Hashtbl.replace t.adversaries name adv;
  let targets =
    match targets with
    | Some l -> l
    | None -> Session.peer_names t.session
  in
  List.iter
    (fun { Net.Adversary.act_target; act_payload } ->
      post t ~from:name ~target:act_target act_payload)
    (Net.Adversary.burst adv ~targets)

let negotiate ?config ?max_steps ?(adversaries = []) session ~requester
    ~target goal =
  Negotiation.measure session (fun () ->
      let tracer = Obs.tracer () in
      if Otracer.enabled tracer then begin
        Otracer.set_attr tracer "requester" (Ojson.Str requester);
        Otracer.set_attr tracer "target" (Ojson.Str target);
        Otracer.set_attr tracer "goal" (Ojson.Str (goal_key goal))
      end;
      let t = create ?config session in
      List.iter (add_adversary t) adversaries;
      let id = submit t ~requester ~target goal in
      ignore (run ?max_steps t);
      verdict t id)
