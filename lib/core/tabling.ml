(* Distributed tabling: the GEM-style port of {!Peertrust_dlp.Tabled}
   across the reactor.

   Every goal skeleton has exactly one table, living at the peer that
   owns the goal (the outermost authority).  Consumers hold a monotone
   *view* of each remote table they depend on; the owner pushes its full
   current instance list on every change ([Tanswer]), so duplicated,
   reordered or re-transmitted pushes merge idempotently.  Each table
   keeps its {!Tabled} evaluation state for its lifetime: a view that
   grows hands the state only the instances it gained, and resuming the
   state derives only the answers they add — a table is never re-solved
   from scratch (unless its peer's KB changed under it).  Acyclic
   dependency chains complete bottom-up: a table whose remote deps are
   all final freezes as soon as it reaches its local fixpoint.  Genuine
   cross-peer loops (mutual accreditation, federations) form SCCs that
   no member can complete alone; those are detected and frozen at
   reactor quiescence with a probe protocol à la GEM's counters:

     1. heal — if any consumer view lags its owner table, re-push and
        wait for the next quiescence (this stands in for per-link
        retransmission under fault injection);
     2. elect — Tarjan over the still-active tables, pick the first
        ready SCC (all external deps final) and its minimal member as
        leader;
     3. probe — the leader collects every member's size/seen counters
        ([Tprobe]/[Tstat], epoch-stamped so stale replies are ignored);
     4. freeze — if every intra-SCC edge satisfies "consumer has seen
        exactly what the producer holds", the SCC is globally quiescent:
        the leader completes its own members and broadcasts [Tcomplete];
        otherwise the epoch is dropped and the next quiescence retries.

   This module is a pure state machine: handlers return the posts the
   reactor should put on the wire, and never touch the network
   themselves.  All iteration orders are sorted, so runs are
   deterministic and fault-free transcripts are byte-stable. *)

module Net = Peertrust_net
module Obs = Peertrust_obs.Obs
module Metric = Peertrust_obs.Metric
module Otracer = Peertrust_obs.Tracer
module Json = Peertrust_obs.Json
open Peertrust_dlp

let m_loops = Obs.counter "tabling.loops_detected"
let m_completions = Obs.counter "tabling.completions"
let m_sccs = Obs.counter "tabling.sccs"
let m_heals = Obs.counter "tabling.heals"
let m_probes_aborted = Obs.counter "tabling.probes_aborted"

exception Dep_failed of Net.Denial.t

type post = {
  p_from : string;
  p_target : string;
  p_payload : Net.Message.payload;
}

type status = Active | Complete | Failed of Net.Denial.t

type table = {
  tb_owner : string;
  tb_key : string;
  tb_call : Literal.t;
  tb_path : (string * string) list;  (* tables above this one *)
  tb_seen : (string, unit) Hashtbl.t;  (* instance skeletons *)
  mutable tb_instances : Literal.t list;  (* reverse order *)
  mutable tb_status : status;
  mutable tb_consumers : string list;  (* reverse subscription order *)
  mutable tb_deps : (string * string) list;  (* (owner, key) *)
  mutable tb_eval : eval option;  (* the resumable evaluation, once run *)
}

and eval = {
  ev_state : Tabled.t;
  ev_kb : Kb.t;  (* the peer's KB the state was built from *)
  ev_fed : ((string * string) * int) list ref;
      (* (owner, key) -> view instances already handed to the state *)
}

type view = {
  vw_goal : Literal.t;  (* as shipped, for healing re-posts *)
  vw_path : (string * string) list;
  vw_seen : (string, unit) Hashtbl.t;
  mutable vw_instances : Literal.t list;
  mutable vw_final : bool;
  mutable vw_failed : Net.Denial.t option;
}

type probe = {
  pr_leader : string * string;
  pr_epoch : int;
  pr_members : (string * string) list;
  mutable pr_waiting : string list;  (* peers yet to report *)
  mutable pr_stats : (string * Net.Message.tstat_entry list) list;
}

type t = {
  session : Session.t;
  tables : (string * string, table) Hashtbl.t;
  views : (string * string * string, view) Hashtbl.t;
      (* keyed (consumer, owner, key) *)
  dependents : (string * string * string, string list) Hashtbl.t;
      (* view (consumer, owner, key) -> sorted keys of the tables at
         [consumer] whose evaluation reads it *)
  mutable queries : post list;  (* Tqueries an evaluation posted, reversed *)
  mutable epoch : int;
  mutable probe : probe option;
}

let create session =
  {
    session;
    tables = Hashtbl.create 32;
    views = Hashtbl.create 32;
    dependents = Hashtbl.create 32;
    queries = [];
    epoch = 0;
    probe = None;
  }

let skeleton lit = Peer.goal_key lit
let find_table t owner key = Hashtbl.find_opt t.tables (owner, key)

(* A top-level requester is a consumer like any other, except no table
   of its own depends on the view: registering it here lets quiescence
   healing re-push a final answer the requester lost to faults, instead
   of mis-settling the negotiation as quiescent. *)
let register_root t ~consumer ~owner goal =
  let key = skeleton goal in
  if not (Hashtbl.mem t.views (consumer, owner, key)) then
    Hashtbl.replace t.views (consumer, owner, key)
      {
        vw_goal = goal;
        vw_path = [];
        vw_seen = Hashtbl.create 8;
        vw_instances = [];
        vw_final = false;
        vw_failed = None;
      }

(* ------------------------------------------------------------------ *)
(* Answer pushes and status transitions *)

let notify tb ~final =
  let instances = List.rev tb.tb_instances in
  List.rev_map
    (fun c ->
      {
        p_from = tb.tb_owner;
        p_target = c;
        p_payload = Net.Message.Tanswer { goal = tb.tb_call; instances; final };
      })
    tb.tb_consumers

let complete_table tb =
  match tb.tb_status with
  | Complete | Failed _ -> []
  | Active ->
      tb.tb_status <- Complete;
      tb.tb_eval <- None;
      Metric.incr m_completions;
      let tracer = Obs.tracer () in
      if Otracer.enabled tracer then
        Otracer.with_span tracer
          ~attrs:
            [
              ("peer", Json.Str tb.tb_owner);
              ("table", Json.Str tb.tb_key);
              ("answers", Json.Int (Hashtbl.length tb.tb_seen));
            ]
          "tabling.complete"
          (fun () -> ());
      notify tb ~final:true

let fail_table tb reason =
  match tb.tb_status with
  | Complete | Failed _ -> []
  | Active ->
      tb.tb_status <- Failed reason;
      tb.tb_eval <- None;
      List.rev_map
        (fun c ->
          {
            p_from = tb.tb_owner;
            p_target = c;
            p_payload = Net.Message.Deny { goal = tb.tb_call; reason };
          })
        tb.tb_consumers

(* ------------------------------------------------------------------ *)
(* Local evaluation of one table, with remote deps answered from views *)

let rec insert_sorted k = function
  | [] -> [ k ]
  | x :: rest as l ->
      let c = String.compare k x in
      if c < 0 then k :: l else if c = 0 then l else x :: insert_sorted k rest

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* The state's [remote] hook: called once per remote call the first time
   the state reaches it.  Records the dependency, hands over the view as
   it stands (posting the Tquery that opens a missing one), and notes how
   much of the view the state has seen. *)
let view_hook t tb fed ~target lit =
  let key = skeleton lit in
  if
    not
      (List.exists
         (fun (o, k) -> String.equal o target && String.equal k key)
         tb.tb_deps)
  then begin
    tb.tb_deps <- tb.tb_deps @ [ (target, key) ];
    let dep = (tb.tb_owner, target, key) in
    Hashtbl.replace t.dependents dep
      (insert_sorted tb.tb_key
         (Option.value ~default:[] (Hashtbl.find_opt t.dependents dep)))
  end;
  match Hashtbl.find_opt t.views (tb.tb_owner, target, key) with
  | Some v -> (
      match v.vw_failed with
      | Some r -> raise (Dep_failed r)
      | None ->
          fed := ((target, key), Hashtbl.length v.vw_seen) :: !fed;
          List.rev v.vw_instances)
  | None ->
      (* Canonicalise the call's variable names before they reach the
         wire: the engine's fresh variables carry a process-global
         counter, and a transcript that leaked it would not be
         reproducible across runs. *)
      let lit =
        let map = Hashtbl.create 4 in
        let next = ref 0 in
        Literal.map_vars
          (fun v ->
            match Hashtbl.find_opt map v with
            | Some c -> c
            | None ->
                let c = Term.var_id (Printf.sprintf "G%d" !next) in
                incr next;
                Hashtbl.replace map v c;
                c)
          lit
      in
      let path = tb.tb_path @ [ (tb.tb_owner, tb.tb_key) ] in
      Hashtbl.replace t.views (tb.tb_owner, target, key)
        {
          vw_goal = lit;
          vw_path = path;
          vw_seen = Hashtbl.create 8;
          vw_instances = [];
          vw_final = false;
          vw_failed = None;
        };
      fed := ((target, key), 0) :: !fed;
      t.queries <-
        {
          p_from = tb.tb_owner;
          p_target = target;
          p_payload = Net.Message.Tquery { goal = lit; path };
        }
        :: t.queries;
      []

(* Run the table's evaluation to fixpoint and return its new answers.
   The state lives as long as the table: each call first hands it the
   instances its views gained since the last call, so only those are
   joined.  A state built from another KB (the peer learned rules) is
   replaced by a fresh one, built the same way as the first. *)
let resume t tb peer =
  let ev =
    match tb.tb_eval with
    | Some ev when ev.ev_kb == peer.Peer.kb ->
        List.iter
          (fun (o, k) ->
            match Hashtbl.find_opt t.views (tb.tb_owner, o, k) with
            | None -> ()
            | Some v ->
                (* A failed view failed this table already (handle_deny). *)
                let fed =
                  Option.value ~default:0 (List.assoc_opt (o, k) !(ev.ev_fed))
                in
                let size = Hashtbl.length v.vw_seen in
                if size > fed then begin
                  ev.ev_fed :=
                    ((o, k), size) :: List.remove_assoc (o, k) !(ev.ev_fed);
                  Tabled.extend ev.ev_state ~target:o v.vw_goal
                    (List.rev (take (size - fed) v.vw_instances))
                end)
          tb.tb_deps;
        ev
    | Some _ | None ->
        let fed = ref [] in
        let ev =
          {
            ev_state =
              Tabled.create ~externals:peer.Peer.externals
                ~remote:(view_hook t tb fed) ~self:tb.tb_owner peer.Peer.kb
                [ tb.tb_call ];
            ev_kb = peer.Peer.kb;
            ev_fed = fed;
          }
        in
        tb.tb_eval <- Some ev;
        ev
  in
  Tabled.run ev.ev_state

let eval_table t tb =
  match tb.tb_status with
  | Complete | Failed _ -> []
  | Active -> (
      t.queries <- [];
      let peer = Session.peer t.session tb.tb_owner in
      match resume t tb peer with
      | exception Tabled.Unsupported msg ->
          fail_table tb (Net.Denial.Unsupported msg)
      | exception Dep_failed reason -> fail_table tb reason
      | answers ->
          let grew = ref false in
          List.iter
            (fun s ->
              let inst = Literal.apply s tb.tb_call in
              let k = skeleton inst in
              if not (Hashtbl.mem tb.tb_seen k) then begin
                Hashtbl.add tb.tb_seen k ();
                tb.tb_instances <- inst :: tb.tb_instances;
                grew := true
              end)
            answers;
          let all_final =
            List.for_all
              (fun (o, k) ->
                match Hashtbl.find_opt t.views (tb.tb_owner, o, k) with
                | Some v -> v.vw_final
                | None -> false)
              tb.tb_deps
          in
          let queries = List.rev t.queries in
          t.queries <- [];
          if all_final && queries = [] then complete_table tb
          else if !grew then queries @ notify tb ~final:false
          else queries)

(* The active tables at [consumer] whose evaluation reads the view of the
   remote table [(owner, key)], in sorted order. *)
let dependents t ~consumer ~owner ~key =
  match Hashtbl.find_opt t.dependents (consumer, owner, key) with
  | None -> []
  | Some keys ->
      List.filter_map
        (fun k ->
          match find_table t consumer k with
          | Some ({ tb_status = Active; _ } as tb) -> Some tb
          | Some _ | None -> None)
        keys

(* ------------------------------------------------------------------ *)
(* Wire handlers *)

let state_reply tb ~target =
  let payload =
    match tb.tb_status with
    | Failed reason -> Net.Message.Deny { goal = tb.tb_call; reason }
    | Complete ->
        Net.Message.Tanswer
          {
            goal = tb.tb_call;
            instances = List.rev tb.tb_instances;
            final = true;
          }
    | Active ->
        Net.Message.Tanswer
          {
            goal = tb.tb_call;
            instances = List.rev tb.tb_instances;
            final = false;
          }
  in
  { p_from = tb.tb_owner; p_target = target; p_payload = payload }

let handle_query t ~owner ~from ~path goal =
  let key = skeleton goal in
  if
    List.exists
      (fun (p, k) -> String.equal p owner && String.equal k key)
      path
  then Metric.incr m_loops;
  let tb, posts =
    match find_table t owner key with
    | Some tb ->
        if not (List.exists (String.equal from) tb.tb_consumers) then
          tb.tb_consumers <- from :: tb.tb_consumers;
        (tb, [])
    | None ->
        let tb =
          {
            tb_owner = owner;
            tb_key = key;
            tb_call = goal;
            tb_path = path;
            tb_seen = Hashtbl.create 8;
            tb_instances = [];
            tb_status = Active;
            tb_consumers = [ from ];
            tb_deps = [];
            tb_eval = None;
          }
        in
        Hashtbl.replace t.tables (owner, key) tb;
        (tb, eval_table t tb)
  in
  (* Guarantee the asker a state reply (so its retransmission timer can
     stand down) unless evaluation already pushed one. *)
  let covered =
    List.exists
      (fun p ->
        String.equal p.p_target from
        &&
        match p.p_payload with
        | Net.Message.Tanswer { goal = g; _ } | Net.Message.Deny { goal = g; _ }
          ->
            String.equal (skeleton g) key
        | _ -> false)
      posts
  in
  if covered then posts else posts @ [ state_reply tb ~target:from ]

let merge_view v instances ~final =
  let grew = ref false in
  List.iter
    (fun inst ->
      let k = skeleton inst in
      if not (Hashtbl.mem v.vw_seen k) then begin
        Hashtbl.add v.vw_seen k ();
        v.vw_instances <- inst :: v.vw_instances;
        grew := true
      end)
    instances;
  let newly_final = final && not v.vw_final in
  if final then v.vw_final <- true;
  !grew || newly_final

let handle_answer t ~consumer ~from goal instances ~final =
  let key = skeleton goal in
  match Hashtbl.find_opt t.views (consumer, from, key) with
  | None -> []  (* top-level request: the reactor settles it directly *)
  | Some v ->
      if Option.is_some v.vw_failed then []
      else if merge_view v instances ~final then
        List.concat_map (eval_table t)
          (dependents t ~consumer ~owner:from ~key)
      else []

let handle_deny t ~consumer ~from goal reason =
  let key = skeleton goal in
  match Hashtbl.find_opt t.views (consumer, from, key) with
  | None -> []
  | Some v ->
      if Option.is_some v.vw_failed || v.vw_final then []
      else begin
        v.vw_failed <- Some reason;
        List.concat_map
          (fun tb -> fail_table tb reason)
          (dependents t ~consumer ~owner:from ~key)
      end

(* ------------------------------------------------------------------ *)
(* Probe protocol *)

let stats_for t ~peer members =
  List.filter_map
    (fun (mp, mk) ->
      if not (String.equal mp peer) then None
      else
        match find_table t peer mk with
        | Some tb when (match tb.tb_status with Active -> true | _ -> false)
          ->
            Some
              {
                Net.Message.ts_key = mk;
                ts_size = Hashtbl.length tb.tb_seen;
                ts_deps =
                  List.map
                    (fun (o, k) ->
                      match Hashtbl.find_opt t.views (peer, o, k) with
                      | Some v ->
                          (o, k, Hashtbl.length v.vw_seen, v.vw_final)
                      | None -> (o, k, 0, false))
                    tb.tb_deps;
              }
        (* A member that is no longer active reports a negative size so
           the leader aborts this epoch. *)
        | _ -> Some { Net.Message.ts_key = mk; ts_size = -1; ts_deps = [] })
    members

let handle_probe t ~peer ~from (leader, epoch, members) =
  [
    {
      p_from = peer;
      p_target = from;
      p_payload =
        Net.Message.Tstat
          { leader; epoch; entries = stats_for t ~peer members };
    };
  ]

let validate_probe p =
  let entry_of (o, k) =
    Option.bind (List.assoc_opt o p.pr_stats) (fun entries ->
        List.find_opt (fun e -> String.equal e.Net.Message.ts_key k) entries)
  in
  List.for_all
    (fun m ->
      match entry_of m with
      | None -> false
      | Some entry ->
          entry.Net.Message.ts_size >= 0
          && List.for_all
               (fun (o, k, seen, final) ->
                 if List.mem (o, k) p.pr_members then
                   match entry_of (o, k) with
                   | Some e -> seen = e.Net.Message.ts_size
                   | None -> false
                 else final)
               entry.Net.Message.ts_deps)
    p.pr_members

let complete_members t ~peer members =
  List.concat_map
    (fun (mp, mk) ->
      if not (String.equal mp peer) then []
      else
        match find_table t peer mk with
        | Some tb -> complete_table tb
        | None -> [])
    members

let handle_stat t ~peer ~from (leader, epoch, entries) =
  match t.probe with
  | Some p
    when p.pr_epoch = epoch
         && p.pr_leader = leader
         && String.equal (fst p.pr_leader) peer
         && List.exists (String.equal from) p.pr_waiting ->
      p.pr_stats <- (from, entries) :: p.pr_stats;
      p.pr_waiting <-
        List.filter (fun x -> not (String.equal x from)) p.pr_waiting;
      if p.pr_waiting <> [] then []
      else begin
        t.probe <- None;
        if validate_probe p then begin
          let others =
            List.sort_uniq String.compare (List.map fst p.pr_members)
            |> List.filter (fun x -> not (String.equal x peer))
          in
          List.map
            (fun target ->
              {
                p_from = peer;
                p_target = target;
                p_payload =
                  Net.Message.Tcomplete
                    { leader; epoch; members = p.pr_members };
              })
            others
          @ complete_members t ~peer p.pr_members
        end
        else begin
          Metric.incr m_probes_aborted;
          []
        end
      end
  | _ -> []  (* stale epoch or unexpected reporter *)

let handle_complete t ~peer (_leader, _epoch, members) =
  complete_members t ~peer members

(* A crash-stop wipes everything tabled {e at} the peer: its tables and
   the views it consumes are volatile state.  Tables elsewhere survive,
   but the crashed peer vanishes from their consumer lists so nothing
   is pushed at a dead incarnation.  Views naming the crashed peer as
   owner stay registered: once the owner restarts, quiescence healing
   finds the table missing and re-posts the Tquery — the re-heal path.
   An in-flight completion round touching the peer is aborted; its
   collected stats describe a dead incarnation. *)
let crash t peer =
  let doomed_tables =
    Hashtbl.fold
      (fun ((p, _) as k) _ acc ->
        if String.equal p peer then k :: acc else acc)
      t.tables []
  in
  List.iter (Hashtbl.remove t.tables) doomed_tables;
  let doomed_views =
    Hashtbl.fold
      (fun ((c, _, _) as k) _ acc ->
        if String.equal c peer then k :: acc else acc)
      t.views []
  in
  List.iter (Hashtbl.remove t.views) doomed_views;
  let doomed_deps =
    Hashtbl.fold
      (fun ((c, _, _) as k) _ acc ->
        if String.equal c peer then k :: acc else acc)
      t.dependents []
  in
  List.iter (Hashtbl.remove t.dependents) doomed_deps;
  Hashtbl.iter
    (fun _ tb ->
      tb.tb_consumers <-
        List.filter (fun c -> not (String.equal c peer)) tb.tb_consumers)
    t.tables;
  match t.probe with
  | Some p
    when String.equal (fst p.pr_leader) peer
         || List.exists (fun (o, _) -> String.equal o peer) p.pr_members
         || List.mem peer p.pr_waiting ->
      t.probe <- None;
      Metric.incr m_probes_aborted
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Quiescence: heal lagging views, then probe the first ready SCC *)

(* Only views that need a post — lagging an active table, behind a
   frozen or failed one, or whose table is missing — are sorted. *)
let heal t =
  Hashtbl.fold
    (fun ((consumer, owner, key) as view) v acc ->
      if Option.is_some v.vw_failed || v.vw_final then acc
      else
        match find_table t owner key with
        | None ->
            (* The original Tquery (and all its retries) vanished; ask
               again. *)
            ( view,
              {
                p_from = consumer;
                p_target = owner;
                p_payload =
                  Net.Message.Tquery { goal = v.vw_goal; path = v.vw_path };
              } )
            :: acc
        | Some { tb_status = Active; tb_seen; _ }
          when Hashtbl.length v.vw_seen >= Hashtbl.length tb_seen ->
            acc
        | Some tb -> (view, state_reply tb ~target:consumer) :: acc)
    t.views []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* Tarjan's SCC algorithm over the active tables, deterministic by
   sorted node order.  Returns SCCs as sorted member lists, in order of
   their minimal member. *)
let active_sccs t =
  let nodes =
    Hashtbl.fold
      (fun (p, k) tb acc ->
        match tb.tb_status with Active -> ((p, k), tb) :: acc | _ -> acc)
      t.tables []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let edges (_, tb) =
    List.filter
      (fun (o, k) ->
        match find_table t o k with
        | Some d -> ( match d.tb_status with Active -> true | _ -> false)
        | None -> false)
      tb.tb_deps
    |> List.sort compare
  in
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    let tb = Hashtbl.find t.tables v in
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (edges (v, tb));
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      sccs := List.sort compare (pop []) :: !sccs
    end
  in
  List.iter (fun (v, _) -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
  List.sort
    (fun a b -> compare (List.hd a) (List.hd b))
    (List.rev !sccs)

let try_probe t =
  let sccs = active_sccs t in
  let ready members =
    (* Every dep leaving the SCC must be a final view. *)
    List.for_all
      (fun (mp, mk) ->
        match find_table t mp mk with
        | None -> false
        | Some tb ->
            List.for_all
              (fun (o, k) ->
                List.exists
                  (fun (xp, xk) -> String.equal xp o && String.equal xk k)
                  members
                ||
                match Hashtbl.find_opt t.views (mp, o, k) with
                | Some v -> v.vw_final
                | None -> false)
              tb.tb_deps)
      members
  in
  match List.find_opt ready sccs with
  | None -> []
  | Some members -> (
      let leader = List.hd members in
      let leader_peer = fst leader in
      let peers = List.sort_uniq String.compare (List.map fst members) in
      match List.filter (fun p -> not (String.equal p leader_peer)) peers with
      | [] ->
          (* Single-peer component: it is trivially quiescent once the
             reactor is — freeze it directly. *)
          complete_members t ~peer:leader_peer members
      | others ->
          t.epoch <- t.epoch + 1;
          Metric.incr m_sccs;
          t.probe <-
            Some
              {
                pr_leader = leader;
                pr_epoch = t.epoch;
                pr_members = members;
                pr_waiting = others;
                pr_stats = [ (leader_peer, stats_for t ~peer:leader_peer members) ];
              };
          List.map
            (fun target ->
              {
                p_from = leader_peer;
                p_target = target;
                p_payload =
                  Net.Message.Tprobe
                    { leader; epoch = t.epoch; members };
              })
            others)

let quiesce t =
  let heals = heal t in
  if heals <> [] then begin
    Metric.incr m_heals;
    if Option.is_some t.probe then begin
      t.probe <- None;
      Metric.incr m_probes_aborted
    end;
    heals
  end
  else begin
    (* A probe outstanding at quiescence lost messages — retry. *)
    if Option.is_some t.probe then begin
      t.probe <- None;
      Metric.incr m_probes_aborted
    end;
    try_probe t
  end

(* ------------------------------------------------------------------ *)
(* Introspection *)

let summary t =
  Hashtbl.fold
    (fun (p, k) tb acc ->
      let status =
        match tb.tb_status with
        | Active -> "active"
        | Complete -> "complete"
        | Failed r -> "failed: " ^ Net.Denial.to_string r
      in
      (p, k, Hashtbl.length tb.tb_seen, status) :: acc)
    t.tables []
  |> List.sort compare

let table_count t = Hashtbl.length t.tables
