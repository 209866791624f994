(* Semi-naive, resumable tabled evaluation.

   Every distinct call (up to variance) gets a table whose answers are
   append-only.  A rule instance that reaches a tabled body literal is
   suspended on that literal's table as a {e consumer}: one resolved
   clause (the head it proves, the literal it waits on, the body still to
   prove) plus a frontier — how many of the table's answers it has
   already consumed.  A table's rules are resolved once, when the table
   is created; after that every derivation is a consumer resumed with
   one answer past its frontier.  Each (consumer, answer) pair is
   therefore joined exactly once, which is the semi-naive delta rule in
   its call-driven (SLG-style) form.

   A foreign-authority call gets a table too, fed from outside instead of
   by rules: its first reach asks the [remote] hook for the instances
   known so far, and {!extend} appends later ones.  Resuming the state
   then pushes only the new instances through the consumers — the
   distributed-tabling runtime keeps one state per table alive and never
   re-solves it from scratch. *)

module Obs = Peertrust_obs.Obs
module Metric = Peertrust_obs.Metric
module Otracer = Peertrust_obs.Tracer

exception Unsupported of string

let m_queries = Obs.counter "tabled.queries"
let m_rounds = Obs.counter "tabled.rounds"
let m_table_hits = Obs.counter "tabled.table_hits"
let m_table_misses = Obs.counter "tabled.table_misses"
let m_answers = Obs.counter "tabled.answers"
let h_tables = Obs.histogram "tabled.tables_per_query"

type stats = { tables : int }
type remote = target:string -> Literal.t -> Literal.t list

(* Growable array: append-only answer and consumer lists that are read by
   position while they grow. *)
type 'a vec = { mutable items : 'a array; mutable len : int }

let vec () = { items = [||]; len = 0 }

let push v x =
  if v.len = Array.length v.items then begin
    let bigger = Array.make (max 4 (2 * v.len)) x in
    Array.blit v.items 0 bigger 0 v.len;
    v.items <- bigger
  end;
  v.items.(v.len) <- x;
  v.len <- v.len + 1

type table = {
  call : Literal.t;  (* the generalised call this table answers *)
  answers : Literal.t vec;
  keys : (int array, unit) Hashtbl.t;  (* canonical answer forms *)
  consumers : consumer vec;
  mutable evaluated : bool;
      (* rules resolved against the call; a remote view has none: its
         answers come from the hook and [extend] *)
  mutable queued : bool;
}

and consumer = {
  k_table : table;  (* receives the head instances this clause proves *)
  k_head : Literal.t;
  k_goal : Literal.t;  (* waits on the producer's answers *)
  k_rest : Literal.t list;
  mutable k_seen : int;  (* frontier: producer answers already joined *)
}

type t = {
  kb : Kb.t;
  self : string;
  goals : Literal.t list;
  bindings : (string * Term.t) list;
  externals : Sld.externals;
  remote : remote option;
  max_rounds : int;
  max_answers : int;
  tables : (int array, table) Hashtbl.t;
  views : (string * int array, table) Hashtbl.t;  (* remote calls *)
  query : table;  (* the conjunction's own table *)
  qvars : int list;
  work : table Queue.t;  (* tables to evaluate or with unconsumed answers *)
  mutable pending : (string * Literal.t * Literal.t list) list;
      (* [extend]s not yet applied, reversed *)
  mutable total : int;  (* answers across the local tables *)
  mutable read : int;  (* query answers already returned by [run] *)
}

let new_table ~evaluated call =
  {
    call;
    answers = vec ();
    keys = Hashtbl.create 8;
    consumers = vec ();
    evaluated;
    queued = false;
  }

let enqueue s e =
  if not e.queued then begin
    e.queued <- true;
    Queue.push e s.work
  end

let peer_name_of_term = function
  | Term.Str s | Term.Atom s -> Some (Sym.name s)
  | Term.Var _ | Term.Int _ | Term.Compound _ -> None

let strip_self_auth ~self lit =
  let rec go l =
    match Literal.pop_authority l with
    | Some (inner, a) -> (
        match Term.const_name a with
        | Some n when String.equal n self -> go inner
        | Some _ | None -> l)
    | None -> l
  in
  go lit

let create ?(max_rounds = 10_000) ?(max_answers = 100_000)
    ?(externals = fun _ -> None) ?remote ?(bindings = []) ~self kb goals =
  (* Reject NAF anywhere in the program or query up front. *)
  let check_naf l =
    if Option.is_some (Literal.naf_inner l) then
      raise (Unsupported "negation as failure under tabling")
  in
  List.iter check_naf goals;
  Kb.fold (fun r () -> List.iter check_naf r.Rule.body) kb ();
  let qvars =
    List.concat_map Literal.vars goals
    |> List.filter (fun v -> not (Term.is_pseudo v))
    |> List.sort_uniq Int.compare
  in
  let query =
    new_table ~evaluated:false
      (Literal.make "__query__" (List.map (fun v -> Term.Var v) qvars))
  in
  let s =
    {
      kb;
      self;
      goals;
      bindings;
      externals;
      remote;
      max_rounds;
      max_answers;
      tables = Hashtbl.create 16;
      views = Hashtbl.create 8;
      query;
      qvars;
      work = Queue.create ();
      pending = [];
      total = 0;
      read = 0;
    }
  in
  Metric.incr m_table_misses;
  enqueue s query;
  s

let add_answer s st ar e inst =
  if s.total < s.max_answers then begin
    let key = Flat.canon_key ar st inst in
    if not (Hashtbl.mem e.keys key) then begin
      Hashtbl.add e.keys key ();
      push e.answers inst;
      s.total <- s.total + 1;
      Metric.incr m_answers;
      enqueue s e
    end
  end

(* Answers keep their own variables; rename them apart before a join. *)
let fresh_answer a = if Literal.is_ground a then a else Literal.rename_apart a

let local_table s st ar lit =
  let key = Flat.canon_key ar st lit in
  match Hashtbl.find_opt s.tables key with
  | Some e ->
      Metric.incr m_table_hits;
      e
  | None ->
      Metric.incr m_table_misses;
      let e = new_table ~evaluated:false (Literal.resolve st lit) in
      Hashtbl.add s.tables key e;
      enqueue s e;
      e

let remote_table s st ar r ~target inner =
  let key = (target, Flat.canon_key ar st inner) in
  match Hashtbl.find_opt s.views key with
  | Some e -> e
  | None ->
      let e = new_table ~evaluated:true (Literal.resolve st inner) in
      Hashtbl.add s.views key e;
      List.iter (push e.answers) (r ~target (Literal.display st inner));
      e

(* Prove [goals] left to right under the store's bindings, adding the
   head instance to [e] for every proof.  A tabled literal suspends the
   rest of the clause on its table and joins it at once with the answers
   the table already holds; later answers reach the suspended clause
   through the work queue. *)
let rec body s st ar e head goals =
  match goals with
  | [] -> add_answer s st ar e (Literal.resolve st head)
  | b :: rest -> (
      let b = strip_self_auth ~self:s.self (Literal.resolve st b) in
      (* A ground foreign authority consumes the remote view when a hook
         is given; without one the qualified literal gets a local table
         that no local rule feeds. *)
      let remote =
        match (s.remote, Literal.pop_authority b) with
        | Some r, Some (inner, a) ->
            Option.map (fun name -> (r, name, inner)) (peer_name_of_term a)
        | _ -> None
      in
      match remote with
      | Some (r, target, inner) ->
          consume s st ar e head (remote_table s st ar r ~target inner) inner rest
      | None -> (
          match Builtin.eval_store st b with
          | Some holds -> if holds then body s st ar e head rest
          | None -> (
              match s.externals (Literal.key b) with
              | Some f ->
                  let sub = Store.to_subst st in
                  List.iter
                    (fun s' ->
                      let m = Store.mark st in
                      Subst.fold_ids
                        (fun v t () ->
                          if not (Store.is_bound st v) then Store.bind st v t)
                        s' ();
                      body s st ar e head rest;
                      Store.undo st m)
                    (f b sub)
              | None -> consume s st ar e head (local_table s st ar b) b rest)))

and consume s st ar e head producer goal rest =
  let known = producer.answers.len in
  push producer.consumers
    {
      k_table = e;
      k_head = Literal.resolve st head;
      k_goal = goal;
      k_rest = List.map (Literal.resolve st) rest;
      k_seen = known;
    };
  for i = 0 to known - 1 do
    join s st ar e head goal producer.answers.items.(i) rest
  done

and join s st ar e head goal answer rest =
  let m = Store.mark st in
  if Literal.unify_store st goal (fresh_answer answer) then
    body s st ar e head rest;
  Store.undo st m

(* Resolve a new table's call against every matching rule, once. *)
let evaluate s st ar e =
  e.evaluated <- true;
  if e == s.query then body s st ar e e.call s.goals
  else begin
    let fcall = Flat.flatten ar st e.call in
    List.iter
      (fun compiled ->
        let nv = Rule.nvars compiled in
        let k0 = if nv = 0 then 0 else Term.fresh_block nv in
        let heads = Rule.flat_heads compiled in
        for hi = 0 to Array.length heads - 1 do
          let m = Store.mark st in
          if Flat.unify st ~k0 fcall heads.(hi) then
            body s st ar e e.call (Rule.instantiate_at compiled k0).Rule.body;
          Store.undo st m
        done)
      (Kb.matching_compiled e.call s.kb)
  end

let extend s ~target goal instances =
  if instances <> [] then s.pending <- (target, goal, instances) :: s.pending

(* The one evaluation loop.  Pending view growth is appended first; then
   a round takes the tables queued at its start: a new table resolves its
   rules, and every consumer of the table joins the answers past its
   frontier.  Store bindings never outlive a join, so the store and the
   flattening arena live for one run only. *)
let fixpoint s =
  let st = Store.create () in
  let bind_initial v t =
    let id = Term.var_id v in
    if Store.is_bound st id then
      invalid_arg ("Subst.bind: already bound: " ^ v)
    else Store.bind st id t
  in
  List.iter
    (fun (v, t) -> if not (String.equal v "Self") then bind_initial v t)
    s.bindings;
  bind_initial "Self" (Term.str s.self);
  let ar = Flat.arena () in
  List.iter
    (fun (target, goal, instances) ->
      match Hashtbl.find_opt s.views (target, Flat.canon_key ar st goal) with
      | None -> ()  (* never called: no consumer waits on it *)
      | Some e ->
          List.iter (push e.answers) instances;
          enqueue s e)
    (List.rev s.pending);
  s.pending <- [];
  let rounds = ref 0 in
  while
    (not (Queue.is_empty s.work))
    && !rounds < s.max_rounds && s.total < s.max_answers
  do
    incr rounds;
    Metric.incr m_rounds;
    for _ = 1 to Queue.length s.work do
      let e = Queue.pop s.work in
      e.queued <- false;
      if not e.evaluated then evaluate s st ar e;
      let i = ref 0 in
      while !i < e.consumers.len do
        let k = e.consumers.items.(!i) in
        while k.k_seen < e.answers.len do
          let a = e.answers.items.(k.k_seen) in
          k.k_seen <- k.k_seen + 1;
          join s st ar k.k_table k.k_head k.k_goal a k.k_rest
        done;
        incr i
      done
    done
  done

(* Query-table instances as substitutions on [qvars]. *)
let substs s from =
  let rec go i acc =
    if i < from then acc
    else
      let inst = s.query.answers.items.(i) in
      let acc =
        match
          List.fold_left2
            (fun acc v t ->
              match acc with
              | None -> None
              | Some sub -> (
                  match Subst.find_id v sub with
                  | Some _ -> acc  (* already bound consistently via unify *)
                  | None -> Some (Subst.bind_id v t sub)))
            (Some Subst.empty) s.qvars inst.Literal.args
        with
        | exception Invalid_argument _ -> acc
        | None -> acc
        | Some sub -> sub :: acc
      in
      go (i - 1) acc
  in
  go (s.query.answers.len - 1) []

let tables s = Hashtbl.length s.tables + 1

let run s =
  Metric.incr m_queries;
  let go () =
    fixpoint s;
    let fresh = substs s s.read in
    s.read <- s.query.answers.len;
    fresh
  in
  let tracer = Obs.tracer () in
  let fresh =
    if Otracer.enabled tracer then
      Otracer.with_span tracer
        ~attrs:
          [
            ( "goal",
              Peertrust_obs.Json.Str
                (String.concat ", " (List.map Literal.to_string s.goals)) );
            ("self", Peertrust_obs.Json.Str s.self);
          ]
        "tabled.solve" go
    else go ()
  in
  Metric.observe_int h_tables (tables s);
  fresh

let solve_stats ?max_rounds ?max_answers ?externals ?remote ?bindings ~self kb
    goals =
  let s =
    create ?max_rounds ?max_answers ?externals ?remote ?bindings ~self kb goals
  in
  let answers = run s in
  (answers, { tables = tables s })

let solve ?max_rounds ?max_answers ?externals ?remote ?bindings ~self kb goals
    =
  fst
    (solve_stats ?max_rounds ?max_answers ?externals ?remote ?bindings ~self kb
       goals)

let provable ?max_rounds ?externals ?bindings ~self kb goals =
  solve ?max_rounds ?externals ?bindings ~self kb goals <> []
