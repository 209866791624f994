open Peertrust_dlp
module Net = Peertrust_net
module Crypto = Peertrust_crypto
module Obs = Peertrust_obs.Obs
module Metric = Peertrust_obs.Metric
module Otracer = Peertrust_obs.Tracer
module Ojson = Peertrust_obs.Json

type instance = Literal.t * Trace.t option

let src = Logs.Src.create "peertrust.engine" ~doc:"PeerTrust negotiation engine"

module Log = (val Logs.src_log src : Logs.LOG)

let m_queries = Obs.counter "engine.queries"
let m_answers = Obs.counter "engine.answers"
let m_denials = Obs.counter "engine.denials"
let m_certs_learned = Obs.counter "engine.certs_learned"
let m_certs_rejected = Obs.counter "engine.certs_rejected"
let h_proof_depth = Obs.histogram "engine.proof_depth"

let learn ?from_ session peer certs =
  List.filter
    (fun (c : Crypto.Cert.t) ->
      if Session.admits_cert session c then begin
        Metric.incr m_certs_learned;
        Peer.add_cert ?origin:from_ peer c
      end
      else begin
        Metric.incr m_certs_rejected;
        Log.warn (fun m ->
            m "%s rejects certificate #%d (verification failed)"
              peer.Peer.name c.Crypto.Cert.serial);
        false
      end)
    certs

let receive session peer ~from ?(instances = []) certs =
  let certs = learn ~from_:from session peer certs in
  (* Each received ground instance becomes a "[from] says" fact — the
     paper's axiom converting a literal received from peer P into
     [lit @ P] — so later goals about it resolve locally. *)
  let says (inst, _) =
    if not (Literal.is_ground inst) then None
    else
      let r = Rule.fact (Literal.push_authority inst (Term.str from)) in
      if Peer.add_rule peer r then Some r else None
  in
  (certs, List.filter_map says instances)

(* The resolution work of one {!answer_stats} call: every inner solve is
   capped at [cap] steps, and [spent] sums the steps they took. *)
type meter = { cap : int; mutable spent : int }

(* Remote dispatch used from inside a peer's local SLD evaluation: pop the
   outermost authority and ship the literal to that peer. *)
let rec remote_callback session peer ~target lit =
  Metric.incr m_queries;
  let run () =
    if !(session.Session.depth) >= session.Session.config.Session.max_hops
    then []
    else begin
      incr session.Session.depth;
      Fun.protect
        ~finally:(fun () -> decr session.Session.depth)
        (fun () ->
          match
            Net.Network.send session.Session.network ~from:peer.Peer.name
              ~target
              (Net.Message.Query { goal = lit })
          with
          | exception Net.Network.Unreachable _ -> []
          | Net.Message.Answer { instances; certs; _ } ->
              ignore (receive session peer ~from:target ~instances certs);
              instances
          | Net.Message.Deny _ | Net.Message.Disclosure _ | Net.Message.Ack
          | Net.Message.Query _ | Net.Message.Raw _ | Net.Message.Tquery _
          | Net.Message.Tanswer _ | Net.Message.Tprobe _ | Net.Message.Tstat _
          | Net.Message.Tcomplete _ | Net.Message.Cancel _ ->
              [])
    end
  in
  let tracer = Obs.tracer () in
  if Otracer.enabled tracer then
    Otracer.with_span tracer
      ~attrs:
        [
          ("requester", Ojson.Str peer.Peer.name);
          ("target", Ojson.Str target);
          ("goal", Ojson.Str (Literal.to_string lit));
        ]
      "query" run
  else run ()

and eval_goals ?remote ?solutions ?requester ?meter session peer goals =
  let bindings =
    match requester with
    | Some r -> [ ("Requester", Term.str r) ]
    | None -> []
  in
  let remote =
    match remote with Some r -> r | None -> remote_callback session peer
  in
  let options =
    match solutions with
    | None -> peer.Peer.options
    | Some n -> { peer.Peer.options with Sld.max_solutions = n }
  in
  let options =
    match meter with
    | Some m when m.cap < options.Sld.max_steps ->
        { options with Sld.max_steps = m.cap }
    | Some _ | None -> options
  in
  let answers, steps =
    Sld.solve_stats ~options ~externals:peer.Peer.externals ~remote ~bindings
      ~self:peer.Peer.name peer.Peer.kb goals
  in
  (match meter with Some m -> m.spent <- m.spent + steps | None -> ());
  answers

let evaluate ?remote ?solutions ?requester session peer goals =
  eval_goals ?remote ?solutions ?requester session peer goals

let metered_prover ?remote ?meter session peer : Policy.prover =
 fun ~requester goals ->
  (* One witness suffices to grant a release. *)
  match
    eval_goals ?remote ~solutions:1 ~requester ?meter session peer goals
  with
  | [] -> None
  | a :: _ -> Some a

let prover ?remote session peer = metered_prover ?remote session peer

(* Rename the residual engine-generated variables ([X~e12], [Email~2], or
   raw fresh ids) in an answer instance to neutral names, so reports and
   clients see [_G1] instead of internal renaming suffixes. *)
let tidy_instance (l : Literal.t) =
  let mapping = Hashtbl.create 4 in
  let counter = ref 0 in
  let internal v =
    Term.is_fresh v || String.contains (Term.var_name v) '~'
  in
  let rec tidy = function
    | Term.Var v when internal v -> (
        match Hashtbl.find_opt mapping v with
        | Some fresh -> fresh
        | None ->
            incr counter;
            let fresh = Term.var (Printf.sprintf "_G%d" !counter) in
            Hashtbl.add mapping v fresh;
            fresh)
    | (Term.Var _ | Term.Str _ | Term.Int _ | Term.Atom _) as t -> t
    | Term.Compound (f, args) -> Term.Compound (f, List.map tidy args)
  in
  {
    l with
    Literal.args = List.map tidy l.Literal.args;
    Literal.auth = List.map tidy l.Literal.auth;
  }

(* Split a context into the cheap built-in guards (evaluated before the
   body, so they can bind variables like [Requester = Party]) and the
   proper literals (counter-query material, evaluated after the body). *)
let split_ctx ctx =
  List.partition (fun l -> Builtin.is_builtin (Literal.key l)) ctx

let dedup_certs certs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (c : Crypto.Cert.t) ->
      if Hashtbl.mem seen c.Crypto.Cert.serial then false
      else begin
        Hashtbl.add seen c.Crypto.Cert.serial ();
        true
      end)
    certs

(* Does [rule]'s release policy (or a release rule covering it) grant
   the credential to [requester]? *)
let releasable_to ~prover peer ~requester rule =
  match
    Policy.credential_releasable ~prover ~kb:peer.Peer.kb ~requester
      ~self:peer.Peer.name rule
  with
  | Policy.Granted -> true
  | Policy.Denied _ -> false

(* Certificates backing the signed rules used in the given proofs, plus
   [extra] rules (the top-level rule when it is itself signed), filtered by
   their release policies towards [requester]. *)
let releasable_proof_certs ?remote ~meter session peer ~requester proofs extra
    =
  let used = Trace.credentials_of_list proofs @ extra in
  let prover = metered_prover ?remote ~meter session peer in
  used
  |> List.filter_map (fun rule ->
         match Peer.cert_for peer rule with
         | Some cert when releasable_to ~prover peer ~requester rule ->
             Some cert
         | Some _ | None -> None)
  |> dedup_certs

let answer_body ?remote ~meter session peer ~requester goal =
  if not (Peer.enter peer ~requester goal) then Error Net.Denial.Reentrant
  else
    Fun.protect
      ~finally:(fun () -> Peer.leave peer ~requester goal)
      (fun () ->
        let config = session.Session.config in
        let serials_before = Hashtbl.create (Hashtbl.length peer.Peer.certs) in
        Hashtbl.iter
          (fun _ (c : Crypto.Cert.t) ->
            Hashtbl.replace serials_before c.Crypto.Cert.serial ())
          peer.Peer.certs;
        let bindings =
          Subst.bind "Requester" (Term.str requester)
            (Subst.bind "Self" (Term.str peer.Peer.name) Subst.empty)
        in
        let results = ref [] (* (instance, proofs) *) in
        let certs = ref [] in
        let saw_release_rule = ref false in
        let full () = List.length !results >= config.Session.max_answers in
        (* Run [k] on the unifier of the goal with each of [heads] (see
           {!Policy.credential_heads}) while answers are still wanted. *)
        let rec try_heads heads k =
          match heads with
          | [] -> ()
          | head :: rest ->
              (if not (full ()) then
                 match Literal.unify goal head bindings with
                 | None -> ()
                 | Some s0 -> k s0);
              try_heads rest k
        in
        (* Record one answer: the goal instance under [substs] (applied in
           order), the releasable certificates backing [rule] and
           [proofs], and the optional proof of the renamed rule [r]. *)
        let emit rule r substs proofs =
          let instance =
            tidy_instance
              (List.fold_left (fun acc s -> Literal.apply s acc) goal substs)
          in
          let extra = if Rule.is_signed rule then [ rule ] else [] in
          let answer_certs =
            releasable_proof_certs ?remote ~meter session peer ~requester
              proofs extra
          in
          certs := !certs @ answer_certs;
          let proof =
            if config.Session.attach_proofs then
              let applied =
                List.fold_left (fun acc s -> Rule.apply s acc) r substs
              in
              Some (Trace.Apply (applied, proofs))
            else None
          in
          results := (instance, proof) :: !results
        in
        let consider rule =
          match rule.Rule.head_ctx with
          | None -> ()
          | Some _ ->
              saw_release_rule := true;
              incr session.Session.renames;
              let suffix = Printf.sprintf "~e%d" !(session.Session.renames) in
              let r = Rule.rename ~suffix rule in
              let ctx = Option.value ~default:[] r.Rule.head_ctx in
              let ctx_builtin, ctx_rest = split_ctx ctx in
              try_heads (Policy.credential_heads r) (fun s0 ->
                  let pre_goals =
                    List.map (Literal.apply s0) (ctx_builtin @ r.Rule.body)
                  in
                  let body_answers =
                    eval_goals ?remote ~solutions:config.Session.max_answers
                      ~requester ~meter session peer pre_goals
                  in
                  let n_builtin = List.length ctx_builtin in
                  let use_answer (a : Sld.answer) =
                    if not (full ()) then begin
                      let s1 = a.Sld.subst in
                      let body_proofs =
                        List.filteri (fun i _ -> i >= n_builtin) a.Sld.proofs
                      in
                      let remaining =
                        List.map
                          (fun l -> Literal.apply s1 (Literal.apply s0 l))
                          ctx_rest
                      in
                      let ctx_ok =
                        match remaining with
                        | [] -> Some Subst.empty
                        | goals -> (
                            match
                              eval_goals ?remote ~solutions:1 ~requester
                                ~meter session peer goals
                            with
                            | [] -> None
                            | a2 :: _ -> Some a2.Sld.subst)
                      in
                      match ctx_ok with
                      | None -> ()
                      | Some s2 ->
                          emit rule r [ s0; s1; s2 ] body_proofs;
                          List.iter
                            (fun p ->
                              Metric.observe_int h_proof_depth (Trace.depth p))
                            body_proofs
                    end
                  in
                  List.iter use_answer body_answers)
        in
        (* Second source of answers: a signed rule (credential) whose head —
           directly or through the signed-rule axiom [h @ signer] — matches
           the goal may be disclosed when its own release policy grants it,
           even without a covering [$]-context rule matching the decorated
           goal.  This is how a query for [visaCard(C) @ "VISA"] is answered
           from a VISA-signed card gated by an undecorated release rule. *)
        let consider_credential rule =
          (* Only credentials whose body is pure built-in guards qualify:
             disclosing an instance of such a rule reveals nothing beyond
             the (releasable) rule text.  A signed rule with proper body
             literals derives new statements, whose disclosure is governed
             by covering release rules, i.e. the first source. *)
          let builtin_only_body =
            List.for_all
              (fun l -> Builtin.is_builtin (Literal.key l))
              rule.Rule.body
          in
          if Rule.is_signed rule && builtin_only_body && not (full ())
          then begin
            incr session.Session.renames;
            let suffix = Printf.sprintf "~c%d" !(session.Session.renames) in
            let r = Rule.rename ~suffix rule in
            try_heads (Policy.credential_heads r) (fun s0 ->
                saw_release_rule := true;
                let prover = metered_prover ?remote ~meter session peer in
                if releasable_to ~prover peer ~requester rule then
                  match
                    eval_goals ?remote ~solutions:1 ~requester ~meter session
                      peer
                      (List.map (Literal.apply s0) r.Rule.body)
                  with
                  | [] -> ()
                  | a :: _ -> emit rule r [ s0; a.Sld.subst ] a.Sld.proofs)
          end
        in
        let candidates = Kb.matching goal peer.Peer.kb in
        List.iter consider candidates;
        List.iter consider_credential candidates;
        (* Deduplicate instances (a signed [$ true] fact is found by both
           sources). *)
        let dedup_instances instances =
          let seen = Hashtbl.create 8 in
          List.filter
            (fun (l, _) ->
              let key = Literal.to_string l in
              if Hashtbl.mem seen key then false
              else begin
                Hashtbl.add seen key ();
                true
              end)
            instances
        in
        match dedup_instances (List.rev !results) with
        | [] ->
            Error
              (if !saw_release_rule then Net.Denial.Release_unsatisfied
               else Net.Denial.No_release_policy)
        | instances ->
            (* Relay: certificates acquired from other peers while
               computing this answer travel onwards with it, provided their
               release policies also grant the requester (this is how a
               delegation chain collected hop by hop reaches the original
               requester). *)
            let prover = metered_prover ?remote ~meter session peer in
            let relayed =
              Hashtbl.fold
                (fun _ (c : Crypto.Cert.t) acc ->
                  if
                    Hashtbl.mem serials_before c.Crypto.Cert.serial
                    || Peer.cert_origin peer c = Some requester
                  then acc
                  else if
                    releasable_to ~prover peer ~requester c.Crypto.Cert.rule
                  then c :: acc
                  else acc)
                peer.Peer.certs []
            in
            Ok (instances, dedup_certs (!certs @ relayed)))

let answer_stats ?remote ?(max_steps = max_int) session peer ~requester goal =
  let meter = { cap = max_steps; spent = 0 } in
  let run () = answer_body ?remote ~meter session peer ~requester goal in
  let result =
    let tracer = Obs.tracer () in
    if Otracer.enabled tracer then
      Otracer.with_span tracer
        ~attrs:
          [
            ("peer", Ojson.Str peer.Peer.name);
            ("requester", Ojson.Str requester);
            ("goal", Ojson.Str (Literal.to_string goal));
          ]
        "answer"
        (fun () ->
          let r = run () in
          Otracer.set_attr tracer "outcome"
            (Ojson.Str
               (match r with
               | Ok _ -> "granted"
               | Error reason -> "denied: " ^ Net.Denial.to_string reason));
          r)
    else run ()
  in
  (match result with
  | Ok _ -> Metric.incr m_answers
  | Error _ -> Metric.incr m_denials);
  (result, meter.spent)

let answer ?remote session peer ~requester goal =
  fst (answer_stats ?remote session peer ~requester goal)

let handler ?remote session peer : Net.Network.handler =
 fun ~from payload ->
  match payload with
  | Net.Message.Query { goal } -> (
      match answer ?remote session peer ~requester:from goal with
      | Ok (instances, certs) ->
          Log.debug (fun m ->
              m "%s answers %s for %s: %d instance(s), %d cert(s)"
                peer.Peer.name (Literal.to_string goal) from
                (List.length instances) (List.length certs));
          Net.Message.Answer { goal; instances; certs }
      | Error reason ->
          Log.debug (fun m ->
              m "%s denies %s for %s: %s" peer.Peer.name
                (Literal.to_string goal) from
                (Net.Denial.to_string reason));
          Net.Message.Deny { goal; reason })
  | Net.Message.Disclosure { certs } ->
      ignore (receive session peer ~from certs);
      Net.Message.Ack
  | Net.Message.Answer _ | Net.Message.Deny _ | Net.Message.Ack
  | Net.Message.Raw _ | Net.Message.Tquery _ | Net.Message.Tanswer _
  | Net.Message.Tprobe _ | Net.Message.Tstat _ | Net.Message.Tcomplete _
  | Net.Message.Cancel _ ->
      (* The tabling control plane belongs to the queued reactor; the
         synchronous request/response pair cannot stream answers back. *)
      Net.Message.Ack

let attach session peer =
  Net.Network.register session.Session.network peer.Peer.name
    (handler session peer)

let attach_all session =
  Hashtbl.iter (fun _ peer -> attach session peer) session.Session.peers

let query session ~requester ~target goal =
  let peer = Session.peer session requester in
  remote_callback session peer ~target goal

let releasable_certs ?remote session peer ~requester =
  let prover = prover ?remote session peer in
  Hashtbl.fold (fun _ c acc -> c :: acc) peer.Peer.certs []
  |> List.filter (fun (c : Crypto.Cert.t) ->
         releasable_to ~prover peer ~requester c.Crypto.Cert.rule)
  |> dedup_certs

let disclose session peer ~target certs =
  if certs <> [] then
    ignore
      (Net.Network.send session.Session.network ~from:peer.Peer.name ~target
         (Net.Message.Disclosure { certs }))
