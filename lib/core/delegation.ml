open Peertrust_dlp

let vars_of_arity n = List.init n (fun i -> Term.var (Printf.sprintf "X%d" (i + 1)))

let delegation_rule ?(release = []) ~issuer ~delegate ~pred ~arity () =
  let args = vars_of_arity arity in
  Rule.make ~rule_ctx:release ~signer:[ issuer ]
    (Literal.make ~auth:[ Term.str issuer ] pred args)
    [ Literal.make ~auth:[ Term.str delegate ] pred args ]

let credential_fact ?(release = []) ~issuer ~pred ~subject () =
  Rule.make ~head_ctx:release ~signer:[ issuer ]
    (Literal.make ~auth:[ Term.str issuer ] pred subject)
    []

let grant session ~holder rule =
  if not (Rule.is_signed rule) then
    invalid_arg "Delegation.grant: rule is unsigned";
  match Peertrust_crypto.Cert.issue session.Session.keystore rule with
  | Ok cert ->
      ignore (Peer.add_cert holder cert);
      cert
  | Error e ->
      invalid_arg
        (Format.asprintf "Delegation.grant: %a" Peertrust_crypto.Cert.pp_error e)

let chain_of_trace ~pred trace =
  List.filter
    (fun (r : Rule.t) -> String.equal r.Rule.head.Literal.pred pred)
    (Trace.credentials trace)

let chain_rooted ~root ~pred trace =
  match chain_of_trace ~pred trace with
  | [] -> false
  | first :: _ -> List.mem root first.Rule.signer
