open Peertrust_dlp
module Net = Peertrust_net

let outcome_sentence = function
  | Negotiation.Granted instances ->
      Printf.sprintf "Access granted: %s."
        (String.concat "; "
           (List.map (fun (l, _) -> Literal.to_string l) instances))
  | Negotiation.Denied reason -> Printf.sprintf "Access denied (%s)." reason

(* A transcript entry as a prose step, by the kind of message it logs. *)
let step_sentence (e : Net.Network.entry) =
  let s = e.Net.Network.summary in
  let from = e.Net.Network.from and target = e.Net.Network.target in
  (* the summary past the message's own leading word *)
  let rest w =
    String.sub s (String.length w) (String.length s - String.length w)
  in
  match e.Net.Network.kind with
  | Net.Stats.Query ->
      Printf.sprintf "%s asks %s for%s" from target (rest "query")
  | Net.Stats.Answer when e.Net.Network.certs_ > 0 ->
      Printf.sprintf "%s answers %s, disclosing %d credential(s):%s" from target
        e.Net.Network.certs_ (rest "answer")
  | Net.Stats.Answer ->
      Printf.sprintf "%s answers %s:%s" from target (rest "answer")
  | Net.Stats.Deny ->
      Printf.sprintf "%s refuses %s:%s" from target (rest "deny")
  | Net.Stats.Disclosure ->
      Printf.sprintf "%s pushes credentials to %s (%s)" from target s
  | Net.Stats.Tabling | Net.Stats.Other ->
      Printf.sprintf "%s -> %s: %s" from target s

let narrative (r : Negotiation.report) =
  let buf = Buffer.create 512 in
  List.iteri
    (fun i e ->
      Buffer.add_string buf (Printf.sprintf "%2d. %s\n" (i + 1) (step_sentence e)))
    r.Negotiation.transcript;
  Buffer.add_string buf (outcome_sentence r.Negotiation.outcome);
  Buffer.add_string buf
    (Printf.sprintf "\n(%d message(s), %d byte(s), %d credential(s) disclosed)"
       r.Negotiation.messages r.Negotiation.bytes r.Negotiation.disclosures);
  Buffer.contents buf

let mermaid_escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "#quot;"
         | ';' -> "#59;"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let participant_id =
  String.map (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
      then c
      else '_')

let sequence_diagram (r : Negotiation.report) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "sequenceDiagram\n";
  let seen = ref [] in
  let declare name =
    if not (List.mem name !seen) then begin
      seen := name :: !seen;
      Buffer.add_string buf
        (Printf.sprintf "  participant %s as %s\n" (participant_id name)
           (mermaid_escape name))
    end
  in
  List.iter
    (fun (e : Net.Network.entry) ->
      declare e.Net.Network.from;
      declare e.Net.Network.target)
    r.Negotiation.transcript;
  List.iter
    (fun (e : Net.Network.entry) ->
      let arrow =
        if e.Net.Network.kind = Net.Stats.Deny then "--x" else "->>"
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s%s%s: %s\n"
           (participant_id e.Net.Network.from)
           arrow
           (participant_id e.Net.Network.target)
           (mermaid_escape e.Net.Network.summary)))
    r.Negotiation.transcript;
  Buffer.contents buf

let dot_escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | '\n' -> "\\n"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let proof_dot trace =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph proof {\n  rankdir=TB;\n  node [fontsize=10];\n";
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "n%d" !counter
  in
  let rec node t =
    let id = fresh () in
    (match t with
    | Trace.Apply (r, children) ->
        let shape, color =
          if Rule.is_signed r then ("box", "lightblue") else ("box", "white")
        in
        let label =
          if Rule.is_signed r then
            Printf.sprintf "%s\\nsigned by %s"
              (dot_escape (Literal.to_string r.Rule.head))
              (dot_escape (String.concat ", " r.Rule.signer))
          else dot_escape (Literal.to_string r.Rule.head)
        in
        Buffer.add_string buf
          (Printf.sprintf
             "  %s [shape=%s, style=filled, fillcolor=%s, label=\"%s\"];\n" id
             shape color label);
        List.iter
          (fun child ->
            let cid = node child in
            Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" id cid))
          children
    | Trace.Builtin l ->
        Buffer.add_string buf
          (Printf.sprintf "  %s [shape=ellipse, style=dashed, label=\"%s\"];\n"
             id
             (dot_escape (Literal.to_string l)))
    | Trace.External l ->
        Buffer.add_string buf
          (Printf.sprintf
             "  %s [shape=ellipse, style=dotted, label=\"%s (external)\"];\n"
             id
             (dot_escape (Literal.to_string l)))
    | Trace.Remote { peer; goal; proof } -> (
        Buffer.add_string buf
          (Printf.sprintf
             "  %s [shape=diamond, label=\"%s\\nfrom %s\"];\n" id
             (dot_escape (Literal.to_string goal))
             (dot_escape peer));
        match proof with
        | Some p ->
            let cid = node p in
            Buffer.add_string buf
              (Printf.sprintf "  %s -> %s [style=dashed];\n" id cid)
        | None -> ()));
    id
  in
  ignore (node trace);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
