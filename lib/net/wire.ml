(* Envelope wire framing: the transport-portable header of a posted
   message, including the propagated trace context.

   Today every envelope lives in one process, but the ROADMAP's socket
   runtime needs a byte form; this module pins it down early so the
   trace context's wire representation is exercised (and fuzzed) long
   before TCP exists.  The payload body is not serialised here — only
   its kind and accounted size travel in the header; body codecs belong
   to the transport PR.

   Frame: a fixed sequence of LF-terminated lines —

     PEERTRUST/1 <id> <seq> <attempt>
     from: <escaped name>
     to: <escaped name>
     sent: <tick>
     deliver: <tick>
     kind: <kind>
     bytes: <n>
     inc: <n>                    (only when the sender has restarted)
     tabling: <op> ...           (only for tabling control messages)
     traceparent: pt1-...        (only when a context is carried)

   The [tabling] line carries the distributed-tabling control fields
   (path, counters, SCC membership) so the completion protocol survives
   a byte transport; peer names and goal keys are hex-encoded so the
   grammar stays line- and space-delimited no matter what the names
   contain.  Answer instance bodies are NOT serialised — like payload
   bodies generally, they belong to the transport PR; the header carries
   the finality bit and the instance count.

   The decoder is total: malformed input yields [Error] with the
   offending 1-based line, never an exception (the same contract as
   [Peertrust_crypto.Wire]). *)

module Trace_context = Peertrust_obs.Trace_context
module Hex = Peertrust_obs.Hex

type tabling =
  | Hquery of { path : (string * string) list }
  | Hanswer of { final : bool; count : int }
  | Hprobe of {
      leader : string * string;
      epoch : int;
      members : (string * string) list;
    }
  | Hstat of {
      leader : string * string;
      epoch : int;
      entries : (string * int * (string * string * int * bool) list) list;
    }
  | Hcomplete of {
      leader : string * string;
      epoch : int;
      members : (string * string) list;
    }

type header = {
  h_id : int;
  h_seq : int;
  h_attempt : int;
  h_from : string;
  h_target : string;
  h_sent_at : int;
  h_deliver_at : int;
  h_kind : string;
  h_bytes : int;
  h_incarnation : int;
  h_tabling : tabling option;
  h_trace : Trace_context.t option;
}

let magic = "PEERTRUST/1"

let tabling_of_payload = function
  | Message.Tquery { path; _ } -> Some (Hquery { path })
  | Message.Tanswer { instances; final; _ } ->
      Some (Hanswer { final; count = List.length instances })
  | Message.Tprobe { leader; epoch; members } ->
      Some (Hprobe { leader; epoch; members })
  | Message.Tstat { leader; epoch; entries } ->
      Some
        (Hstat
           {
             leader;
             epoch;
             entries =
               List.map
                 (fun e ->
                   (e.Message.ts_key, e.Message.ts_size, e.Message.ts_deps))
                 entries;
           })
  | Message.Tcomplete { leader; epoch; members } ->
      Some (Hcomplete { leader; epoch; members })
  | _ -> None

let header_of_envelope (e : Envelope.t) =
  {
    h_id = e.Envelope.id;
    h_seq = e.Envelope.seq;
    h_attempt = e.Envelope.attempt;
    h_from = e.Envelope.from_;
    h_target = e.Envelope.target;
    h_sent_at = e.Envelope.sent_at;
    h_deliver_at = e.Envelope.deliver_at;
    h_kind = Stats.kind_to_string (Message.kind e.Envelope.payload);
    h_bytes = Message.size e.Envelope.payload;
    h_incarnation = e.Envelope.incarnation;
    h_tabling = tabling_of_payload e.Envelope.payload;
    h_trace = e.Envelope.trace;
  }

(* Tabling line grammar (space-separated tokens, names hex-encoded):
     query <pairs>
     answer <0|1> <count>
     probe <pair> <epoch> <pairs>
     stat <pair> <epoch> <entries>
     complete <pair> <epoch> <pairs>
   pair    ::= hex(name) "~" hex(key)
   pairs   ::= "-" | pair ("," pair)*
   entries ::= "-" | entry (";" entry)*
   entry   ::= hex(key) ":" size ":" deps
   deps    ::= "-" | dep ("|" dep)*
   dep     ::= hex(owner) "~" hex(key) "~" seen "~" (0|1) *)

let pair_to_string (a, b) = Hex.encode a ^ "~" ^ Hex.encode b

let pairs_to_string = function
  | [] -> "-"
  | ps -> String.concat "," (List.map pair_to_string ps)

let dep_to_string (owner, key, seen, final) =
  Printf.sprintf "%s~%s~%d~%d" (Hex.encode owner) (Hex.encode key) seen
    (if final then 1 else 0)

let entry_to_string (key, size, deps) =
  Printf.sprintf "%s:%d:%s" (Hex.encode key) size
    (match deps with
    | [] -> "-"
    | ds -> String.concat "|" (List.map dep_to_string ds))

let entries_to_string = function
  | [] -> "-"
  | es -> String.concat ";" (List.map entry_to_string es)

let tabling_to_string = function
  | Hquery { path } -> Printf.sprintf "query %s" (pairs_to_string path)
  | Hanswer { final; count } ->
      Printf.sprintf "answer %d %d" (if final then 1 else 0) count
  | Hprobe { leader; epoch; members } ->
      Printf.sprintf "probe %s %d %s" (pair_to_string leader) epoch
        (pairs_to_string members)
  | Hstat { leader; epoch; entries } ->
      Printf.sprintf "stat %s %d %s" (pair_to_string leader) epoch
        (entries_to_string entries)
  | Hcomplete { leader; epoch; members } ->
      Printf.sprintf "complete %s %d %s" (pair_to_string leader) epoch
        (pairs_to_string members)

let encode h =
  let buf = Buffer.create 128 in
  Printf.bprintf buf "%s %d %d %d\n" magic h.h_id h.h_seq h.h_attempt;
  Printf.bprintf buf "from: %s\n" (String.escaped h.h_from);
  Printf.bprintf buf "to: %s\n" (String.escaped h.h_target);
  Printf.bprintf buf "sent: %d\n" h.h_sent_at;
  Printf.bprintf buf "deliver: %d\n" h.h_deliver_at;
  Printf.bprintf buf "kind: %s\n" h.h_kind;
  Printf.bprintf buf "bytes: %d\n" h.h_bytes;
  if h.h_incarnation <> 0 then
    Printf.bprintf buf "inc: %d\n" h.h_incarnation;
  Option.iter
    (fun tb -> Printf.bprintf buf "tabling: %s\n" (tabling_to_string tb))
    h.h_tabling;
  Option.iter
    (fun ctx ->
      Printf.bprintf buf "traceparent: %s\n" (Trace_context.to_header ctx))
    h.h_trace;
  Buffer.contents buf

let encode_envelope e = encode (header_of_envelope e)

type error = Malformed of { line : int; reason : string }

let pp_error fmt (Malformed { line; reason }) =
  Format.fprintf fmt "line %d: %s" line reason

(* ------------------------------------------------------------------ *)
(* Total decoder *)

let fail line reason = Error (Malformed { line; reason })

let field ~line ~key s =
  let prefix = key ^ ": " in
  let lp = String.length prefix in
  if String.length s >= lp && String.equal (String.sub s 0 lp) prefix then
    Ok (String.sub s lp (String.length s - lp))
  else fail line (Printf.sprintf "expected %S field" key)

let int_field ~line ~key s =
  match field ~line ~key s with
  | Error _ as e -> e
  | Ok v -> (
      match int_of_string_opt v with
      | Some n -> Ok n
      | None -> fail line (Printf.sprintf "%s: not an integer: %S" key v))

let name_field ~line ~key s =
  match field ~line ~key s with
  | Error _ as e -> e
  | Ok v -> (
      (* Inverse of [String.escaped]; reject sequences it never emits. *)
      match Scanf.unescaped v with
      | name -> Ok name
      | exception Scanf.Scan_failure _ | exception Failure _ ->
          fail line (Printf.sprintf "%s: bad escape in %S" key v))

let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v

(* Tabling-line parsing helpers: every failure is a [None], lifted to a
   [Malformed] at the line level — no exceptions can escape. *)

let split_nonempty sep s = if String.equal s "-" then Some [] else
  Some (String.split_on_char sep s)

let parse_pair s =
  match String.split_on_char '~' s with
  | [ a; b ] -> (
      match (Hex.decode a, Hex.decode b) with
      | Some a, Some b -> Some (a, b)
      | _ -> None)
  | _ -> None

let rec map_opt f = function
  | [] -> Some []
  | x :: rest -> (
      match f x with
      | None -> None
      | Some y -> (
          match map_opt f rest with None -> None | Some ys -> Some (y :: ys)))

let parse_pairs s = Option.bind (split_nonempty ',' s) (map_opt parse_pair)

let parse_dep s =
  match String.split_on_char '~' s with
  | [ o; k; seen; fin ] -> (
      match (Hex.decode o, Hex.decode k, int_of_string_opt seen, fin) with
      | Some o, Some k, Some seen, ("0" | "1") ->
          Some (o, k, seen, String.equal fin "1")
      | _ -> None)
  | _ -> None

let parse_entry s =
  match String.split_on_char ':' s with
  | [ key; size; deps ] -> (
      match (Hex.decode key, int_of_string_opt size) with
      | Some key, Some size -> (
          match Option.bind (split_nonempty '|' deps) (map_opt parse_dep) with
          | Some ds -> Some (key, size, ds)
          | None -> None)
      | _ -> None)
  | _ -> None

let parse_entries s = Option.bind (split_nonempty ';' s) (map_opt parse_entry)

let parse_bool = function "0" -> Some false | "1" -> Some true | _ -> None

let parse_tabling v =
  match String.split_on_char ' ' v with
  | [ "query"; path ] ->
      Option.map (fun path -> Hquery { path }) (parse_pairs path)
  | [ "answer"; fin; count ] -> (
      match (parse_bool fin, int_of_string_opt count) with
      | Some final, Some count -> Some (Hanswer { final; count })
      | _ -> None)
  | [ "probe"; leader; epoch; members ] -> (
      match (parse_pair leader, int_of_string_opt epoch, parse_pairs members)
      with
      | Some leader, Some epoch, Some members ->
          Some (Hprobe { leader; epoch; members })
      | _ -> None)
  | [ "stat"; leader; epoch; entries ] -> (
      match
        (parse_pair leader, int_of_string_opt epoch, parse_entries entries)
      with
      | Some leader, Some epoch, Some entries ->
          Some (Hstat { leader; epoch; entries })
      | _ -> None)
  | [ "complete"; leader; epoch; members ] -> (
      match (parse_pair leader, int_of_string_opt epoch, parse_pairs members)
      with
      | Some leader, Some epoch, Some members ->
          Some (Hcomplete { leader; epoch; members })
      | _ -> None)
  | _ -> None

let decode text =
  let lines = String.split_on_char '\n' text in
  (* A trailing LF leaves one empty trailer; anything else is garbage. *)
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  match lines with
  | first :: from_l :: to_l :: sent_l :: deliver_l :: kind_l :: bytes_l :: rest
    ->
      let* h_id, h_seq, h_attempt =
        let parts = String.split_on_char ' ' first in
        match parts with
        | [ m; a; b; c ] when String.equal m magic -> (
            match
              (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c)
            with
            | Some id, Some seq, Some attempt -> Ok (id, seq, attempt)
            | _ -> fail 1 "bad id/seq/attempt")
        | m :: _ when not (String.equal m magic) ->
            fail 1 (Printf.sprintf "bad magic %S" m)
        | _ -> fail 1 "malformed frame line"
      in
      let* h_from = name_field ~line:2 ~key:"from" from_l in
      let* h_target = name_field ~line:3 ~key:"to" to_l in
      let* h_sent_at = int_field ~line:4 ~key:"sent" sent_l in
      let* h_deliver_at = int_field ~line:5 ~key:"deliver" deliver_l in
      let* h_kind = field ~line:6 ~key:"kind" kind_l in
      let* h_bytes = int_field ~line:7 ~key:"bytes" bytes_l in
      let* h_incarnation, rest, next =
        match rest with
        | l :: more
          when String.length l >= 5 && String.equal (String.sub l 0 5) "inc: "
          -> (
            let* v = int_field ~line:8 ~key:"inc" l in
            if v < 0 then fail 8 "inc: must be >= 0" else Ok (v, more, 9))
        | _ -> Ok (0, rest, 8)
      in
      let* h_tabling, rest, next =
        match rest with
        | l :: more
          when String.length l >= 9 && String.equal (String.sub l 0 9) "tabling: "
          -> (
            let* v = field ~line:next ~key:"tabling" l in
            match parse_tabling v with
            | Some tb -> Ok (Some tb, more, next + 1)
            | None -> fail next (Printf.sprintf "bad tabling line %S" v))
        | _ -> Ok (None, rest, next)
      in
      let* h_trace =
        match rest with
        | [] -> Ok None
        | [ tp ] -> (
            let* v = field ~line:next ~key:"traceparent" tp in
            match Trace_context.of_header v with
            | Some ctx -> Ok (Some ctx)
            | None -> fail next (Printf.sprintf "bad traceparent %S" v))
        | _ -> fail (next + 1) "trailing garbage after header"
      in
      Ok
        {
          h_id;
          h_seq;
          h_attempt;
          h_from;
          h_target;
          h_sent_at;
          h_deliver_at;
          h_kind;
          h_bytes;
          h_incarnation;
          h_tabling;
          h_trace;
        }
  (* The offending line is the first missing one — keeps lines 1-based
     even for the empty string. *)
  | _ -> fail (List.length lines + 1) "truncated header"

(* A stream of frames: split at magic-line boundaries, decode each
   group, and report errors with absolute (stream-wide) line numbers.
   Blank lines between frames are tolerated; any other stray text is an
   error at its own line. *)
let decode_many text =
  let lines = String.split_on_char '\n' text in
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let is_magic l =
    let lm = String.length magic in
    String.length l > lm
    && String.equal (String.sub l 0 lm) magic
    && Char.equal l.[lm] ' '
  in
  let decode_group ~start group =
    (* [group] is reversed, so blank lines preceding the next frame sit
       at its head; dropping them here is what makes the documented
       between-frame blank tolerance hold. *)
    let rec drop_blanks = function
      | l :: rest when String.equal (String.trim l) "" -> drop_blanks rest
      | g -> g
    in
    let group = drop_blanks group in
    match decode (String.concat "\n" (List.rev group) ^ "\n") with
    | Ok h -> Ok h
    | Error (Malformed { line; reason }) ->
        fail (start + line - 1) reason
  in
  (* [group] holds the current frame's lines in reverse; [start] its
     1-based first line in the stream. *)
  let rec go acc group start lineno = function
    | [] ->
        if group = [] then Ok (List.rev acc)
        else
          let* h = decode_group ~start group in
          Ok (List.rev (h :: acc))
    | l :: rest when is_magic l ->
        if group = [] then go acc [ l ] lineno (lineno + 1) rest
        else
          let* h = decode_group ~start group in
          go (h :: acc) [ l ] lineno (lineno + 1) rest
    | l :: rest when group = [] ->
        if String.equal (String.trim l) "" then
          go acc [] start (lineno + 1) rest
        else fail lineno "expected frame start"
    | l :: rest -> go acc (l :: group) start (lineno + 1) rest
  in
  go [] [] 1 1 lines
