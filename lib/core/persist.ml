module Crypto = Peertrust_crypto
module Hex = Peertrust_obs.Hex

type error = Bad_world of string

(* Crash-atomic: a reader never observes a half-written file.  The
   contents land in a sibling temp file first; the final [Sys.rename]
   is atomic on POSIX, so a crash between the two leaves either the old
   file or the complete new one, plus at worst an orphan [.tmp]. *)
let write_file path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc contents;
      flush oc);
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let magic = "peertrust-world 1"

let save session ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let peers =
    Hashtbl.fold (fun name peer acc -> (name, peer) :: acc)
      session.Session.peers []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let meta = Buffer.create 256 in
  Buffer.add_string meta magic;
  Buffer.add_char meta '\n';
  List.iteri
    (fun i (name, (peer : Peer.t)) ->
      Buffer.add_string meta
        (Printf.sprintf "peer: %d %s\n" i (Hex.encode name));
      write_file
        (Filename.concat dir (Printf.sprintf "peer%d.pt" i))
        (Peertrust_dlp.Program.to_string (Peertrust_dlp.Kb.rules peer.Peer.kb));
      let certs = Hashtbl.fold (fun _ c acc -> c :: acc) peer.Peer.certs [] in
      write_file
        (Filename.concat dir (Printf.sprintf "peer%d.wallet" i))
        (Crypto.Wire.encode_many certs))
    peers;
  write_file (Filename.concat dir "world.meta") (Buffer.contents meta)

(* Loading must survive a corrupt world directory: a truncated meta
   file, garbage rule or wallet files, unreadable entries — every
   failure is a structured [Bad_world] naming the file and (where a
   parser is involved) the offending line, never an exception. *)
let load ?config ?seed ~dir () =
  let meta_path = Filename.concat dir "world.meta" in
  if not (Sys.file_exists meta_path) then
    Error (Bad_world "missing world.meta")
  else begin
    match read_file meta_path with
    | exception Sys_error m -> Error (Bad_world m)
    | exception End_of_file ->
        Error (Bad_world "world.meta: truncated file")
    | meta_contents -> (
    match String.split_on_char '\n' meta_contents with
    | first :: rest when String.equal (String.trim first) magic -> (
        let parse_line lineno line =
          let line = String.trim line in
          let err msg =
            Error (Bad_world (Printf.sprintf "world.meta line %d: %s" lineno msg))
          in
          if line = "" then Ok None
          else if String.length line > 6 && String.sub line 0 6 = "peer: " then begin
            let payload = String.sub line 6 (String.length line - 6) in
            match String.index_opt payload ' ' with
            | None -> err ("bad index line: " ^ line)
            | Some i -> (
                let idx = String.sub payload 0 i in
                let name_hex =
                  String.sub payload (i + 1) (String.length payload - i - 1)
                in
                match (int_of_string_opt idx, Hex.decode name_hex) with
                | Some idx, Some name -> Ok (Some (idx, name))
                | _, _ -> err ("bad index line: " ^ line))
          end
          else err ("unrecognised line: " ^ line)
        in
        let rec collect acc lineno = function
          | [] -> Ok (List.rev acc)
          | line :: rest -> (
              match parse_line lineno line with
              | Ok None -> collect acc (lineno + 1) rest
              | Ok (Some entry) -> collect (entry :: acc) (lineno + 1) rest
              | Error e -> Error e)
        in
        (* The magic header is line 1; entries start on line 2. *)
        match collect [] 2 rest with
        | Error e -> Error e
        | Ok entries -> (
            let session = Session.create ?config ?seed () in
            let load_peer (idx, name) =
              let program_path =
                Filename.concat dir (Printf.sprintf "peer%d.pt" idx)
              in
              if not (Sys.file_exists program_path) then
                Error (Bad_world (Printf.sprintf "missing peer%d.pt" idx))
              else begin
                match
                  Session.add_peer session ~program:(read_file program_path)
                    name
                with
                | exception Sys_error m -> Error (Bad_world m)
                | exception Peertrust_dlp.Parser.Error (m, l, _) ->
                    Error
                      (Bad_world
                         (Printf.sprintf "peer%d.pt line %d: %s" idx l m))
                | peer -> (
                    let wallet_path =
                      Filename.concat dir (Printf.sprintf "peer%d.wallet" idx)
                    in
                    if not (Sys.file_exists wallet_path) then Ok ()
                    else
                      match Crypto.Wire.decode_many (read_file wallet_path) with
                      | exception Sys_error m -> Error (Bad_world m)
                      | Ok certs ->
                          List.iter
                            (fun c -> ignore (Peer.add_cert peer c))
                            certs;
                          Ok ()
                      | Error (Crypto.Wire.Malformed m) ->
                          Error
                            (Bad_world
                               (Printf.sprintf "peer%d.wallet: %s" idx m)))
              end
            in
            let rec load_all = function
              | [] -> Ok ()
              | entry :: rest -> (
                  match load_peer entry with
                  | Ok () -> load_all rest
                  | Error e -> Error e)
            in
            match load_all entries with
            | Error e -> Error e
            | Ok () ->
                Engine.attach_all session;
                Ok session))
    | _ -> Error (Bad_world "world.meta line 1: bad magic line"))
  end

let pp_error fmt (Bad_world msg) = Format.fprintf fmt "bad world: %s" msg

module Journal = struct
  module Dlp = Peertrust_dlp

  type entry =
    | Cert of Crypto.Cert.t
    | Fact of Dlp.Rule.t
    | Answer of {
        owner : string;
        goal : Dlp.Literal.t;
        instances : Dlp.Literal.t list;
      }
    | Goal of { id : int; target : string; goal : Dlp.Literal.t }
    | Done of { id : int }

  (* A memory sink keeps the typed entries beside the bytes (newest
     first), so reading it back never re-parses. *)
  type sink = Disk of string | Memory of Buffer.t * entry list ref

  type t = {
    sink : sink;
    mutable appends : int;
    mutable settled : int;  (* Done entries in the journal *)
  }

  let count_done =
    List.fold_left (fun n -> function Done _ -> n + 1 | _ -> n) 0

  let in_memory () =
    { sink = Memory (Buffer.create 256, ref []); appends = 0; settled = 0 }

  let appends t = t.appends
  let settled t = t.settled

  (* One line per entry; every free-form field (peer names, literal
     text) is hex-armoured so newlines and spaces in the payload cannot
     break the line discipline the torn-tail recovery depends on. *)
  let line_of_entry = function
    | Cert c -> "cert " ^ Hex.encode (Crypto.Wire.encode c)
    | Fact r -> "fact " ^ Hex.encode (Dlp.Rule.to_string r)
    | Answer { owner; goal; instances } ->
        Printf.sprintf "answer %s %s %s" (Hex.encode owner)
          (Hex.encode (Dlp.Literal.to_string goal))
          (match instances with
          | [] -> "-"
          | is ->
              String.concat ","
                (List.map
                   (fun i -> Hex.encode (Dlp.Literal.to_string i))
                   is))
    | Goal { id; target; goal } ->
        Printf.sprintf "goal %d %s %s" id (Hex.encode target)
          (Hex.encode (Dlp.Literal.to_string goal))
    | Done { id } -> Printf.sprintf "done %d" id

  let literal_of_hex h =
    match Hex.decode h with
    | None -> Error "bad hex"
    | Some s -> (
        match Dlp.Parser.parse_literal s with
        | lit -> Ok lit
        | exception Dlp.Parser.Error (m, _, _) -> Error m
        | exception _ -> Error "unparseable literal")

  let parse_line line =
    let ( let* ) = Result.bind in
    match String.split_on_char ' ' line with
    | [ "cert"; hex ] -> (
        match Hex.decode hex with
        | None -> Error "cert: bad hex"
        | Some blob -> (
            match Crypto.Wire.decode blob with
            | Ok c -> Ok (Cert c)
            | Error (Crypto.Wire.Malformed m) -> Error ("cert: " ^ m)))
    | [ "fact"; hex ] -> (
        match Hex.decode hex with
        | None -> Error "fact: bad hex"
        | Some text -> (
            match Dlp.Parser.parse_rule text with
            | r -> Ok (Fact r)
            | exception Dlp.Parser.Error (m, _, _) -> Error ("fact: " ^ m)
            | exception _ -> Error "fact: unparseable rule"))
    | [ "answer"; owner_hex; goal_hex; insts ] -> (
        match Hex.decode owner_hex with
        | None -> Error "answer: bad owner hex"
        | Some owner ->
            let* goal =
              Result.map_error (fun m -> "answer: goal: " ^ m)
                (literal_of_hex goal_hex)
            in
            let* instances =
              if String.equal insts "-" then Ok []
              else
                List.fold_right
                  (fun h acc ->
                    let* acc = acc in
                    let* lit =
                      Result.map_error (fun m -> "answer: instance: " ^ m)
                        (literal_of_hex h)
                    in
                    Ok (lit :: acc))
                  (String.split_on_char ',' insts)
                  (Ok [])
            in
            Ok (Answer { owner; goal; instances }))
    | [ "goal"; id; target_hex; goal_hex ] -> (
        match (int_of_string_opt id, Hex.decode target_hex) with
        | Some id, Some target ->
            let* goal =
              Result.map_error (fun m -> "goal: " ^ m)
                (literal_of_hex goal_hex)
            in
            Ok (Goal { id; target; goal })
        | None, _ -> Error "goal: bad id"
        | _, None -> Error "goal: bad target hex")
    | [ "done"; id ] -> (
        match int_of_string_opt id with
        | Some id -> Ok (Done { id })
        | None -> Error "done: bad id")
    | _ -> Error "unrecognised entry"

  (* Total over arbitrary bytes.  The final segment without a trailing
     newline is a torn tail — the write the crash interrupted — and is
     dropped; so is an unparseable {e last} complete line (a flush can
     land the newline before the crash).  Damage earlier in the stream
     is not crash-shaped and comes back as a line-numbered error. *)
  let parse text =
    let complete =
      match List.rev (String.split_on_char '\n' text) with
      | _torn_tail :: rev -> List.rev rev
      | [] -> []
    in
    let rec go acc n = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
          if String.trim line = "" then go acc (n + 1) rest
          else
            match parse_line line with
            | Ok e -> go (e :: acc) (n + 1) rest
            | Error _ when rest = [] -> Ok (List.rev acc)
            | Error m ->
                Error
                  (Bad_world (Printf.sprintf "journal line %d: %s" n m)))
    in
    go [] 1 complete

  (* Resuming a journal an earlier process left behind is the one time
     a disk sink is parsed to learn its settled count. *)
  let on_disk path =
    let settled =
      if not (Sys.file_exists path) then 0
      else
        match parse (read_file path) with
        | Ok es -> count_done es
        | Error _ | (exception Sys_error _) -> 0
    in
    { sink = Disk path; appends = 0; settled }

  let for_peer ~dir ~peer =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    on_disk (Filename.concat dir (Hex.encode peer ^ ".journal"))

  let append t entry =
    let line = line_of_entry entry ^ "\n" in
    (match t.sink with
    | Memory (b, typed) ->
        Buffer.add_string b line;
        typed := entry :: !typed
    | Disk path ->
        let oc =
          open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
        in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc line;
            flush oc));
    (match entry with Done _ -> t.settled <- t.settled + 1 | _ -> ());
    t.appends <- t.appends + 1

  let contents t =
    match t.sink with
    | Memory (b, _) -> Buffer.contents b
    | Disk path -> if Sys.file_exists path then read_file path else ""

  let entries t =
    match t.sink with
    | Memory (_, typed) -> Ok (List.rev !typed)
    | Disk _ -> parse (contents t)

  let write_lines t entries lines =
    (match t.sink with
    | Memory (b, typed) ->
        Buffer.clear b;
        List.iter (Buffer.add_string b) lines;
        typed := List.rev entries
    | Disk path -> write_file path (String.concat "" lines));
    t.settled <- count_done entries

  let rewrite t entries =
    write_lines t entries (List.map (fun e -> line_of_entry e ^ "\n") entries)

  let reset t = rewrite t []

  (* Drop the Goal/Done pairs of settled roots and every repeated entry
     (first occurrence kept).  Entries are deduplicated by their line:
     printing is canonical, so equal lines are equal entries. *)
  let compact ~after t =
    if t.settled < after then None
    else
      match entries t with
      | Error _ -> None
      | Ok es ->
          let finished = Hashtbl.create 16 in
          List.iter
            (function Done { id } -> Hashtbl.replace finished id () | _ -> ())
            es;
          (* A disk file may hold fewer intact Done lines than were
             appended (a torn tail): decide on what parses. *)
          let settled = count_done es in
          if settled < after then begin
            t.settled <- settled;
            None
          end
          else
            let live =
              List.filter
                (function
                  | Done { id } | Goal { id; _ } ->
                      not (Hashtbl.mem finished id)
                  | Cert _ | Fact _ | Answer _ -> true)
                es
            in
            let seen = Hashtbl.create 64 in
            let kept =
              List.filter_map
                (fun e ->
                  let line = line_of_entry e ^ "\n" in
                  if Hashtbl.mem seen line then None
                  else begin
                    Hashtbl.add seen line ();
                    Some (e, line)
                  end)
                live
            in
            write_lines t (List.map fst kept) (List.map snd kept);
            Some (List.length live)

  let replay_peer peer entries =
    List.iter
      (function
        | Cert c -> ignore (Peer.add_cert peer c)
        | Fact r -> ignore (Peer.add_rule peer r)
        | Answer _ | Goal _ | Done _ -> ())
      entries
end
