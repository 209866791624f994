module Obs = Peertrust_obs.Obs
module Metric = Peertrust_obs.Metric

type t = {
  serial : int;
  rule : Peertrust_dlp.Rule.t;
  not_before : int;
  not_after : int;
  signatures : (string * Bignum.t) list;
}

type error =
  | Unsigned_rule
  | Missing_signature of string
  | Bad_signature of string
  | Expired of { now : int }
  | Revoked of int

let payload t =
  Printf.sprintf "%d|%d|%d|%s" t.serial t.not_before t.not_after
    (Peertrust_dlp.Rule.canonical t.rule)

let issue ks ?(not_before = 0) ?(not_after = max_int) rule =
  match rule.Peertrust_dlp.Rule.signer with
  | [] -> Error Unsigned_rule
  | signers ->
      let cert =
        {
          serial = Keystore.fresh_serial ks;
          rule;
          not_before;
          not_after;
          signatures = [];
        }
      in
      let msg = payload cert in
      let signatures =
        List.map (fun s -> (s, Rsa.sign (Keystore.keypair ks s) msg)) signers
      in
      Ok { cert with signatures }

let m_rsa_verifies = Obs.counter "crypto.rsa_verifies"

(* A signature equal to the one the keystore memoised for (payload,
   signer) is valid without RSA: the memo holds only signatures that
   verified, and a signer's key never changes within its keystore.  The
   signatures RSA accepted are memoised only once the whole certificate
   verifies, so a rejected certificate leaves the memo unchanged. *)
let verify ks ?(now = 0) t =
  if Keystore.is_revoked ks ~serial:t.serial then Error (Revoked t.serial)
  else if now < t.not_before || now > t.not_after then Error (Expired { now })
  else begin
    match t.rule.Peertrust_dlp.Rule.signer with
    | [] -> Error Unsigned_rule
    | signers ->
        let payload = payload t in
        let rec check fresh = function
          | [] ->
              List.iter
                (fun (signer, s) ->
                  Keystore.remember_verified ks ~payload ~signer s)
                fresh;
              Ok ()
          | signer :: rest -> (
              match List.assoc_opt signer t.signatures with
              | None -> Error (Missing_signature signer)
              | Some s -> (
                  match Keystore.verified ks ~payload ~signer with
                  | Some s' when Bignum.equal s s' -> check fresh rest
                  | Some _ | None ->
                      Metric.incr m_rsa_verifies;
                      if Rsa.verify (Keystore.public ks signer) payload s then
                        check ((signer, s) :: fresh) rest
                      else Error (Bad_signature signer)))
        in
        check [] signers
  end

let pp_error fmt = function
  | Unsigned_rule -> Format.pp_print_string fmt "rule carries no signedBy annotation"
  | Missing_signature s -> Format.fprintf fmt "no signature from %s" s
  | Bad_signature s -> Format.fprintf fmt "invalid signature from %s" s
  | Expired { now } -> Format.fprintf fmt "certificate not valid at time %d" now
  | Revoked serial -> Format.fprintf fmt "certificate %d is revoked" serial
