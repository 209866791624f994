type t = {
  bits : int;
  seed : int64;
  keys : (string, Rsa.keypair) Hashtbl.t;
  mutable order : string list;  (* reverse generation order *)
  revoked : (int, unit) Hashtbl.t;
  mutable next_serial : int;
  verified : (string * string, Bignum.t) Hashtbl.t;
      (* (signed payload, signer) -> the signature that verified.  Only
         successes enter.  [keys] never replaces a generated pair, so
         within one keystore the signer name fixes the public key an
         entry was checked against. *)
}

let create ?(bits = 384) ~seed () =
  {
    bits;
    seed;
    keys = Hashtbl.create 16;
    order = [];
    revoked = Hashtbl.create 16;
    next_serial = 1;
    verified = Hashtbl.create 64;
  }

(* Generated pairs, shared by every keystore: (bits, principal seed) ->
   pair. *)
let generated : (int * int64, Rsa.keypair) Hashtbl.t = Hashtbl.create 64

let generate ~bits seed =
  match Hashtbl.find_opt generated (bits, seed) with
  | Some kp -> kp
  | None ->
      let kp = Rsa.generate ~bits (Prng.create seed) in
      Hashtbl.add generated (bits, seed) kp;
      kp

let keypair t name =
  match Hashtbl.find_opt t.keys name with
  | Some kp -> kp
  | None ->
      (* Derive an independent generator per principal so that a
         principal's key does not depend on generation order. *)
      let name_seed =
        String.fold_left
          (fun acc c -> Int64.add (Int64.mul acc 131L) (Int64.of_int (Char.code c)))
          t.seed name
      in
      let kp = generate ~bits:t.bits name_seed in
      Hashtbl.add t.keys name kp;
      t.order <- name :: t.order;
      kp

let public t name = (keypair t name).Rsa.public
let known t name = Hashtbl.mem t.keys name
let revoke t ~serial = Hashtbl.replace t.revoked serial ()
let is_revoked t ~serial = Hashtbl.mem t.revoked serial

let fresh_serial t =
  let s = t.next_serial in
  t.next_serial <- s + 1;
  s

let principals t = List.rev t.order

let verified t ~payload ~signer = Hashtbl.find_opt t.verified (payload, signer)

let remember_verified t ~payload ~signer signature =
  Hashtbl.replace t.verified (payload, signer) signature

let verified_count t = Hashtbl.length t.verified
