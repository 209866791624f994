(** The simulated PKI: key pairs for peers and authorities, a
    certificate-revocation set, and a memo of verified signatures.

    One keystore value models the world's key infrastructure in a
    simulation run.  Keys are generated deterministically from the store's
    seed, on demand, so scenarios are reproducible. *)

type t

val create : ?bits:int -> seed:int64 -> unit -> t
(** [bits] is the RSA modulus size used for generated keys. *)

val keypair : t -> string -> Rsa.keypair
(** The key pair of the named principal, generated on first use.  A pair
    is a pure function of the modulus size and the principal's seed
    (derived from the store's seed and the name), so keystores share
    one process-wide table of generated pairs under that key. *)

val public : t -> string -> Rsa.public
(** Public key of the named principal (generates the pair if needed). *)

val known : t -> string -> bool
(** Has a key already been generated for this principal? *)

val revoke : t -> serial:int -> unit
(** Add a certificate serial number to the revocation set. *)

val is_revoked : t -> serial:int -> bool

val fresh_serial : t -> int
(** Monotonically increasing certificate serial numbers. *)

val principals : t -> string list
(** Principals with generated keys, in generation order. *)

(** {2 Signature memo}

    The signatures {!Cert.verify} has checked with RSA, keyed by signed
    payload and signer.  Only signatures that verified are stored, so a
    forgery never enters.  A principal's key pair is never replaced once
    generated, so within one keystore the signer name fixes the public key
    an entry was checked against; the memo is scoped to its keystore (one
    world) and is never shared across keystores. *)

val verified : t -> payload:string -> signer:string -> Bignum.t option
(** The signature of [signer] over [payload] that verified, if any. *)

val remember_verified :
  t -> payload:string -> signer:string -> Bignum.t -> unit
(** Record a signature that {!Rsa.verify} accepted. *)

val verified_count : t -> int
(** Number of memoised (payload, signer) pairs. *)
