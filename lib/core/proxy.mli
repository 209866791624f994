(** Negotiation by proxy (§4.2): "handheld devices may not have enough
    power to carry out trust negotiation directly.  In this case, Bob's
    device can forward any queries it receives to another peer that Bob
    trusts, such as his home or office computer."

    The device peer holds no policies or credentials; its handler forwards
    every incoming query to the trusted proxy, which evaluates it against
    the principal's knowledge base and answers on the device's behalf.
    Private keys conceptually stay on the device: the proxy holds the
    principal's certificates (issued once at setup), not its signing
    key. *)

val attach_device :
  Session.t -> device:string -> proxy:string -> Peer.t
(** Create the (empty) device peer and register a forwarding handler for
    it: queries arriving at [device] are re-sent to [proxy] tagged with the
    original requester.  The proxy peer must already exist.  Returns the
    device peer. *)

val forwarded_count : Session.t -> device:string -> proxy:string -> int
(** How many messages [device] has forwarded to [proxy] on this
    session's network. *)
