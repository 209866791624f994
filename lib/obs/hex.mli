(** Lowercase hexadecimal armour for arbitrary bytes — the one codec the
    journal, the certificate wire format, the tabling wire grammar, the
    digest printer and the bignum printer share.

    Both directions are table-driven: no [Printf] per byte on the way out
    and no [int_of_string] per pair on the way back. *)

val encode : string -> string
(** Two lowercase digits per byte, e.g. [encode "\x0f\xa0" = "0fa0"]. *)

val decode : string -> string option
(** Inverse of {!encode}.  Strict: [None] on odd length or on any
    character outside [0-9a-fA-F] — in particular an OCaml integer
    literal's [_] separator is not a digit, so ["f_"] is rejected.
    Uppercase digits are accepted, so [decode (String.uppercase_ascii
    (encode s)) = Some s]. *)
