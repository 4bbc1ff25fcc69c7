(** Certified credentials (Section III-A of the paper).

    A credential carries attribute facts about its subject (e.g.
    [role(bob, sales_rep)]), is issued by a certificate authority or — for
    access credentials acting as capabilities — by a cloud server, and is
    valid in an interval [[alpha, omega)].  Signatures are simulated as a
    digest over the payload keyed by the issuer's name: enough to detect
    tampering in tests while exercising the same validation code path a real
    PKI would.

    Syntactic validity (paper, Section III-A, following Lee & Winslett):
    well-formed, correctly signed, [alpha] has passed and [omega] has not.
    Semantic validity — "not revoked between issue and use" — needs the
    issuer's online status service and lives in {!Ca.semantically_valid}. *)

type id = string

type kind =
  | Attribute  (** CA-issued statement of the subject's attributes. *)
  | Access of { action : string; item : string }
      (** Server-issued capability: the bearer passed a proof of
          authorization for [action] on [item] (like Bob's read credential
          in the paper's Figure 1). *)

(** What {!signature_valid} found, once it has looked. *)
type check = Unchecked | Signed | Forged

type t = private {
  id : id;
  subject : string;
  issuer : string;
  kind : kind;
  facts : Rule.fact list;  (** Attribute claims contributed to proofs. *)
  issued_at : float;  (** alpha(c) *)
  expires_at : float;  (** omega(c) *)
  signature : string;
  mutable check : check;
      (** {!signature_valid}'s verdict, filled in at the credential's
          first check and kept for the later ones: the other fields never
          change.  Every constructor starts [Unchecked], {!forge} and
          {!of_wire} included.  A cache, not content: structural equality
          sees it, so compare credentials by their other fields. *)
}

(** [make ~id ~subject ~issuer ~kind ~facts ~issued_at ~expires_at] builds
    and signs a credential.  Raises [Invalid_argument] if
    [expires_at <= issued_at] or any fact is non-ground. *)
val make :
  id:id ->
  subject:string ->
  issuer:string ->
  kind:kind ->
  facts:Rule.fact list ->
  issued_at:float ->
  expires_at:float ->
  t

(** A copy with a corrupted signature, for negative tests. *)
val forge : t -> facts:Rule.fact list -> t

(** [of_wire] reconstructs a credential received off the wire, keeping the
    transported signature instead of re-signing — verification stays with
    {!signature_valid}, so tampering in transit is still detected.  The
    same interval check as [make] applies. *)
val of_wire :
  id:id ->
  subject:string ->
  issuer:string ->
  kind:kind ->
  facts:Rule.fact list ->
  issued_at:float ->
  expires_at:float ->
  signature:string ->
  t

(** [signature_valid t] recomputes the issuer-keyed digest of [t]'s
    payload at the first call and compares it with [t]'s signature; later
    calls return the recorded verdict. *)
val signature_valid : t -> bool

type syntactic_failure =
  | Not_yet_valid  (** alpha(c) has not passed. *)
  | Expired  (** omega(c) has passed. *)
  | Bad_signature

(** [syntactically_valid t ~at] per the paper's four conditions. *)
val syntactically_valid : t -> at:float -> (unit, syntactic_failure) result

val pp : Format.formatter -> t -> unit
