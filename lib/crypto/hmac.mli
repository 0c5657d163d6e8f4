(** HMAC-SHA256 (RFC 2104). *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag of [msg] under [key]. *)

val verify : key:string -> string -> tag:string -> bool
(** Constant-shape comparison of the expected tag with [tag]. *)

type prepared
(** A key with its ipad/opad blocks pre-compressed: one SHA-256 block per
    direction paid at {!prepare} instead of on every MAC. *)

val prepare : key:string -> prepared

val mac_prepared : prepared -> suffix:int -> string -> string
(** [mac_prepared p ~suffix msg] is [mac ~key msg] for the key given to
    {!prepare} when [suffix = 0], and [mac ~key (msg ^ be32 suffix)] when
    [0 < suffix <= 0xffffffff] — a domain-separation word appended without
    building the concatenation.  Allocates only the tag.  The batch
    authenticator equivalence suite pins both forms. *)

val verify_prepared : prepared -> suffix:int -> string -> tag:string -> bool
(** Constant-shape comparison, like {!verify}, of [tag] with
    [mac_prepared p ~suffix msg].  Allocates nothing. *)
