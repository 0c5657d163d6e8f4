(** SHA-256 (FIPS 180-4), implemented from the specification.

    Used for message digests, Merkle partition trees and as the PRF inside
    {!Hmac}.  The implementation is pure OCaml and processes input
    incrementally, so large abstract objects can be hashed without copies.
    Hashing allocates nothing but the 32-byte result.

    The module keeps module-level scratch state: the message schedule every
    compression uses and the context behind the one-shot functions and
    {!resume}.  It is therefore single-domain, and not reentrant across
    {!resume}: a context it returns is valid only until the next call of
    {!digest}, {!digest_list}, {!hex} or {!resume}.  Contexts from {!init}
    are independent of each other and of the scratch. *)

type ctx

val init : unit -> ctx

val update : ctx -> string -> unit

val update_bytes : ctx -> bytes -> pos:int -> len:int -> unit

val finalize : ctx -> string
(** 32-byte binary digest. The context must not be reused afterwards. *)

val finalize_into : ctx -> bytes -> unit
(** [finalize_into ctx out] writes the 32-byte digest to the first 32
    bytes of [out] instead of allocating it.  Same contract as
    {!finalize}. *)

val digest : string -> string
(** One-shot hash: 32-byte binary digest of the input. *)

val digest_list : string list -> string
(** Hash of the concatenation of the inputs, without materialising it. *)

val hex : string -> string
(** [hex s] is the conventional lowercase hex rendering of [digest s]. *)

(** {1 Midstates}

    A fixed 64-byte prefix (an HMAC key pad block) can be compressed once
    and every message hashed under it resumes from the saved chaining
    state: one compression saved per use, and no context copied. *)

type midstate

val block_midstate : string -> midstate
(** The chaining state after hashing exactly the given 64-byte block. *)

val resume : midstate -> ctx
(** The shared scratch context, reset to the state of [init ()] fed the
    block the midstate was made from.  Valid until the next one-shot call
    or [resume] (see above). *)
