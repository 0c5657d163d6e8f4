(** The replica's client table: per client, the last executed request with
    its reply, the request still waiting to execute, and (at the primary)
    the slot it was last assigned.

    A client's record is read directly but written only through this
    interface, which keeps two invariants: the count of clients with a
    pending request is exact, so "is any client waiting?" costs no scan;
    and a pending request is always newer than the client's last executed
    one.  The primary's queue holds each request once: a queued request
    holds its client's assignment with seqno 0, which no slot has. *)

type client = private {
  mutable last_ts : int64;  (** timestamp of the last executed request; -1 before any *)
  mutable last_reply : Message.reply option;  (** its reply; [None] for internal clients *)
  mutable pending : Message.request option;  (** received but not yet executed *)
  mutable pending_env : Message.envelope option;
      (** the client's own envelope of [pending], which a backup relays to
          the primary; [None] when [pending] came in a pre-prepare *)
  mutable pending_since : int64;
      (** local arrival time of [pending], closed when its pre-prepare is
          seen ({!stop_wait}); -1 when there is no wait to time *)
  mutable assigned_ts : int64;  (** primary: highest timestamp given a seqno *)
  mutable assigned_seq : Types.seqno;  (** primary: the seqno it was given; 0 while queued *)
}

type t

type row = int * int64 * string
(** A checkpoint row: [(client, timestamp, result)] of the last reply. *)

val create : unit -> t
(** An empty table. *)

val find : t -> int -> client
(** The client's record, created empty on first use. *)

val any_pending : t -> bool
(** Whether any client has a pending request. *)

val mark_pending :
  ?env:Message.envelope -> t -> client -> Message.request -> waiting_since:int64 -> unit
(** Make the request, with the client's envelope [env] if it came in one,
    the client's pending one, unless it has already executed or a request
    at least as new is pending.  [waiting_since] starts its wait for a
    pre-prepare (-1: none). *)

val stop_wait : client -> Message.request -> int64
(** The request got its pre-prepare: close the client's wait, unless a
    newer request is pending, and return when it started (-1 if no wait
    was closed). *)

val assign : client -> Message.request -> Types.seqno -> unit
(** Primary: the request was given this seqno. *)

val enqueue : client -> Message.request -> bool
(** Primary: mark the request as queued; [false] if it already was. *)

val dequeue : client -> Message.request -> Types.seqno -> bool
(** Primary: the request left the queue for slot [seq].  [true], and the
    request is assigned [seq], unless it is stale: executed, or assigned a
    slot since it was queued. *)

val executed : t -> client -> Message.request -> Message.reply option -> unit
(** The request executed with this reply: it becomes the client's last one,
    and a pending request no newer than it is done. *)

val pending_clients : t -> client list
(** The clients with a pending request, in client order. *)

val rows : t -> row list
(** The last-reply table, sorted by client. *)

val checkpoint_digest : app_digest:Base_crypto.Digest_t.t -> row list -> Base_crypto.Digest_t.t
(** The combined digest a CHECKPOINT binds: the application state's digest
    together with the digest of the rows. *)

val install : t -> view:Types.view -> replica:int -> row list -> unit
(** Replace the whole table with transferred rows, as replica [replica]'s
    replies in [view].  Nothing is pending afterwards. *)
