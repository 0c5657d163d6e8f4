(** Cross-shard two-phase commit (see [doc/sharding.md]).

    An operation whose declared footprint spans several shards is ordered
    by the lowest one (the coordinator) and blocked on lock requests
    injected into every other involved shard (the participants).  Every
    step is derived from committed sequence numbers, so every correct node
    drives the protocol through the same states without extra messages. *)

type t

val create : Cell.ctx -> Cell.t array array -> t
(** Commit state for every active node over [cells.(shard).(rid)]. *)

val ready :
  t -> rid:int -> shard:int -> client:int -> timestamp:int64 -> operation:string -> bool
(** The {!Base_bft.Replica.app} [ready] gate of a sharded cell: a
    participant parks at its lock, a coordinator waits for every
    participant to park. *)

val execute :
  t ->
  rid:int ->
  shard:int ->
  client:int ->
  timestamp:int64 ->
  operation:string ->
  nondet:string ->
  read_only:bool ->
  string
(** The {!Base_bft.Replica.app} [execute] hook of a sharded cell: a joint
    operation runs on the coordinator with [modify] routed to each owning
    shard's repo, then releases the participants.  A [modify] outside the
    operation's footprint aborts it deterministically. *)

val kick : t -> int -> unit
(** The node's [xkick] timer: re-submit every outstanding lock request. *)

val rearm : t -> int -> unit
(** Re-arm the kick of a rebooted node that still has unfinished
    operations. *)

val footprint : Base_bft.Types.config -> Service.wrapper -> operation:string -> int list
(** The shards [operation]'s declared footprint touches, ascending; the
    first is the one that orders (and coordinates) it. *)

val shard_view : Base_bft.Types.config -> shard:int -> Service.wrapper -> Service.wrapper
(** The wrapper restricted (index-shifted) to one shard's slice of the
    abstract object array; the wrapper itself when unsharded. *)
