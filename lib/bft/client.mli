(** PBFT client: the [invoke] side of the library interface (Figure 1).

    A client sends an authenticated request to the primary (retransmitting to
    all replicas on timeout) and accepts a result once enough replicas sent
    matching replies: f+1 for read-write operations, 2f+1 for the read-only
    optimisation.  A read-only request that cannot gather a 2f+1 quorum is
    retried as a regular request {e under a fresh timestamp}, as in the BFT
    library — reusing the timestamp would let stale tentative replies from
    the abandoned read-only attempt count toward the weaker ordered quorum.

    The simulator is event-driven, so [invoke] takes a completion callback
    rather than blocking; one request is outstanding at a time and further
    invocations queue.  Hosts that need many requests in flight multiplex a
    pool of clients (see {!Base_workload.Load}). *)

type net = {
  send : dst:int -> Message.envelope -> unit;
  set_timer : after_us:int -> tag:string -> payload:int -> int;
  cancel_timer : int -> unit;
  now_us : unit -> int64;
}

type stats = {
  mutable completed : int;
  mutable retransmissions : int;
  mutable read_only_fallbacks : int;
  latency_us : Base_obs.Metrics.histogram;
      (** per completed operation, streaming (O(buckets) memory however many
          requests complete); shared with every other client registered over
          the same [?metrics] registry *)
}

type t

val create :
  ?metrics:Base_obs.Metrics.t ->
  ?profile:Base_obs.Profile.t ->
  ?route:(string -> int) ->
  config:Types.config ->
  id:int ->
  keychain:Base_crypto.Auth.keychain ->
  net:net ->
  unit ->
  t
(** [id] must be [>= config.n] (replica ids come first).  [metrics] is the
    registry the latency histogram registers in ([bft.client.latency_us]);
    clients sharing a registry share the histogram, which is how a large
    client pool keeps one aggregate latency series.  Defaults to a private
    registry.  [profile] attaches hot-path probes ([client.verify],
    [client.seal]); defaults to the shared disabled instance.

    [route] maps an operation to the shard whose agreement instance must
    order it (normally derived from the service's
    {!Base_core.Service.wrapper.oids_of_op} footprint and
    {!Types.shard_of_oid}); requests are tagged and MACed with its answer.
    The default routes everything to shard 0 — correct for unsharded
    systems and byte-identical to the pre-sharding wire format. *)

val id : t -> int

val invoke : t -> ?read_only:bool -> operation:string -> (string -> unit) -> unit
(** [invoke t ~operation k] schedules the operation and calls [k result] when
    the reply quorum arrives. *)

val receive : t -> Message.envelope -> unit
(** Feed a network delivery (replies) to the client.  Only a reply that
    matches the outstanding request (its timestamp, this client, and a
    replica that names itself as the sender) is MAC-checked; anything else
    is dropped unchecked, and a reply that fails its MAC never counts. *)

val on_timer : t -> tag:string -> payload:int -> unit

val outstanding : t -> int
(** Number of queued + in-flight operations (0 when idle). *)

val stats : t -> stats

val quorum_winner : needed:int -> (int, string) Hashtbl.t -> string option
(** Deterministic quorum selection over a replica->result reply table: the
    lexicographically smallest result with [>= needed] votes, or [None].
    Exposed so the selection rule itself can be pinned by tests. *)
