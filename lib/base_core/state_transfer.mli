(** Hierarchical state transfer between replicas (Section 2.2).

    A replica that is out of date (because it missed messages that were
    garbage-collected, or because it just went through proactive recovery)
    brings itself to a {e certified} checkpoint [(seq, digest)] — one vouched
    for by f+1 distinct replicas, hence by at least one correct one.

    The fetch is self-verifying from the root down, so each piece can be
    accepted from a single (possibly faulty) replica:

    + [Fetch_head] obtains the partition-tree root and the last-reply table;
      they verify against the certified checkpoint digest.
    + [Fetch_meta] walks down the partition tree, descending only into
      partitions whose digest differs from the local state; every reply
      verifies against the already-certified parent digest.
    + [Fetch_obj] retrieves only the objects that are out of date or
      corrupt, in ranges of at most {!params.chunk_bytes} bytes; each
      assembled object verifies against its certified leaf digest.

    The fetcher is a {e windowed, load-spread pipeline}: up to
    {!params.window} meta/object requests are in flight at once, striped
    across all peer replicas by a per-source scoreboard (outstanding count,
    reject/timeout strikes, capped quarantine backoff) so recovery time
    scales with the group's aggregate bandwidth, not with round trips to a
    single source.  Before fetching a leaf it consults {!Objrepo.cache_find},
    so values this replica has already seen (old checkpoint values saved by
    copy-on-write, previously fetched objects) install without a round trip.

    When everything needed has arrived, the whole batch is installed with a
    single [put_objs] call — the library's guarantee that the inverse
    abstraction function always sees a consistent abstract state.

    [doc/state_transfer.md] documents the wire protocol, the verification
    argument and the pipeline design with a worked trace. *)

module Digest = Base_crypto.Digest_t

(** Wire messages.  [Fetch_obj] asks for at most [max_bytes] of object
    [index] starting at byte [off]; [Obj_reply] carries the range plus the
    object's [total] length so the fetcher can schedule the remaining
    chunks across other sources. *)
type msg =
  | Fetch_head of { seq : int }
  | Head_reply of {
      seq : int;
      app_root : Digest.t;
      client_rows : (int * int64 * string) list;
    }
  | Fetch_meta of { seq : int; level : int; index : int }
  | Meta_reply of { seq : int; level : int; index : int; children : Digest.t array }
  | Fetch_obj of { seq : int; index : int; off : int; max_bytes : int }
  | Obj_reply of { seq : int; index : int; off : int; total : int; data : string }

val size : msg -> int
(** Wire-size estimate for the simulator. *)

val kind_label : msg -> string
(** Constant constructor tag (["FETCH-OBJ"]), allocation-free; the
    simulator's per-type traffic census keys on this. *)

val label : msg -> string
(** Short human-readable tag (["FETCH-OBJ(n=8,i=3,o=4096)"]) used by
    traces. *)

val combined_digest :
  app_root:Digest.t -> client_rows:(int * int64 * string) list -> Digest.t
(** The checkpoint digest bound by CHECKPOINT messages for a given
    partition-tree root and last-reply table (used by tests and by the
    benchmark harness to fabricate fetch targets). *)

(** {1 Server side} *)

val serve : Objrepo.t -> msg -> msg option
(** Answer a fetch request from the local checkpoint store; [None] if we do
    not hold the requested checkpoint, the requested object range is out of
    bounds, or the message is not a request. *)

(** {1 Fetcher side} *)

(** Pipeline tuning.  All limits are per-fetch. *)
type params = {
  window : int;  (** max meta/object requests in flight at once *)
  chunk_bytes : int;  (** max object bytes per [Obj_reply]; larger objects
                          are fetched as ranges striped across sources *)
  strike_limit : int;  (** rejects/timeouts before a source is quarantined *)
  max_backoff_rounds : int;
      (** quarantine cap, in retry rounds; actual backoff doubles with each
          quarantine of the same source up to this cap *)
  max_obj_bytes : int;
      (** sanity cap on an [Obj_reply.total] claim — a Byzantine server
          cannot make the fetcher allocate unbounded reassembly buffers *)
}

val default_params : params
(** [window = 8], [chunk_bytes = 4096], [strike_limit = 3],
    [max_backoff_rounds = 8], [max_obj_bytes = 16 MiB].  The runtime
    overrides [window] and [chunk_bytes] from
    {!Base_bft.Types.config.st_window} / [st_chunk_bytes]. *)

(** Per-source scoreboard entry, exposed for observability (the runtime
    exports per-source byte counters from these). *)
type source = {
  src_id : int;  (** replica id of the peer *)
  mutable out : int;  (** requests currently assigned to this source *)
  mutable sent : int;  (** total requests sent to this source *)
  mutable bytes : int;  (** verified payload bytes received from it *)
  mutable strikes : int;  (** rejects/timeouts since the last quarantine
                              (verified replies decay one strike each) *)
  mutable quarantine : int;  (** retry rounds of quarantine remaining; 0 =
                                 eligible for new assignments *)
  mutable quarantines : int;  (** times this source has been quarantined *)
}

(** Cumulative fetch statistics (also aggregated system-wide by the
    runtime as [Runtime.st_totals]). *)
type stats = {
  mutable meta_fetched : int;
  mutable objects_fetched : int;
  mutable bytes_fetched : int;  (** verified object payload bytes *)
  mutable chunks_fetched : int;
      (** accepted ranged replies for multi-chunk objects (single-reply
          objects do not count) *)
  mutable cache_hits : int;
      (** leaves satisfied from {!Objrepo}'s digest-keyed cache without a
          network fetch *)
  mutable retries : int;  (** {!retry} rounds driven by the runtime timer *)
  mutable quarantines : int;  (** sources quarantined (sum over sources) *)
  mutable heads_rejected : int;
      (** replies whose payload failed digest verification against the
          certified target — the signature of a Byzantine or stale
          responder *)
  mutable meta_rejected : int;
  mutable objects_rejected : int;
}

val compare_obj : int * string -> int * string -> int
(** Order in which fetched objects are handed to [put_objs]: ascending
    object index.  Part of the module's determinism contract (the install
    batch must not depend on hash-table iteration order). *)

val zero_stats : unit -> stats
(** A fresh all-zero counter record. *)

val rejected : stats -> int
(** Total verification failures across heads, meta nodes and objects.  A
    fetch accumulating rejections is talking to faulty responders; the
    runtime uses this to re-target instead of retrying blindly. *)

val add_delta : into:stats -> before:stats -> stats -> unit
(** [add_delta ~into ~before after] adds [after - before], field by field,
    to [into] without allocating; with [into == before] it overwrites
    [before] with a copy of [after]. *)

type t

val start :
  ?params:params ->
  ?trace:(string -> unit) ->
  repo:Objrepo.t ->
  sources:int list ->
  target_seq:int ->
  target_digest:Digest.t ->
  send:(dst:int -> msg -> unit) ->
  on_complete:
    (seq:int -> app_root:Digest.t -> client_rows:(int * int64 * string) list -> unit) ->
  unit ->
  t
(** Begin fetching.  [sources] are the peer replica ids to stripe requests
    over (must be non-empty; duplicates are dropped).  [send] transmits one
    request to one peer; [on_complete] fires once after the batch has been
    installed in the repo.  [target_digest] is the combined checkpoint
    digest certified by f+1 CHECKPOINT messages.  [trace] receives one-line
    diagnostic events (quarantines, rejected assemblies, timeout
    re-stripes); the runtime routes it into the shared structured trace
    sink — nothing here writes to stderr. *)

val handle_reply : t -> from:int -> msg -> unit
(** Feed a state-transfer reply to the fetcher (requests are ignored).
    [from] is the replica the reply arrived from: verified payloads credit
    its scoreboard entry, verification failures count a strike against
    it. *)

val retry : t -> unit
(** One watchdog round, driven by a runtime timer: decrement quarantines,
    re-broadcast the head request if still unanswered, count a timeout
    strike against every source holding a request older than one full
    round, and re-stripe those requests over the other sources. *)

val finished : t -> bool

val stats : t -> stats

val inflight : t -> int
(** Meta/object requests currently in flight (always [<= params.window]). *)

val scoreboard : t -> source array
(** Per-source scoreboard, sorted by replica id.  The array is live: the
    fetcher keeps mutating it. *)
