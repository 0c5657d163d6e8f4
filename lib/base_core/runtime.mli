(** The BASE runtime: a complete replicated system inside the simulator.

    [create] builds n = 3f+1 replicas — each running its own conformance
    wrapper, possibly over a {e different} service implementation — plus the
    requested clients, and wires them to the discrete-event network: BFT
    protocol messages, state-transfer messages, timers, MAC keychains, and
    the proactive-recovery watchdog.

    This is the deployment surface a user of the library sees: build a
    system from wrappers, add clients, call {!invoke}. *)

module Digest = Base_crypto.Digest_t

type msg =
  | Bft of Base_bft.Message.envelope
  | St of { from : int; shard : int; body : State_transfer.msg }
      (** [shard] routes the transfer to the per-shard replica cell that
          owns the checkpoint being fetched; always [0] when unsharded *)
  | Raw of { from : int; shard : int; macs : string array; bytes : string }
      (** a protocol message corrupted in flight, delivered as wire bytes;
          replicas feed it to {!Base_bft.Replica.receive_wire}, which counts
          and rejects it *)

exception Stalled of string
(** The simulation could not make the requested progress: the event queue
    went quiescent or the event budget ran out.  Raised by the non-[try_]
    drivers only; never from a message handler. *)

exception Internal_error of string
(** Broken runtime wiring (a node callback ran before construction
    finished).  Unreachable by design. *)

type recovery_stats = {
  mutable recoveries : int;
  mutable last_objects_fetched : int;
  mutable last_bytes_fetched : int;
  mutable total_objects_fetched : int;
  mutable total_bytes_fetched : int;
}

(** One proactive-recovery episode: either reboot-in-place then
    differential fetch, or ([tl_migrated]) a standby promotion then a
    catch-up fetch.  Timestamps are simulation time; [-1L] means the
    milestone was not reached (run ended mid-episode).  Consume durations
    through {!timeline_window_us} / {!timeline_handoff_us} — they are total
    over the sentinels — rather than subtracting raw fields. *)
type recovery_timeline = {
  tl_rid : int;
  tl_migrated : bool;
  tl_start_us : int64;
  mutable tl_reboot_done_us : int64;  (** in-place episodes *)
  mutable tl_promote_done_us : int64;  (** migration episodes *)
  mutable tl_staleness_seqs : int;
      (** migration: certified checkpoint head minus the promoted standby's
          synced seqno at promotion time ([-1] until promotion completes) *)
  mutable tl_staleness_us : int64;
      (** migration: promotion time minus the standby's last completed
          shadow sync *)
  mutable tl_fetch_done_us : int64;
      (** also set, equal to the handoff milestone, when there was nothing
          to fetch *)
  mutable tl_objects : int;
  mutable tl_bytes : int;
}

val timeline_window_us : recovery_timeline -> int option
(** The episode's window of vulnerability: start to fetch-done.  [None] if
    the episode never completed. *)

val timeline_handoff_us : recovery_timeline -> int option
(** Start to the role-switch milestone — reboot-done for in-place episodes,
    promote-done for migrations.  [None] if not reached. *)

(** Shadow-sync state of one warm standby. *)
type standby_sync = {
  mutable ss_synced_seq : int;
      (** seqno of the last fully shadow-synced checkpoint; [-1] before the
          first sync completes (and again right after the machine is wiped
          on demotion) *)
  mutable ss_synced_at_us : int64;
  mutable ss_root : Digest.t;  (** abstract-state root at [ss_synced_seq] *)
  mutable ss_client_rows : (int * int64 * string) list;
  mutable ss_promotions : int;  (** times this pool slot was promoted *)
}

type cell_state
(** A cell's private state-transfer bookkeeping (fetcher, retry counters,
    shard routing). *)

type replica_node = {
  rid : int;
  replica : Base_bft.Replica.t;
  mutable repo : Objrepo.t;
  mutable wrapper : Service.wrapper;
      (** [repo]/[wrapper] are mutable because promotion swaps them between
          the slot node and the standby node — the warm state takes over the
          slot identity, the suspect state is demoted for wiping *)
  standby : standby_sync option;  (** [Some] iff this node is a warm standby *)
  recovery_stats : recovery_stats;
  st : cell_state;
}
(** One replica cell: a physical node hosts one cell per shard, all sharing
    its node id on the network. *)

val msg_size : msg -> int
(** Wire-size estimate, for building a custom engine config. *)

val msg_label : msg -> string

val msg_kind : msg -> string
(** Constant per-constructor tag ("PRE-PREPARE", "FETCH-OBJ", "RAW"):
    the allocation-free accounting key.  Custom engine configs should set
    [Engine.kind_of] to this — the default derives the kind by formatting
    the full label on every send. *)

type t

val create :
  ?engine_config:msg Base_sim.Engine.config ->
  ?profile:Base_obs.Profile.t ->
  config:Base_bft.Types.config ->
  make_wrapper:(int -> Service.wrapper) ->
  n_clients:int ->
  unit ->
  t
(** [make_wrapper i] supplies the conformance wrapper run by replica [i] —
    pass different implementations for opportunistic N-version programming.
    Each replica's partition tree has fan-out 16, its {!Objrepo} leaf cache
    is sized by [config.st_cache_objs], and its state-transfer pipeline by
    [config.st_window] / [config.st_chunk_bytes].

    When [config.shard_bounds] names S > 1 shards, every physical node runs
    S replica cells — one agreement instance per shard, each over an
    index-shifted view of the node's single wrapper — and clients route each
    request by its object footprint ({!Service.wrapper.oids_of_op}).
    Multi-object operations spanning shards commit through the runtime's
    deterministic two-phase protocol (see [doc/sharding.md]).  Sharded
    systems require [config.s = 0] (no warm-standby pool) and every shard to
    own at least one object of [make_wrapper 0]'s space.

    [profile] is shared by every replica, client and the engine (same
    aggregation model as the metrics registry); the default is a fresh
    disabled instance — pass one built with a real clock and
    {!Base_obs.Profile.enable} it to collect per-phase timings. *)

val engine : t -> msg Base_sim.Engine.t

val config : t -> Base_bft.Types.config

val replica : t -> int -> replica_node
(** Shard-0 cell of replica [rid] — the whole node when unsharded. *)

val replicas : t -> replica_node array
(** The shard-0 row of cells (all active nodes when unsharded). *)

val n_shards : t -> int
(** Number of agreement instances; 1 when unsharded. *)

val shard_replica : t -> shard:int -> int -> replica_node
(** The cell of replica [rid] serving [shard]. *)

val standbys : t -> replica_node array
(** The warm pool, indexed [0 .. s-1]; node ids are [n .. n+s-1]. *)

val standby : t -> int -> replica_node
(** Standby by {e node id} (in [n .. n+s-1]). *)

val client : t -> int -> Base_bft.Client.t
(** Client by index [0 .. n_clients-1]. *)

val invoke :
  t -> client:int -> ?read_only:bool -> operation:string -> (string -> unit) -> unit
(** Asynchronous invocation through the client's protocol stack. *)

val invoke_sync : t -> client:int -> ?read_only:bool -> operation:string -> unit -> string
(** Run the simulation until the operation completes and return its result.
    Raises {!Stalled} if the simulation goes quiescent or exceeds its event
    budget first. *)

val try_invoke_sync :
  ?max_events:int ->
  t ->
  client:int ->
  ?read_only:bool ->
  operation:string ->
  unit ->
  (string, string) result
(** Like {!invoke_sync} but a stall is data, not an exception — the form
    chaos experiments use to count liveness losses. *)

val run_until_idle : ?max_events:int -> t -> unit
(** Run until all clients have no outstanding operations.  Raises {!Stalled}
    on a stall. *)

val try_run_until_idle : ?max_events:int -> t -> (unit, string) result

val now : t -> Base_sim.Sim_time.t

val set_behavior : ?shard:int -> t -> int -> Base_bft.Replica.behavior -> unit
(** Fault-injection behaviour of replica [rid]; [?shard] restricts it to one
    agreement instance's cell, the default applies it to every cell the node
    hosts.  Raises [Invalid_argument] if the system has no such replica or
    shard. *)

(** {1 Proactive recovery} *)

val enable_proactive_recovery :
  ?reboot_us:int -> ?promote_us:int -> ?migrate:bool -> period_us:int -> t -> unit
(** Stagger watchdog-driven recoveries so each replica recovers once every
    [period_us], with replicas offset by [period_us / n]; the window of
    vulnerability is roughly [2 * period_us] (a replica may be compromised
    just after its recovery).  [reboot_us] is the simulated reboot time
    (default 2 s).

    With [migrate = true] (and a non-empty standby pool) the watchdog
    recovers by {e migration}: it promotes the freshest warm standby into
    the slot instead of rebooting in place, shrinking the window from
    reboot-plus-fetch to the role-switch handshake [promote_us] (default
    30 ms) plus a small catch-up fetch.  When no standby is promotable the
    watchdog falls back to in-place recovery. *)

val disable_proactive_recovery : t -> unit
(** Stop scheduling further watchdog recoveries (in-flight ones finish). *)

val recover_now : ?reboot_us:int -> t -> int -> unit
(** Force one replica through the in-place recovery procedure immediately. *)

val promote_now : t -> int -> unit
(** Migration recovery of slot [rid] right now: promote the freshest
    promotable standby into it (in-place fallback when none exists).  The
    demoted machine joins the pool under the standby's id with its state
    wiped, and re-syncs at leisure. *)

(** {1 Chaos}

    Scheduled fault injection, driven by a declarative
    {!Base_sim.Faultplan}.  Every fault draws its randomness from the
    engine's seeded PRNG, so a chaos run is as reproducible as a healthy
    one. *)

val apply_faultplan : t -> Base_sim.Faultplan.t -> unit
(** Schedule every event of the plan, with [at_us] offsets measured from
    the moment of this call.  Crash/reboot map to node up/down (plus timer
    re-arming on reboot), partitions and link faults map to the engine's
    scheduled windows, [behavior] maps onto
    {!Base_bft.Replica.set_behavior}, and [attack-preprepare] arms the
    Byzantine-primary adversary: while its window is open, pre-prepares
    sent by the attacked node are muted per-destination with the given
    probability (omission equivocation) and survivors are delayed.  Muted
    and delayed pre-prepares are counted as [adversary.pp_muted] /
    [adversary.pp_delayed]; corrupted deliveries as
    [engine.corrupted_msgs].

    The plan is checked whole before anything is scheduled: an event naming
    a node the system does not have ([crash]/[reboot] beyond the replicas,
    standbys and clients; [promote]/[crash-standby] of a non-standby;
    [behavior]/[attack-preprepare] of a non-replica or a missing shard)
    raises [Invalid_argument] naming that event. *)

val enable_net_trace : t -> unit
(** Mirror the engine's free-form tracer lines into the structured
    {!trace} ring as ["net"] events — one shared sink for both trace
    streams.  Composes with any other tracer registered on the engine. *)

(** {1 Observability}

    Every value below is a pure function of the simulation seed: metrics
    are driven by the virtual clock, traces carry virtual timestamps, and
    all JSON renders with sorted keys — two runs with the same seed export
    byte-identical reports. *)

val profile : t -> Base_obs.Profile.t
(** The shared profiling harness: protocol-phase probes [bft.verify] /
    [bft.seal] / [bft.handle] / [bft.execute], client-side [client.verify] /
    [client.seal], and the engine's [engine.send] / [engine.dispatch].
    Disabled (near-zero overhead) unless the caller enables it. *)

val metrics : t -> Base_obs.Metrics.t
(** The system-wide registry: per-phase replica histograms
    ([bft.phase.*_us], [bft.view_change_us], [bft.checkpoint_interval_us])
    aggregated across the whole group, plus the state-transfer pipeline
    series — [base.st.inflight] (peak requests in flight),
    [base.st.cache_hits], [base.st.source_quarantined] and the per-source
    load-spread counters [base.st.source_bytes.<rid>]. *)

val trace : t -> Base_obs.Trace.t
(** Structured runtime events: [recovery.start] / [recovery.reboot_done] /
    [recovery.fetch_done], [st.retry] / [st.reject] / [st.retarget], and
    the fetcher's own diagnostics as [st.debug] (quarantines, rejected
    chunk assemblies, timeout re-stripes). *)

val st_totals : t -> State_transfer.stats
(** State-transfer traffic summed over every fetch by every replica,
    including fetchers already discarded. *)

val recovery_timelines : t -> recovery_timeline list
(** Every recovery episode so far, oldest first. *)

val metrics_report : t -> Base_obs.Json.t
(** One deterministic report object: network totals and per-label
    breakdowns, queue depths, the metrics registry, recovery timelines and
    state-transfer totals. *)
