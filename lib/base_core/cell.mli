(** A replica cell: one node's agreement instance for one shard, with its
    object repository and the lifecycle of its state-transfer fetch
    (launch, the one completion path, retarget, retry tick, and the fold of
    the fetcher's counters into the system totals).

    A physical node hosts one cell per shard; a warm standby is a node with
    a single cell. *)

(** The records {!Runtime} re-exports as its own, with the timeline
    durations (it includes this module); they are documented there. *)
module Exported : sig
  type msg =
    | Bft of Base_bft.Message.envelope
    | St of { from : int; shard : int; body : State_transfer.msg }
    | Raw of { from : int; shard : int; macs : string array; bytes : string }

  type recovery_stats = {
    mutable recoveries : int;
    mutable last_objects_fetched : int;
    mutable last_bytes_fetched : int;
    mutable total_objects_fetched : int;
    mutable total_bytes_fetched : int;
  }

  type standby_sync = {
    mutable ss_synced_seq : int;
    mutable ss_synced_at_us : int64;
    mutable ss_root : Base_crypto.Digest_t.t;
    mutable ss_client_rows : (int * int64 * string) list;
    mutable ss_promotions : int;
  }

  type cell_state

  type replica_node = {
    rid : int;
    replica : Base_bft.Replica.t;
    mutable repo : Objrepo.t;
    mutable wrapper : Service.wrapper;
    standby : standby_sync option;
    recovery_stats : recovery_stats;
    st : cell_state;
  }

  type recovery_timeline = {
    tl_rid : int;
    tl_migrated : bool;
    tl_start_us : int64;
    mutable tl_reboot_done_us : int64;
    mutable tl_promote_done_us : int64;
    mutable tl_staleness_seqs : int;
    mutable tl_staleness_us : int64;
    mutable tl_fetch_done_us : int64;
    mutable tl_objects : int;
    mutable tl_bytes : int;
  }

  val timeline_window_us : recovery_timeline -> int option

  val timeline_handoff_us : recovery_timeline -> int option
end

include module type of struct
  include Exported
end

type t = replica_node

(** What every module of the runtime shares: the network, the group's
    configuration and the system-wide observability sinks. *)
type ctx = {
  engine : msg Base_sim.Engine.t;
  config : Base_bft.Types.config;
  metrics : Base_obs.Metrics.t;
  trace : Base_obs.Trace.t;
  st_totals : State_transfer.stats;
      (** every fetch's counters, folded in call by call so they survive
          the fetchers *)
  st_params : State_transfer.params;
}

val make :
  Base_bft.Types.config ->
  rid:int ->
  shard:int ->
  replica:Base_bft.Replica.t ->
  repo:Objrepo.t ->
  wrapper:Service.wrapper ->
  t
(** A fresh, idle cell; a standby id gets an unsynced {!standby_sync}. *)

val trace_event : ctx -> string -> (string * string) list -> unit

val arm_orchestrator : ctx -> after_us:int -> tag:string -> payload:int -> unit
(** Arm a timer on the orchestrator, the pseudo-node owning the watchdog and
    fault-plan timers. *)

val count : ctx -> ?by:int -> string -> unit
(** Bump the named counter of the shared registry. *)

val idle : t -> bool
(** No fetch in flight. *)

val drop_fetch : t -> unit
(** Forget the fetch in flight (its timers died with the machine). *)

val reset_last_fetch : t -> unit
(** Zero the per-episode [last_*] fetch counters. *)

val retarget : ctx -> t -> reason:string -> unit
(** Abandon the fetch and, on an active cell, restart it against the
    freshest certified checkpoint; a standby waits for its next shadow
    tick. *)

val launch :
  ctx ->
  t ->
  seq:int ->
  digest:Base_crypto.Digest_t.t ->
  on_verified:
    (seq:int ->
    app_root:Base_crypto.Digest_t.t ->
    client_rows:(int * int64 * string) list ->
    unit) ->
  unit
(** Fetch the certified checkpoint [(seq, digest)] from the active
    replicas.  On completion the checkpoint is registered and handed to
    [on_verified] if the inverse abstraction reproduced its root; otherwise
    [st.inverse_divergence] is counted and the fetch re-run. *)

val handle_st : ctx -> t -> from:int -> State_transfer.msg -> unit
(** Serve a fetch request, or feed a reply to the fetch in flight. *)

val retry_tick : ctx -> t -> unit
(** One retry/stall-detection round of the fetch in flight ([st_retry]
    timer). *)
