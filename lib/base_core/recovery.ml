module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Types = Base_bft.Types
module Replica = Base_bft.Replica
module Auth = Base_crypto.Auth
module Metrics = Base_obs.Metrics

type strategy = In_place | Migrate of Cell.t  (* the standby to promote *)

(* A slot's latest episode.  [handoff] is the strategy still running while
   the slot machine is down; [None] once the slot is back and only the
   fetch milestone may be outstanding. *)
type episode = { tl : Cell.recovery_timeline; mutable handoff : strategy option }

type t = {
  cx : Cell.ctx;
  chains : Auth.keychain array;
  slots : Cell.t array;  (* the active replicas (shard-0 cells) *)
  standbys : Cell.t array;  (* warm pool, node ids n .. n+s-1 *)
  sharded : bool;
  episodes : episode option array;  (* per slot *)
  mutable timelines : Cell.recovery_timeline list;  (* newest first *)
  mutable period_us : int;
  mutable reboot_us : int;
  mutable promote_us : int;  (* simulated role-switch handshake time *)
  mutable migrate : bool;  (* the watchdog recovers by promotion, not reboot *)
  mutable on : bool;
}

let create cx ~chains ~cells ~standbys =
  { cx; chains; slots = cells.(0); standbys; sharded = Array.length cells > 1;
    episodes = Array.make cx.Cell.config.Types.n None; timelines = [];
    period_us = 0; reboot_us = 2_000_000; promote_us = 30_000; migrate = false; on = false }

let now r = Engine.now r.cx.Cell.engine

let recovering r slot =
  match r.episodes.(slot) with Some { handoff = Some _; _ } -> true | Some _ | None -> false

(* The slot's episode still waiting for its fetch milestone. *)
let waiting r slot =
  match r.episodes.(slot) with
  | Some ep when Int64.compare ep.tl.tl_fetch_done_us 0L < 0 -> Some ep.tl
  | Some _ | None -> None

let close_timeline r (node : Cell.t) =
  match waiting r node.rid with
  | Some tl ->
    tl.tl_fetch_done_us <- now r;
    tl.tl_objects <- node.recovery_stats.last_objects_fetched;
    tl.tl_bytes <- node.recovery_stats.last_bytes_fetched;
    (match Cell.timeline_window_us tl with
    | Some w ->
      Metrics.observe
        (Metrics.histogram r.cx.Cell.metrics "base.recovery.window_us")
        (float_of_int w)
    | None -> ());
    Cell.trace_event r.cx "recovery.fetch_done"
      [
        ("bytes", string_of_int tl.tl_bytes);
        ("objects", string_of_int tl.tl_objects);
        ("rid", string_of_int node.rid);
      ]
  | None -> ()

(* The {!Replica.app.start_fetch} hook of an active cell: the verified
   checkpoint closes the slot's recovery episode and resumes the protocol. *)
let start_fetch r (node : Cell.t) ~seq ~digest =
  Cell.launch r.cx node ~seq ~digest ~on_verified:(fun ~seq ~app_root ~client_rows ->
      close_timeline r node;
      Replica.fetch_complete node.replica ~seq ~app_digest:app_root ~client_rows)

(* --- standby shadow sync ---------------------------------------------------- *)

(* Pool warmth is bounded by this cadence: a promoted standby's catch-up
   fetch covers at most one period's worth of writes (plus the sync in
   flight), so the period must sit well below the recovery period for the
   window of vulnerability to stay handshake-dominated. *)
let shadow_sync_period_us = 50_000

let arm_shadow r (sb : Cell.t) =
  ignore
    (Engine.set_timer r.cx.Cell.engine ~node:sb.rid
       ~after:(Sim_time.of_us shadow_sync_period_us) ~tag:"shadow_sync" ~payload:0)

(* Chase the stable checkpoint watermark: fetch the freshest certified
   checkpoint into the standby's repo through the normal self-verifying
   pipeline, then register it so (a) the next sync is an incremental diff
   against it and (b) a promoted standby can serve it to other fetchers. *)
let shadow_synced r (sb : Cell.t) ~seq ~app_root ~client_rows =
  Objrepo.discard_below sb.repo seq;
  let client_digest = State_transfer.combined_digest ~app_root ~client_rows in
  Replica.standby_note_synced sb.replica ~seq ~digest:client_digest;
  (match sb.standby with
  | Some ss ->
    ss.ss_synced_seq <- seq;
    ss.ss_synced_at_us <- now r;
    ss.ss_root <- app_root;
    ss.ss_client_rows <- client_rows
  | None -> ());
  Cell.count r.cx ~by:sb.recovery_stats.last_bytes_fetched "base.standby.shadow_bytes";
  Cell.trace_event r.cx "standby.synced"
    [
      ("bytes", string_of_int sb.recovery_stats.last_bytes_fetched);
      ("rid", string_of_int sb.rid);
      ("seq", string_of_int seq);
    ]

let shadow_tick r (sb : Cell.t) =
  (* A sync in flight is driven by its own st_retry chain. *)
  (if Cell.idle sb then
     match (Replica.fetch_target sb.replica, sb.standby) with
     | Some (seq, digest), Some ss when seq > ss.ss_synced_seq ->
       Cell.reset_last_fetch sb;
       Cell.launch r.cx sb ~seq ~digest ~on_verified:(shadow_synced r sb)
     | (Some _ | None), _ -> ());
  arm_shadow r sb

(* --- episodes ------------------------------------------------------------------ *)

let synced_seq (sb : Cell.t) = match sb.standby with Some ss -> ss.ss_synced_seq | None -> -1

let promoting r (sb : Cell.t) =
  Array.exists
    (function
      | Some { handoff = Some (Migrate b); _ } -> b.Cell.rid = sb.rid
      | Some _ | None -> false)
    r.episodes

(* A standby can take over a slot when it has completed at least one shadow
   sync, the machine is up, and it is not already half-way through a
   promotion handshake. *)
let promotable r (sb : Cell.t) =
  synced_seq sb >= 0 && Engine.node_is_up r.cx.Cell.engine sb.rid && not (promoting r sb)

(* The freshest promotable standby; ties go to the lowest id, keeping runs
   deterministic. *)
let eligible_standby r =
  Array.fold_left
    (fun best (sb : Cell.t) ->
      match best with
      | _ when not (promotable r sb) -> best
      | Some b when synced_seq b >= synced_seq sb -> best
      | Some _ | None -> Some sb)
    None r.standbys

(* Start one episode on [slot]: take the machine offline, abandon its fetch
   (its timers die with it), and arm the handoff — a reboot of [reboot_us],
   or the [promote_us] role-switch handshake (key distribution, address
   takeover) of a migration.  A migration whose standby is not promotable
   right now degrades to in-place recovery: the job is to recover the slot,
   one way or the other. *)
let start ?reboot_us r ~slot strategy =
  let strategy =
    match strategy with
    | Migrate sb when recovering r slot || not (promotable r sb) -> In_place
    | s -> s
  in
  (match strategy with
  | In_place ->
    Base_util.Invariant.require (not r.sharded)
      "Runtime.recover_now: proactive recovery requires an unsharded object space"
  | Migrate _ -> ());
  if not (recovering r slot) then begin
    let node = r.slots.(slot) in
    node.recovery_stats.recoveries <- node.recovery_stats.recoveries + 1;
    let tl =
      { Cell.tl_rid = slot;
        tl_migrated = (match strategy with Migrate _ -> true | In_place -> false);
        tl_start_us = now r; tl_reboot_done_us = -1L; tl_promote_done_us = -1L;
        tl_staleness_seqs = -1; tl_staleness_us = -1L; tl_fetch_done_us = -1L;
        tl_objects = 0; tl_bytes = 0 }
    in
    r.episodes.(slot) <- Some { tl; handoff = Some strategy };
    r.timelines <- tl :: r.timelines;
    (match strategy with
    | In_place -> Cell.trace_event r.cx "recovery.start" [ ("rid", string_of_int slot) ]
    | Migrate sb ->
      Cell.trace_event r.cx "recovery.promote_start"
        [ ("sb", string_of_int sb.rid); ("slot", string_of_int slot) ]);
    Cell.drop_fetch node;
    Replica.abort_fetch node.replica;
    (* The standby's shadow state must stay frozen at its last completed
       sync for the duration of the handshake. *)
    (match strategy with Migrate sb -> Cell.drop_fetch sb | In_place -> ());
    Engine.set_node_up r.cx.Cell.engine slot false;
    let after_us, tag =
      match strategy with
      | In_place -> (Option.value reboot_us ~default:r.reboot_us, "reboot_done")
      | Migrate _ -> (r.promote_us, "promote_done")
    in
    Cell.arm_orchestrator r.cx ~after_us ~tag ~payload:slot
  end

let promote_now r slot =
  start r ~slot (match eligible_standby r with Some sb -> Migrate sb | None -> In_place)

(* The machine is back up: fresh session keys (stolen ones are now useless),
   restart the implementation from its persistent state, and recompute the
   abstraction function over the whole concrete state — the depth-first
   traversal of Section 3.4.  Then compare with the rest of the group and
   fetch only what differs.  If no suitable certified checkpoint is known
   (quiet system, or the group is behind us), the local state is deemed up
   to date until the next checkpoint exposes any divergence. *)
let reboot_done r slot =
  let node = r.slots.(slot) in
  Engine.set_node_up r.cx.Cell.engine slot true;
  (match waiting r slot with Some tl -> tl.tl_reboot_done_us <- now r | None -> ());
  Cell.trace_event r.cx "recovery.reboot_done" [ ("rid", string_of_int slot) ];
  Auth.refresh_keys r.chains slot;
  node.wrapper.Service.restart ();
  Objrepo.rebuild_all_digests node.repo;
  Cell.reset_last_fetch node;
  Replica.on_reboot node.replica;
  (match Replica.fetch_target node.replica with
  | Some (seq, digest) -> Replica.force_fetch node.replica ~seq ~digest
  | None -> close_timeline r node);
  Option.iter (fun ep -> ep.handoff <- None) r.episodes.(slot)

(* The handshake finished: swap the standby's warm state into the slot. *)
let promote_done r slot =
  match r.episodes.(slot) with
  | Some ({ handoff = Some (Migrate sb); _ } as ep) -> (
    match sb.standby with
    | Some ss when Engine.node_is_up r.cx.Cell.engine sb.rid && ss.ss_synced_seq >= 0 ->
      let node = r.slots.(slot) in
      Engine.set_node_up r.cx.Cell.engine slot true;
      (* Key handoff: fresh session keys for both identities — the slot
         because a different machine now speaks for it, the demoted machine
         because its old keys are suspect. *)
      Auth.refresh_keys r.chains slot;
      Auth.refresh_keys r.chains sb.rid;
      (* The swap itself: the standby's warm repo and implementation take
         over the slot identity; the suspect state moves to the standby
         identity to be wiped at leisure. *)
      let slot_repo = node.repo and slot_wrapper = node.wrapper in
      node.repo <- sb.repo;
      node.wrapper <- sb.wrapper;
      sb.repo <- slot_repo;
      sb.wrapper <- slot_wrapper;
      ss.ss_promotions <- ss.ss_promotions + 1;
      Cell.count r.cx "base.standby.promotions";
      let lag = Int64.sub (now r) ss.ss_synced_at_us in
      Metrics.observe
        (Metrics.histogram r.cx.Cell.metrics "base.standby.lag_us")
        (Int64.to_float lag);
      (match waiting r slot with
      | Some tl ->
        tl.tl_promote_done_us <- now r;
        tl.tl_staleness_us <- lag;
        let head =
          match Replica.fetch_target node.replica with
          | Some (seq, _) -> seq
          | None -> ss.ss_synced_seq
        in
        tl.tl_staleness_seqs <- max 0 (head - ss.ss_synced_seq)
      | None -> ());
      Cell.reset_last_fetch node;
      Replica.on_reboot node.replica;
      (* Install the shadow-synced checkpoint as the slot's recovered state.
         [fetch_complete] handles the stale-standby edge itself: if the
         group's stable watermark overtook the shadow seqno while the
         handshake ran, it starts a differential fetch instead of resuming
         from unusable state. *)
      Replica.fetch_complete node.replica ~seq:ss.ss_synced_seq ~app_digest:ss.ss_root
        ~client_rows:ss.ss_client_rows;
      (* Catch up past the shadow watermark when the group moved on but the
         log gap is still fetchable. *)
      (match Replica.fetch_target node.replica with
      | Some (seq, digest)
        when Cell.idle node && seq > ss.ss_synced_seq
             && Replica.status node.replica <> Replica.Fetching ->
        Replica.force_fetch node.replica ~seq ~digest
      | Some _ | None -> ());
      if Cell.idle node then close_timeline r node;
      ep.handoff <- None;
      (* Demotion: the old slot machine is now the next standby.  Wipe its
         suspect warm state — restart the implementation, recompute every
         digest, drop cached checkpoints — and let the shadow-sync timer
         refetch from scratch at leisure. *)
      ss.ss_synced_seq <- -1;
      ss.ss_client_rows <- [];
      sb.wrapper.Service.restart ();
      Objrepo.rebuild_all_digests sb.repo;
      Objrepo.discard_below sb.repo max_int;
      Cell.trace_event r.cx "recovery.promote_done"
        [ ("sb", string_of_int sb.rid); ("slot", string_of_int slot) ]
    | Some _ | None ->
      (* Promotion race: the standby died (or was wiped) mid-handshake.  The
         slot machine is already down, so fall back to the in-place path —
         reboot it and differential-fetch as usual.  The episode's timeline
         keeps [tl_migrated = true] with a null handoff, which is exactly
         what happened: an attempted migration that degraded. *)
      ep.handoff <- Some In_place;
      Cell.count r.cx "base.standby.promotions_aborted";
      Cell.trace_event r.cx "recovery.promote_aborted"
        [ ("sb", string_of_int sb.rid); ("slot", string_of_int slot) ];
      Cell.arm_orchestrator r.cx ~after_us:r.reboot_us ~tag:"reboot_done" ~payload:slot)
  | Some _ | None -> ()

let watchdog r slot =
  if r.on then begin
    (if not r.migrate then start r ~slot In_place
     else
       (* The migrating watchdog never takes a healthy replica down without
          a warm spare to put in its place: with no eligible standby (pool
          still cold, all mid-handshake, or all crashed) it skips the round
          and retries next period.  Degrading to an in-place reboot here
          would turn a cold pool into gratuitous downtime — that fallback is
          reserved for promotion races, where the slot machine is already
          down. *)
       match eligible_standby r with
       | Some sb -> start r ~slot (Migrate sb)
       | None ->
         Cell.count r.cx "base.standby.rounds_skipped";
         Cell.trace_event r.cx "recovery.promote_skipped" [ ("slot", string_of_int slot) ]);
    Cell.arm_orchestrator r.cx ~after_us:r.period_us ~tag:"watchdog" ~payload:slot
  end

let disable r = r.on <- false

let timelines r = List.rev r.timelines

let on_timer r ~tag ~payload =
  match tag with
  | "watchdog" -> watchdog r payload
  | "reboot_done" -> reboot_done r payload
  | "promote_done" -> promote_done r payload
  | _ -> ()

let enable r ~reboot_us ?promote_us ~migrate ~period_us () =
  (* Reintegration rebuilds and re-fetches the node's single repo; teaching
     it to repair every per-shard cell is future work, so the watchdog is
     gated to unsharded systems (as is the standby pool, in [create]). *)
  Base_util.Invariant.require (not r.sharded)
    "Runtime.enable_proactive_recovery: requires an unsharded object space";
  r.period_us <- period_us;
  r.reboot_us <- reboot_us;
  Option.iter (fun v -> r.promote_us <- v) promote_us;
  r.migrate <- migrate && Array.length r.standbys > 0;
  r.on <- true;
  (* Stagger: replica i's watchdog first fires at (i+1) * period / n, so
     less than 1/3 of the replicas are ever recovering together. *)
  Array.iter
    (fun (node : Cell.t) ->
      Cell.arm_orchestrator r.cx
        ~after_us:(period_us / r.cx.Cell.config.Types.n * (node.rid + 1))
        ~tag:"watchdog" ~payload:node.rid)
    r.slots
