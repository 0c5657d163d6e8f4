module Digest = Base_crypto.Digest_t
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Types = Base_bft.Types
module Replica = Base_bft.Replica
module Metrics = Base_obs.Metrics

(* The records {!Runtime} re-exports as its own (it includes this module). *)
module Exported = struct
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
    mutable ss_synced_seq : int;  (* -1 before the first completed shadow sync *)
    mutable ss_synced_at_us : int64;
    mutable ss_root : Digest.t;  (* abstract-state root at [ss_synced_seq] *)
    mutable ss_client_rows : (int * int64 * string) list;
    mutable ss_promotions : int;
  }

  type cell_state = {
    shard : int;  (* the agreement instance this cell serves; 0 when unsharded *)
    sources : int list;  (* every active replica but this one *)
    mutable fetcher : State_transfer.t option;
        (* [Some] only while the fetch is in flight: completion clears it first *)
    mutable retries : int;
    mutable progress : int;  (* sum of the fetch counters at the last retry round *)
    mutable stalled : int;  (* consecutive retry rounds without progress *)
    before : State_transfer.stats;
        (* the fetcher's counters just before the call being folded: a
           per-cell scratch record, so folding allocates nothing per reply *)
  }

  type replica_node = {
    rid : int;
    replica : Replica.t;
    mutable repo : Objrepo.t;
    mutable wrapper : Service.wrapper;
        (* [repo]/[wrapper] are mutable because promotion swaps them between
           the slot node and the standby node: the standby machine's warm
           state takes over the slot identity, the demoted machine keeps the
           suspect state under the standby identity.  All service upcalls read
           them through the node record, so the swap takes effect atomically
           for certificate handling, execution and fetch serving alike. *)
    standby : standby_sync option;  (* [Some] iff this node is a warm standby *)
    recovery_stats : recovery_stats;
    st : cell_state;
  }

  (* The [-1L] sentinels mean "not reached yet" — an episode cut short (e.g.
     the run ended mid-reboot) keeps them; all duration math goes through the
     total [span] below, never raw field subtraction. *)
  type recovery_timeline = {
    tl_rid : int;
    tl_migrated : bool;
    tl_start_us : int64;
    mutable tl_reboot_done_us : int64;  (* in-place episodes *)
    mutable tl_promote_done_us : int64;  (* migration episodes *)
    mutable tl_staleness_seqs : int;
        (* migration: certified checkpoint head minus the promoted standby's
           synced seqno at promotion time (-1 until promotion completes) *)
    mutable tl_staleness_us : int64;
        (* migration: promotion time minus the standby's last sync completion *)
    mutable tl_fetch_done_us : int64;
    mutable tl_objects : int;
    mutable tl_bytes : int;
  }

  (* [until - since] as a total duration: [None] whenever the earlier or the
     later milestone was never reached.  The sentinel encoding stays private
     to these records; everything downstream (report JSON, benches) consumes
     options. *)
  let span ~since ~until =
    if Int64.compare since 0L >= 0 && Int64.compare until since >= 0 then
      Some (Int64.to_int (Int64.sub until since))
    else None

  let timeline_window_us tl = span ~since:tl.tl_start_us ~until:tl.tl_fetch_done_us

  let timeline_handoff_us tl =
    if tl.tl_migrated then span ~since:tl.tl_start_us ~until:tl.tl_promote_done_us
    else span ~since:tl.tl_start_us ~until:tl.tl_reboot_done_us
end

include Exported

type t = replica_node

type ctx = {
  engine : msg Engine.t;
  config : Types.config;
  metrics : Metrics.t;
  trace : Base_obs.Trace.t;
  st_totals : State_transfer.stats;
  st_params : State_transfer.params;
}

let make config ~rid ~shard ~replica ~repo ~wrapper =
  let standby =
    if Types.is_standby config rid then
      Some { ss_synced_seq = -1; ss_synced_at_us = -1L; ss_root = Digest.zero;
             ss_client_rows = []; ss_promotions = 0 }
    else None
  in
  let recovery_stats =
    { recoveries = 0; last_objects_fetched = 0; last_bytes_fetched = 0;
      total_objects_fetched = 0; total_bytes_fetched = 0 }
  in
  (* Sources are always the active replicas: standbys are never authoritative. *)
  let sources = List.filter (fun r -> r <> rid) (Types.replica_ids config) in
  let st =
    { shard; sources; fetcher = None; retries = 0; progress = 0; stalled = 0;
      before = State_transfer.zero_stats () }
  in
  { rid; replica; repo; wrapper; standby; recovery_stats; st }

let trace_event cx name attrs =
  Base_obs.Trace.event cx.trace ~ts:(Engine.now cx.engine) ~name attrs

(* The orchestrator is the pseudo-node owning the watchdog and fault-plan
   timers. *)
let arm_orchestrator cx ~after_us ~tag ~payload =
  ignore
    (Engine.set_timer cx.engine ~node:cx.config.Types.n_principals
       ~after:(Sim_time.of_us after_us) ~tag ~payload)

let count cx ?by name = Metrics.incr ?by (Metrics.counter cx.metrics name)

let idle node = Option.is_none node.st.fetcher

let drop_fetch node = node.st.fetcher <- None

let reset_last_fetch node =
  node.recovery_stats.last_objects_fetched <- 0;
  node.recovery_stats.last_bytes_fetched <- 0

let send cx node ~dst body =
  Engine.send cx.engine ~src:node.rid ~dst (St { from = node.rid; shard = node.st.shard; body })

(* Retry/stall-poll cadence for an active fetch.  Under load the group
   certifies a fresh checkpoint every few tens of milliseconds, so a fetch
   that loses the race with garbage collection must notice and re-target on
   that timescale: a coarse retry period quantizes every unlucky fetch —
   and hence the recovery window — up to multiples of itself. *)
let retry_period_us = 50_000

(* Verification failures tolerated on one fetch before we conclude the
   target itself is bad (stale or fabricated) and re-certify.  Rejections
   only accumulate for still-pending pieces, so a healthy fetch — where a
   correct reply races every faulty one — stays well below this. *)
let reject_threshold = 12

(* The timer payload names the shard, so the per-node dispatcher can route
   the retry tick to the right cell's fetcher. *)
let arm_retry cx node =
  ignore
    (Engine.set_timer cx.engine ~node:node.rid ~after:(Sim_time.of_us retry_period_us)
       ~tag:"st_retry" ~payload:node.st.shard)

(* Abandon the current fetch and restart against the freshest certified
   checkpoint — the escape hatch for a garbage-collected target, a target
   digest we can no longer verify anything against, or an inverse
   abstraction that failed to reproduce the certified state.  A standby has
   no protocol status to repair and no urgency: dropping the fetcher is
   enough, the next shadow-sync tick re-targets on its own. *)
let retarget cx node ~reason =
  node.st.fetcher <- None;
  trace_event cx "st.retarget" [ ("reason", reason); ("rid", string_of_int node.rid) ];
  match node.standby with
  | Some _ -> ()
  | None ->
    Replica.abort_fetch node.replica;
    Replica.initiate_fetch node.replica

(* The one completion path of every fetch: register the transferred
   checkpoint so this node can serve it, and hand it to [on_verified] only
   if the inverse abstraction reproduced the certified root.  A divergent
   root means the local implementation is faulty in a way reinstallation did
   not mask; degrade gracefully — count it and re-run the transfer (a
   standby waits for its next shadow tick) — instead of crashing the
   replica, which would turn one faulty node into a liveness hit for the
   group. *)
let launch cx node ~seq ~digest ~on_verified =
  let fetcher =
    State_transfer.start ~params:cx.st_params
      ~trace:(fun line ->
        trace_event cx "st.debug" [ ("line", line); ("rid", string_of_int node.rid) ])
      ~repo:node.repo ~sources:node.st.sources ~target_seq:seq ~target_digest:digest
      ~send:(send cx node)
      ~on_complete:(fun ~seq ~app_root ~client_rows ->
        node.st.fetcher <- None;
        let root = Objrepo.take_checkpoint node.repo ~seq ~client_rows in
        if Digest.equal root app_root then on_verified ~seq ~app_root ~client_rows
        else begin
          count cx "st.inverse_divergence";
          if Option.is_none node.standby then retarget cx node ~reason:"inverse-divergence"
        end)
      ()
  in
  node.st.fetcher <- Some fetcher;
  node.st.retries <- 0;
  node.st.progress <- 0;
  node.st.stalled <- 0;
  arm_retry cx node

(* Remember the fetcher's counters [st] ahead of a call that may move them. *)
let snapshot node st = State_transfer.add_delta ~into:node.st.before ~before:node.st.before st

(* Fold what the fetcher call just made of [st] (its counters, against the
   [before] snapshot) into the system totals, the node's recovery stats and
   the pipeline counters. *)
let fold cx node (st : State_transfer.stats) =
  let b = node.st.before and rs = node.recovery_stats in
  let bytes = st.bytes_fetched - b.bytes_fetched
  and objects = st.objects_fetched - b.objects_fetched in
  rs.total_bytes_fetched <- rs.total_bytes_fetched + bytes;
  rs.last_bytes_fetched <- rs.last_bytes_fetched + bytes;
  rs.total_objects_fetched <- rs.total_objects_fetched + objects;
  rs.last_objects_fetched <- rs.last_objects_fetched + objects;
  State_transfer.add_delta ~into:cx.st_totals ~before:b st;
  let cache = st.cache_hits - b.cache_hits in
  if cache > 0 then count cx ~by:cache "base.st.cache_hits";
  let quarantines = st.quarantines - b.quarantines in
  if quarantines > 0 then count cx ~by:quarantines "base.st.source_quarantined"

let rec source_index (sources : State_transfer.source array) from i =
  if i >= Array.length sources then -1
  else if sources.(i).src_id = from then i
  else source_index sources from (i + 1)

let handle_st cx node ~from body =
  match body with
  | State_transfer.Fetch_head _ | State_transfer.Fetch_meta _ | State_transfer.Fetch_obj _ -> (
    match State_transfer.serve node.repo body with
    | Some reply -> send cx node ~dst:from reply
    | None -> ())
  | State_transfer.Head_reply _ | State_transfer.Meta_reply _ | State_transfer.Obj_reply _ -> (
    match node.st.fetcher with
    | Some fetcher ->
      let st = State_transfer.stats fetcher and b = node.st.before in
      let sources = State_transfer.scoreboard fetcher in
      let src = source_index sources from 0 in
      let src_bytes = if src >= 0 then sources.(src).bytes else 0 in
      snapshot node st;
      State_transfer.handle_reply fetcher ~from body;
      fold cx node st;
      Metrics.set_max
        (Metrics.gauge cx.metrics "base.st.inflight")
        (float_of_int (State_transfer.inflight fetcher));
      if src >= 0 && sources.(src).bytes > src_bytes then
        count cx
          ~by:(sources.(src).bytes - src_bytes)
          (Printf.sprintf "base.st.source_bytes.%d" from);
      if State_transfer.rejected st > State_transfer.rejected b then begin
        trace_event cx "st.reject"
          [ ("from", string_of_int from); ("rid", string_of_int node.rid) ];
        if State_transfer.rejected st >= reject_threshold then
          retarget cx node ~reason:"rejections"
      end
    | None -> ())

(* One retry/stall-detection round of the cell's active fetch. *)
let retry_tick cx node =
  match node.st.fetcher with
  | Some fetcher ->
    let x = node.st in
    x.retries <- x.retries + 1;
    (* Progress detection: a fetch whose counters have not moved for several
       consecutive rounds is talking to replicas that no longer hold the
       target (garbage-collected under load) — re-target quickly rather than
       sitting out the full retry budget against a dead checkpoint. *)
    let st = State_transfer.stats fetcher in
    let progress =
      st.meta_fetched + st.objects_fetched + st.chunks_fetched + st.cache_hits + st.bytes_fetched
    in
    if progress = x.progress then x.stalled <- x.stalled + 1
    else begin
      x.progress <- progress;
      x.stalled <- 0
    end;
    if x.retries > 8 then
      (* The target checkpoint was probably garbage-collected by the group
         while we fetched; restart against the freshest certified one. *)
      retarget cx node ~reason:"timeout"
    else if x.stalled >= 3 then retarget cx node ~reason:"stalled"
    else begin
      snapshot node st;
      State_transfer.retry fetcher;
      fold cx node st;
      trace_event cx "st.retry"
        [ ("attempt", string_of_int x.retries); ("rid", string_of_int node.rid) ];
      arm_retry cx node
    end
  | None -> ()
