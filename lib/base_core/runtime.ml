module Digest = Base_crypto.Digest_t
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Types = Base_bft.Types
module Message = Base_bft.Message
module Replica = Base_bft.Replica
module Client = Base_bft.Client
module Auth = Base_crypto.Auth

include Cell.Exported

exception Stalled of string

(* Broken internal wiring (a node callback ran before construction
   finished).  Unreachable by design and never message-triggered; kept as a
   dedicated exception so Byzantine-facing paths stay free of [assert]. *)
exception Internal_error of string

(* One state value per concern: [cx] is what every module shares, the rest
   are the modules' own. *)
type t = {
  cx : Cell.ctx;
  cells : Cell.t array array;
      (* [cells.(shard).(rid)]: every active node hosts one replica cell per
         shard of the object space; unsharded systems have exactly one row *)
  standbys : Cell.t array;  (* warm pool, node ids n .. n+s-1 *)
  clients : Client.t array;
  profile : Base_obs.Profile.t;
  xshard : Xshard.t;
  recovery : Recovery.t;
  chaos : Chaos.t;
}

let msg_size = function
  | Bft env -> env.Message.size
  | St { body; shard; _ } -> State_transfer.size body + Message.shard_overhead shard
  | Raw { bytes; macs; shard; _ } ->
    Array.fold_left (fun acc m -> acc + String.length m) (String.length bytes) macs
    + Message.shard_overhead shard

let msg_label = function
  | Bft env -> Message.label env.Message.body
  | St { body; _ } -> State_transfer.label body
  | Raw _ -> "RAW"

(* Allocation-free accounting key: the engine calls this once per send and
   per delivery, so it must not format anything. *)
let msg_kind = function
  | Bft env -> Message.kind_label env.Message.body
  | St { body; _ } -> State_transfer.kind_label body
  | Raw _ -> "RAW"

let engine t = t.cx.engine

let config t = t.cx.config

let replica t i = t.cells.(0).(i)

let replicas t = t.cells.(0)

let n_shards t = Array.length t.cells

let shard_replica t ~shard rid = t.cells.(shard).(rid)

let standbys t = t.standbys

let standby t i = t.standbys.(i - t.cx.config.Types.n)

let client t i = t.clients.(i)

let now t = Engine.now t.cx.engine

let metrics t = t.cx.metrics

let profile t = t.profile

let trace t = t.cx.trace

let st_totals t = t.cx.st_totals

let recovery_timelines t = Recovery.timelines t.recovery

(* The cell of node [rid] serving [shard]; a standby hosts only shard 0. *)
let cell t ~shard rid =
  if rid < t.cx.config.Types.n then t.cells.(shard).(rid)
  else t.standbys.(rid - t.cx.config.Types.n)

(* Per-shard timer namespace: every cell arms "vc"/"status" through its own
   net, the engine carries one flat tag space per physical node, so shard
   k > 0 suffixes them ".s<k>".  Shard 0 keeps the bare tags — the exact
   unsharded wiring. *)
let shard_tag ~shard tag = if shard = 0 then tag else Printf.sprintf "%s.s%d" tag shard

(* Inverse of [shard_tag], allocation-free for shard 0. *)
let tag_shard tag =
  match String.rindex tag '.' with
  | exception Not_found -> 0
  | i when i + 2 < String.length tag && tag.[i + 1] = 's' ->
    Option.value ~default:0 (int_of_string_opt (String.sub tag (i + 2) (String.length tag - i - 2)))
  | _ -> 0

let in_row row shard = shard >= 0 && shard < Array.length row

(* The one per-node event dispatcher.  [row] holds the node's cells by
   shard — one per shard for an active node, a single cell for a standby —
   and routes protocol envelopes by their shard tag, state transfer by the
   St/Raw shard field, and timers by payload ("st_retry") or tag suffix
   ("vc.s1").  The node-level timers are the cross-shard kick and, on a
   standby, the shadow-sync tick. *)
let dispatch t rid row ev =
  match ev with
  | Engine.Deliver { msg = Bft env; _ } ->
    (* A shard tag out of range is dropped, like any undecodable message. *)
    if in_row row env.Message.shard then Replica.receive row.(env.Message.shard).replica env
  | Engine.Deliver { msg = St { from; shard; body }; _ } ->
    if in_row row shard then Cell.handle_st t.cx row.(shard) ~from body
  | Engine.Deliver { msg = Raw { from; shard; macs; bytes }; _ } ->
    (* Corrupted-in-flight bytes: feed the wire-decode path, which counts
       and drops them (bft.reject.decode / bft.reject.mac). *)
    if in_row row shard then
      Replica.receive_wire ~shard row.(shard).replica ~sender:from ~macs bytes
  | Engine.Timer { tag = "st_retry"; payload } ->
    if in_row row payload then Cell.retry_tick t.cx row.(payload)
  | Engine.Timer { tag = "xkick"; _ } -> Xshard.kick t.xshard rid
  | Engine.Timer { tag = "shadow_sync"; _ } -> Recovery.shadow_tick t.recovery row.(0)
  | Engine.Timer { tag; payload } ->
    let shard = tag_shard tag in
    if in_row row shard then
      Replica.on_timer row.(shard).replica
        ~tag:(if shard = 0 then tag else String.sub tag 0 (String.rindex tag '.'))
        ~payload

(* In-flight corruption model: flip one byte of the encoded protocol body
   and deliver it as raw wire bytes, so it exercises the replica's
   decode-and-MAC rejection path exactly like a Byzantine network would.
   State-transfer messages (simulator values, no wire codec) are mangled
   beyond recognition instead: the corruptor declines and the engine drops
   them. *)
let corrupt rng = function
  | Bft env ->
    let body = env.Message.wire in
    let len = String.length body in
    if len = 0 then None
    else begin
      let bytes = Bytes.of_string body in
      let i = Base_util.Prng.int rng len in
      let flip = 1 + Base_util.Prng.int rng 255 in
      Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor flip));
      Some
        (Raw
           {
             from = env.Message.sender;
             shard = env.Message.shard;
             macs = env.Message.macs;
             bytes = Bytes.to_string bytes;
           })
    end
  | St _ | Raw _ -> None

let create ?engine_config ?profile ~config ~make_wrapper ~n_clients () =
  let engine_config =
    match engine_config with
    | Some c -> c
    | None ->
      {
        (Engine.default_config ~size_of:msg_size ~label_of:msg_label) with
        Engine.kind_of = msg_kind;
      }
  in
  let engine = Engine.create engine_config in
  (* One profile for the whole system: probes aggregate across replicas,
     clients and the engine (same sharing model as [metrics]).  Disabled —
     and a couple of loads plus a branch per probe site — until the caller
     enables it. *)
  let profile =
    match profile with Some p -> p | None -> Base_obs.Profile.create ()
  in
  Engine.attach_profile engine profile;
  (* One registry for the whole system: replica histograms aggregate across
     the group, which is what the benchmark tables report.  The engine
     exports its live queue-depth / per-node inflight gauges into the same
     registry. *)
  let metrics = Base_obs.Metrics.create () in
  Engine.attach_metrics engine metrics;
  Engine.set_corruptor engine corrupt;
  let cx =
    {
      Cell.engine;
      config;
      metrics;
      trace = Base_obs.Trace.create ();
      (* System-wide state-transfer totals, accumulated as per-call deltas
         so they survive the fetchers (which are discarded on completion). *)
      st_totals = State_transfer.zero_stats ();
      st_params =
        {
          State_transfer.default_params with
          State_transfer.window = config.Types.st_window;
          chunk_bytes = config.Types.st_chunk_bytes;
        };
    }
  in
  let chains =
    Auth.create ~seed:(Int64.add engine_config.Engine.seed 7919L)
      ~n_principals:config.Types.n_principals
  in
  let n = config.Types.n in
  let n_shards = Types.n_shards config in
  let group = Types.group_size config in
  (* The one knot: replica upcalls need the finished system, which needs the
     replicas.  Only the seq-0 checkpoint taken (and sent) from inside
     [Replica.create] runs before it is tied, against the construction-time
     repo; every other upcall reads [repo]/[wrapper] through the node record,
     so a promotion's swap takes effect for execution and checkpointing
     alike. *)
  let knot = ref None in
  let the () =
    match !knot with
    | Some t -> t
    | None -> raise (Internal_error "Runtime: node callback ran before wiring finished")
  in
  let make_cell ~shard ~wrapper rid =
    let repo =
      Objrepo.create ~cache_objs:config.Types.st_cache_objs
        ~wrapper:(Xshard.shard_view config ~shard wrapper) ~branching:16 ()
    in
    let node () = cell (the ()) ~shard rid in
    let app =
      {
        Replica.execute =
          (if n_shards <= 1 then
             fun ~client ~timestamp:_ ~operation ~nondet ~read_only ->
               let node = node () in
               node.wrapper.Service.execute ~client ~operation ~nondet ~read_only
                 ~modify:(fun i -> Objrepo.modify node.repo i)
           else
             fun ~client ~timestamp ~operation ~nondet ~read_only ->
               Xshard.execute (the ()).xshard ~rid ~shard ~client ~timestamp ~operation ~nondet
                 ~read_only);
        propose_nondet =
          (fun ~operation ->
            (node ()).wrapper.Service.propose_nondet ~clock_us:(Engine.local_clock engine rid)
              ~operation);
        check_nondet =
          (fun ~operation ~nondet ->
            (node ()).wrapper.Service.check_nondet ~clock_us:(Engine.local_clock engine rid)
              ~operation ~nondet);
        ready =
          (if n_shards <= 1 then Replica.always_ready
           else
             fun ~client ~timestamp ~operation ->
               Xshard.ready (the ()).xshard ~rid ~shard ~client ~timestamp ~operation);
        take_checkpoint =
          (fun ~seq ~client_rows ->
            match !knot with
            | Some t -> Objrepo.take_checkpoint (cell t ~shard rid).repo ~seq ~client_rows
            | None -> Objrepo.take_checkpoint repo ~seq ~client_rows);
        discard_checkpoints_below =
          (fun seq ->
            match !knot with
            | Some t -> Objrepo.discard_below (cell t ~shard rid).repo seq
            | None -> Objrepo.discard_below repo seq);
        start_fetch =
          (fun ~seq ~digest -> Recovery.start_fetch (the ()).recovery (node ()) ~seq ~digest);
      }
    in
    let tag_vc = shard_tag ~shard "vc" and tag_status = shard_tag ~shard "status" in
    let net =
      {
        Replica.send =
          (fun ~dst env ->
            match !knot with
            | None -> Engine.send engine ~src:rid ~dst (Bft env)
            | Some t -> (
              match Chaos.pp_extra t.chaos rid env with
              | None -> ()  (* the adversary muted this pre-prepare *)
              | Some extra_us -> Engine.send engine ~extra_us ~src:rid ~dst (Bft env)));
        set_timer =
          (fun ~after_us ~tag ~payload ->
            let tag =
              if String.equal tag "vc" then tag_vc
              else if String.equal tag "status" then tag_status
              else tag
            in
            Engine.set_timer engine ~node:rid ~after:(Sim_time.of_us after_us) ~tag ~payload);
        cancel_timer = (fun id -> Engine.cancel_timer engine id);
        now_us = (fun () -> Engine.now engine);
      }
    in
    let role = if rid < n then Replica.Active else Replica.Standby in
    let replica =
      Replica.create ~metrics ~profile ~role ~shard ~config ~id:rid ~keychain:chains.(rid) ~net
        ~app ()
    in
    Cell.make config ~rid ~shard ~replica ~repo ~wrapper
  in
  let wrappers = Array.init group (fun rid -> make_wrapper rid) in
  if n_shards > 1 then begin
    (* Promotion swaps a node's single repo/wrapper pair; per-shard repos
       make that a per-cell operation the pool machinery does not implement,
       so sharded systems run without warm standbys. *)
    Base_util.Invariant.require (config.Types.s = 0)
      "Runtime.create: a sharded object space cannot run a standby pool";
    let n_objects = wrappers.(0).Service.n_objects in
    for shard = 0 to n_shards - 1 do
      let lo, hi = Types.shard_range config ~n_objects shard in
      Base_util.Invariant.require (hi > lo)
        "Runtime.create: every shard must own at least one abstract object"
    done
  end;
  let cells =
    Array.init n_shards (fun shard ->
        Array.init n (fun rid -> make_cell ~shard ~wrapper:wrappers.(rid) rid))
  in
  let standbys =
    Array.init config.Types.s (fun i -> make_cell ~shard:0 ~wrapper:wrappers.(n + i) (n + i))
  in
  (* Clients route each request to the agreement instance owning its
     footprint; multi-shard footprints go to the lowest shard, which
     coordinates the cross-shard commit.  The decode is pure protocol, so
     replica 0's wrapper answers for everyone. *)
  let route =
    if n_shards <= 1 then fun _ -> 0
    else
      let w = wrappers.(0) in
      fun operation -> match Xshard.footprint config w ~operation with [] -> 0 | s :: _ -> s
  in
  let clients =
    Array.init n_clients (fun k ->
        let cid = group + k in
        let net =
          {
            Client.send = (fun ~dst env -> Engine.send engine ~src:cid ~dst (Bft env));
            set_timer =
              (fun ~after_us ~tag ~payload ->
                Engine.set_timer engine ~node:cid ~after:(Sim_time.of_us after_us) ~tag ~payload);
            cancel_timer = (fun id -> Engine.cancel_timer engine id);
            now_us = (fun () -> Engine.now engine);
          }
        in
        (* All clients share the registry (and so one aggregate latency
           histogram) — constant memory per client, however many complete. *)
        Client.create ~metrics ~profile ~route ~config ~id:cid ~keychain:chains.(cid) ~net ())
  in
  let xshard = Xshard.create cx cells in
  let recovery = Recovery.create cx ~chains ~cells ~standbys in
  let t =
    {
      cx;
      cells;
      standbys;
      clients;
      profile;
      xshard;
      recovery;
      chaos = Chaos.create cx ~cells ~standbys ~xshard ~recovery;
    }
  in
  knot := Some t;
  let register rid row = Engine.add_node engine ~id:rid (fun _engine ev -> dispatch t rid row ev) in
  for rid = 0 to n - 1 do
    register rid (Array.map (fun row -> row.(rid)) cells);
    Array.iter (fun row -> Replica.start_status_timer row.(rid).replica) cells
  done;
  Array.iter
    (fun (sb : Cell.t) ->
      register sb.rid [| sb |];
      Recovery.arm_shadow recovery sb)
    standbys;
  Array.iter
    (fun c ->
      Engine.add_node engine ~id:(Client.id c) (fun _engine ev ->
          match ev with
          | Engine.Deliver { msg = Bft env; _ } -> Client.receive c env
          | Engine.Deliver { msg = St _ | Raw _; _ } -> ()
          | Engine.Timer { tag; payload } -> Client.on_timer c ~tag ~payload))
    clients;
  Engine.add_node engine ~id:config.Types.n_principals (fun _engine ev ->
      match ev with
      | Engine.Timer { tag = "fault"; payload } -> Chaos.on_timer t.chaos payload
      | Engine.Timer { tag; payload } -> Recovery.on_timer t.recovery ~tag ~payload
      | Engine.Deliver _ -> ());
  t

(* --- proactive recovery and chaos ------------------------------------------ *)

let enable_proactive_recovery ?(reboot_us = 2_000_000) ?promote_us ?(migrate = false)
    ~period_us t =
  Recovery.enable t.recovery ~reboot_us ?promote_us ~migrate ~period_us ()

let disable_proactive_recovery t = Recovery.disable t.recovery

let recover_now ?reboot_us t rid = Recovery.start ?reboot_us t.recovery ~slot:rid Recovery.In_place

let promote_now t slot = Recovery.promote_now t.recovery slot

let apply_faultplan t plan = Chaos.apply t.chaos plan

let set_behavior ?shard t rid b = Chaos.set_behavior t.chaos ~node:rid ~shard b

(* --- client-facing API ------------------------------------------------------ *)

let invoke t ~client:idx ?read_only ~operation k =
  Client.invoke t.clients.(idx) ?read_only ~operation k

(* Step the simulation until [done_ ()] holds; [Error] reports a stall
   (quiescent queue or exhausted budget) instead of raising, so chaos
   experiments can treat a liveness loss as data. *)
let step_until t ~what ~max_events done_ =
  let events = ref 0 in
  let quiescent = ref false in
  while (not (done_ ())) && (not !quiescent) && !events < max_events do
    if Engine.step t.cx.engine then incr events else quiescent := true
  done;
  if done_ () then Ok ()
  else if !quiescent then Error (Printf.sprintf "Runtime.%s: simulation went quiescent" what)
  else Error (Printf.sprintf "Runtime.%s: event budget exceeded" what)

let try_run_until_idle ?(max_events = 5_000_000) t =
  step_until t ~what:"run_until_idle" ~max_events (fun () ->
      not (Array.exists (fun c -> Client.outstanding c > 0) t.clients))

let run_until_idle ?max_events t =
  match try_run_until_idle ?max_events t with Ok () -> () | Error e -> raise (Stalled e)

let try_invoke_sync ?(max_events = 5_000_000) t ~client:idx ?read_only ~operation () =
  let result = ref None in
  invoke t ~client:idx ?read_only ~operation (fun r -> result := Some r);
  Result.bind
    (step_until t ~what:"invoke_sync" ~max_events (fun () -> Option.is_some !result))
    (fun () -> Option.to_result ~none:"Runtime.invoke_sync: no result" !result)

let invoke_sync t ~client ?read_only ~operation () =
  match try_invoke_sync t ~client ?read_only ~operation () with
  | Ok r -> r
  | Error e -> raise (Stalled e)

(* --- observability export --------------------------------------------------- *)

let enable_net_trace t =
  Engine.set_tracer t.cx.engine (fun ts line ->
      Base_obs.Trace.event t.cx.trace ~ts ~name:"net" [ ("line", line) ])

let counters_json (c : Engine.counters) =
  Base_obs.Json.obj
    [
      ("corrupted_msgs", Base_obs.Json.Int c.Engine.corrupted_msgs);
      ("dropped_msgs", Base_obs.Json.Int c.Engine.dropped_msgs);
      ("recv_bytes", Base_obs.Json.Int c.Engine.recv_bytes);
      ("recv_msgs", Base_obs.Json.Int c.Engine.recv_msgs);
      ("sent_bytes", Base_obs.Json.Int c.Engine.sent_bytes);
      ("sent_msgs", Base_obs.Json.Int c.Engine.sent_msgs);
    ]

(* Episode export: derived durations only, never raw milestone timestamps —
   a milestone the episode did not reach renders as [null], not as a
   sentinel the consumer has to know about. *)
let timeline_json tl =
  let opt = function Some v -> Base_obs.Json.Int v | None -> Base_obs.Json.Null in
  Base_obs.Json.obj
    [
      ("bytes", Base_obs.Json.Int tl.tl_bytes);
      ("handoff_us", opt (timeline_handoff_us tl));
      ("migrated", Base_obs.Json.Bool tl.tl_migrated);
      ("objects", Base_obs.Json.Int tl.tl_objects);
      ("rid", Base_obs.Json.Int tl.tl_rid);
      ( "staleness_seqs",
        if tl.tl_migrated && tl.tl_staleness_seqs >= 0 then
          Base_obs.Json.Int tl.tl_staleness_seqs
        else Base_obs.Json.Null );
      ( "staleness_us",
        if tl.tl_migrated && Int64.compare tl.tl_staleness_us 0L >= 0 then
          Base_obs.Json.Int (Int64.to_int tl.tl_staleness_us)
        else Base_obs.Json.Null );
      ("start_us", Base_obs.Json.Int (Int64.to_int tl.tl_start_us));
      ("window_us", opt (timeline_window_us tl));
    ]

let metrics_report t =
  let open Base_obs.Json in
  let st = t.cx.st_totals in
  obj
    [
      ( "net",
        obj
          [
            ( "labels",
              obj
                (List.map
                   (fun (label, c) -> (label, counters_json c))
                   (Engine.label_counters t.cx.engine)) );
            ("max_queue_depth", Int (Engine.max_queue_depth t.cx.engine));
            ("queue_depth", Int (Engine.queue_depth t.cx.engine));
            ("totals", counters_json (Engine.total_counters t.cx.engine));
          ] );
      ("metrics", Base_obs.Metrics.to_json t.cx.metrics);
      ("recoveries", List (List.map timeline_json (recovery_timelines t)));
      ( "state_transfer",
        obj
          [
            ("bytes_fetched", Int st.State_transfer.bytes_fetched);
            ("cache_hits", Int st.State_transfer.cache_hits);
            ("chunks_fetched", Int st.State_transfer.chunks_fetched);
            ("heads_rejected", Int st.State_transfer.heads_rejected);
            ("meta_fetched", Int st.State_transfer.meta_fetched);
            ("meta_rejected", Int st.State_transfer.meta_rejected);
            ("objects_fetched", Int st.State_transfer.objects_fetched);
            ("objects_rejected", Int st.State_transfer.objects_rejected);
            ("quarantines", Int st.State_transfer.quarantines);
            ("rejected", Int (State_transfer.rejected st));
            ("retries", Int st.State_transfer.retries);
          ] );
      ("trace_events", Int (Base_obs.Trace.length t.cx.trace));
    ]
