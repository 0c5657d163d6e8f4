module Prng = Base_util.Prng

type 'msg event =
  | Deliver of { src : int; msg : 'msg }
  | Timer of { tag : string; payload : int }

type 'msg config = {
  seed : int64;
  size_of : 'msg -> int;
  label_of : 'msg -> string;
  kind_of : 'msg -> string;
  latency_us : int;
  jitter_us : int;
  bandwidth_bps : int;
  drop_p : float;
  clock_skew_us : int;
  clock_drift_ppm : int;
}

let base_label label =
  match String.index_opt label '(' with Some i -> String.sub label 0 i | None -> label

let default_config ~size_of ~label_of =
  (* Default [kind_of] derives the accounting key from the trace label.
     Correct, but it formats the label's parameters on every send — hot
     message types should override the field with a constant-string
     function ([{ base with kind_of = ... }]). *)
  let kind_of msg = base_label (label_of msg) in
  {
    seed = 1L;
    size_of;
    label_of;
    kind_of;
    latency_us = 60;
    jitter_us = 15;
    bandwidth_bps = 100_000_000;
    drop_p = 0.0;
    clock_skew_us = 50_000;
    clock_drift_ppm = 100;
  }

type counters = {
  mutable sent_msgs : int;
  mutable sent_bytes : int;
  mutable recv_msgs : int;
  mutable recv_bytes : int;
  mutable dropped_msgs : int;
  mutable corrupted_msgs : int;
}

let fresh_counters () =
  {
    sent_msgs = 0;
    sent_bytes = 0;
    recv_msgs = 0;
    recv_bytes = 0;
    dropped_msgs = 0;
    corrupted_msgs = 0;
  }

(* A scheduled fault on a set of links; [-1] endpoints are wildcards.
   Expired windows are pruned lazily on the next send. *)
type fault_kind = F_delay of int | F_drop of float | F_corrupt of float

type link_fault = {
  lf_src : int;
  lf_dst : int;
  lf_kind : fault_kind;
  lf_until : Sim_time.t;
}

(* Live gauges exported when a metrics registry is attached; the engine is
   otherwise observable only through its counter records. *)
type obs = {
  om : Base_obs.Metrics.t;
  og_queue : Base_obs.Metrics.gauge;
  oc_corrupted : Base_obs.Metrics.counter;
  og_inflight : (int, Base_obs.Metrics.gauge) Hashtbl.t;
}

type 'msg node = {
  handler : 'msg t -> 'msg event -> unit;
  mutable up : bool;
  clock_offset : int64;
  clock_drift : float; (* multiplicative, close to 1.0 *)
  counters : counters;
  mutable inflight : int;  (* queued deliveries addressed to this node *)
}

and 'msg queued =
  | Q_deliver of { src : int; dst : int; msg : 'msg; size : int }
  | Q_timer of { id : int; node : int; tag : string; payload : int }

and 'msg t = {
  config : 'msg config;
  rng : Prng.t;
  queue : 'msg queued Event_heap.t;
  (* Nodes indexed by id: ids are dense (replicas, clients, then the
     orchestrator/injector pseudo-nodes), so an option array turns the
     two table lookups per message into loads. *)
  mutable nodes : 'msg node option array;
  mutable n_nodes : int;
  mutable time : Sim_time.t;
  mutable next_timer_id : int;
  cancelled : (int, unit) Hashtbl.t;
  mutable partition_groups : (int list * int list) option;
  totals : counters;
  (* Per-message-type traffic breakdown, keyed by [config.kind_of]. *)
  labels : (string, counters) Hashtbl.t;
  mutable max_queue_depth : int;
  mutable tracers : (Sim_time.t -> string -> unit) list;
  mutable link_faults : link_fault list;
  mutable corruptor : (Prng.t -> 'msg -> 'msg option) option;
  mutable obs : obs option;
  mutable prof : Base_obs.Profile.t;
  mutable p_send : Base_obs.Profile.probe;
  mutable p_dispatch : Base_obs.Profile.probe;
}

let create config =
  {
    config;
    rng = Prng.create config.seed;
    queue = Event_heap.create ();
    nodes = [||];
    n_nodes = 0;
    time = Sim_time.zero;
    next_timer_id = 0;
    cancelled = Hashtbl.create 16;
    partition_groups = None;
    totals = fresh_counters ();
    labels = Hashtbl.create 16;
    max_queue_depth = 0;
    tracers = [];
    link_faults = [];
    corruptor = None;
    obs = None;
    prof = Base_obs.Profile.disabled;
    p_send = Base_obs.Profile.probe Base_obs.Profile.disabled "engine.send";
    p_dispatch = Base_obs.Profile.probe Base_obs.Profile.disabled "engine.dispatch";
  }

let label_counters_of t msg =
  let key = t.config.kind_of msg in
  match Hashtbl.find_opt t.labels key with
  | Some c -> c
  | None ->
    let c = fresh_counters () in
    Hashtbl.replace t.labels key c;
    c

let note_queue_depth t =
  let depth = Event_heap.length t.queue in
  if depth > t.max_queue_depth then t.max_queue_depth <- depth;
  match t.obs with
  | None -> ()
  | Some o -> Base_obs.Metrics.set o.og_queue (float_of_int depth)

let inflight_gauge o id =
  match Hashtbl.find_opt o.og_inflight id with
  | Some g -> g
  | None ->
    let g = Base_obs.Metrics.gauge o.om (Printf.sprintf "engine.inflight.n%02d" id) in
    Hashtbl.replace o.og_inflight id g;
    g

let find_node t id = if id >= 0 && id < Array.length t.nodes then t.nodes.(id) else None

let note_inflight t id delta =
  match find_node t id with
  | None -> ()
  | Some n ->
    n.inflight <- n.inflight + delta;
    (match t.obs with
    | None -> ()
    | Some o -> Base_obs.Metrics.set (inflight_gauge o id) (float_of_int n.inflight))

(* Callers guard every call on [t.tracers <> []]: kasprintf renders the
   format eagerly, which would otherwise put a sprintf on the per-message
   hot path of every untraced run. *)
let trace t fmt =
  Format.kasprintf (fun s -> List.iter (fun f -> f t.time s) t.tracers) fmt

let add_node t ~id handler =
  if find_node t id <> None then invalid_arg "Engine.add_node: duplicate id";
  if id < 0 then invalid_arg "Engine.add_node: negative id";
  if id >= Array.length t.nodes then begin
    let cap = max 16 (max (id + 1) (2 * Array.length t.nodes)) in
    let nodes = Array.make cap None in
    Array.blit t.nodes 0 nodes 0 (Array.length t.nodes);
    t.nodes <- nodes
  end;
  (* Offsets are non-negative (clocks ahead of virtual time by up to twice
     the skew) so local wall clocks never read negative near the origin. *)
  let skew = t.config.clock_skew_us in
  let offset = if skew = 0 then 0L else Int64.of_int (Prng.int t.rng (2 * skew)) in
  let ppm = t.config.clock_drift_ppm in
  let drift =
    if ppm = 0 then 1.0 else 1.0 +. (float_of_int (Prng.int t.rng (2 * ppm) - ppm) /. 1e6)
  in
  t.nodes.(id) <-
    Some
      {
        handler;
        up = true;
        clock_offset = offset;
        clock_drift = drift;
        counters = fresh_counters ();
        inflight = 0;
      };
  t.n_nodes <- t.n_nodes + 1

let node_count t = t.n_nodes

let get_node t id =
  match find_node t id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Engine: unknown node %d" id)

let set_node_up t id up = (get_node t id).up <- up

let node_is_up t id = (get_node t id).up

let now t = t.time

let local_clock t id =
  let n = get_node t id in
  Int64.add (Int64.of_float (Int64.to_float t.time *. n.clock_drift)) n.clock_offset

let blocked t src dst =
  match t.partition_groups with
  | None -> false
  | Some (a, b) -> (List.mem src a && List.mem dst b) || (List.mem src b && List.mem dst a)

let link_matches f ~src ~dst =
  (f.lf_src = -1 || f.lf_src = src) && (f.lf_dst = -1 || f.lf_dst = dst)

(* Prune expired windows, then select the ones covering this link.  Pruning
   happens on the send path so an idle engine holds expired faults — harmless,
   they match nothing once [lf_until] passes. *)
let active_faults t ~src ~dst =
  match t.link_faults with
  | [] -> []
  | fs ->
    t.link_faults <- List.filter (fun f -> Sim_time.compare f.lf_until t.time > 0) fs;
    List.filter (fun f -> link_matches f ~src ~dst) t.link_faults

let add_fault t ~src ~dst ~until kind =
  t.link_faults <- { lf_src = src; lf_dst = dst; lf_kind = kind; lf_until = until } :: t.link_faults

let fault_delay t ~src ~dst ~extra_us ~until = add_fault t ~src ~dst ~until (F_delay extra_us)

let fault_drop t ~src ~dst ~p ~until = add_fault t ~src ~dst ~until (F_drop p)

let fault_corrupt t ~src ~dst ~p ~until = add_fault t ~src ~dst ~until (F_corrupt p)

let clear_link_faults t = t.link_faults <- []

let set_corruptor t f = t.corruptor <- Some f

let send t ?(extra_us = 0) ~src ~dst msg =
  Base_obs.Profile.start t.prof t.p_send;
  let size = t.config.size_of msg in
  let sender = get_node t src in
  let per_label = label_counters_of t msg in
  sender.counters.sent_msgs <- sender.counters.sent_msgs + 1;
  sender.counters.sent_bytes <- sender.counters.sent_bytes + size;
  t.totals.sent_msgs <- t.totals.sent_msgs + 1;
  t.totals.sent_bytes <- t.totals.sent_bytes + size;
  per_label.sent_msgs <- per_label.sent_msgs + 1;
  per_label.sent_bytes <- per_label.sent_bytes + size;
  let faults = active_faults t ~src ~dst in
  let drop why =
    t.totals.dropped_msgs <- t.totals.dropped_msgs + 1;
    sender.counters.dropped_msgs <- sender.counters.dropped_msgs + 1;
    per_label.dropped_msgs <- per_label.dropped_msgs + 1;
    if t.tracers <> [] then
      trace t "drop  %d->%d %s (%dB)%s" src dst (t.config.label_of msg) size why
  in
  let dropped =
    blocked t src dst
    || (t.config.drop_p > 0.0 && Prng.bernoulli t.rng t.config.drop_p)
    || List.exists
         (fun f ->
           match f.lf_kind with
           | F_drop p -> p > 0.0 && Prng.bernoulli t.rng p
           | F_delay _ | F_corrupt _ -> false)
         faults
  in
  (if dropped then drop ""
   else begin
     let deliver ~corrupted msg' =
       if corrupted then begin
         t.totals.corrupted_msgs <- t.totals.corrupted_msgs + 1;
         sender.counters.corrupted_msgs <- sender.counters.corrupted_msgs + 1;
         per_label.corrupted_msgs <- per_label.corrupted_msgs + 1;
         (match t.obs with
         | None -> ()
         | Some o -> Base_obs.Metrics.incr o.oc_corrupted);
         if t.tracers <> [] then
           trace t "crpt  %d->%d %s (%dB)" src dst (t.config.label_of msg) size
       end;
       let fault_extra =
         List.fold_left
           (fun acc f -> match f.lf_kind with F_delay d -> acc + d | _ -> acc)
           extra_us faults
       in
       let jitter =
         if t.config.jitter_us = 0 then 0.0
         else Prng.exponential t.rng ~mean:(float_of_int t.config.jitter_us)
       in
       let tx_us =
         if t.config.bandwidth_bps = 0 then 0.0
         else float_of_int (size * 8) /. float_of_int t.config.bandwidth_bps *. 1e6
       in
       let delay =
         Sim_time.of_us (t.config.latency_us + fault_extra + int_of_float (jitter +. tx_us))
       in
       if t.tracers <> [] then
         trace t "send  %d->%d %s (%dB)" src dst (t.config.label_of msg) size;
       Event_heap.push t.queue ~time:(Sim_time.add t.time delay)
         (Q_deliver { src; dst; msg = msg'; size });
       note_inflight t dst 1;
       note_queue_depth t
     in
     let wants_corrupt =
       List.exists
         (fun f ->
           match f.lf_kind with
           | F_corrupt p -> p > 0.0 && Prng.bernoulli t.rng p
           | F_delay _ | F_drop _ -> false)
         faults
     in
     if not wants_corrupt then deliver ~corrupted:false msg
     else
       (* A corrupt window needs a message-type-aware corruptor; without one
          (or when it declines) the mangled bytes are unparseable noise and
          the message is simply lost. *)
       match t.corruptor with
       | None -> drop " (corrupt)"
       | Some c -> (
         match c t.rng msg with
         | Some msg' -> deliver ~corrupted:true msg'
         | None -> drop " (corrupt)")
   end);
  Base_obs.Profile.stop t.prof t.p_send

let multicast t ?extra_us ~src ~dsts msg =
  List.iter (fun dst -> send t ?extra_us ~src ~dst msg) dsts

let partition t a b = t.partition_groups <- Some (a, b)

let heal t = t.partition_groups <- None

let set_timer t ~node ~after ~tag ~payload =
  let id = t.next_timer_id in
  t.next_timer_id <- id + 1;
  Event_heap.push t.queue ~time:(Sim_time.add t.time after)
    (Q_timer { id; node; tag; payload });
  note_queue_depth t;
  id

(* Cancelled timers stay queued until popped, and [cancelled] holds their
   ids until then; ids of timers cancelled after they fired stay in it for
   good.  Once [cancelled] reaches [purge_floor] entries and outnumbers half
   the queue, one linear pass drops the cancelled timers and the table
   starts over.  Nothing popped changes: a cancelled timer does nothing
   when dispatched, and the survivors' (time, seq) keys are unique. *)
let purge_floor = 64

let cancel_timer t id =
  Hashtbl.replace t.cancelled id ();
  let n = Hashtbl.length t.cancelled in
  if n >= purge_floor && 2 * n > Event_heap.length t.queue then begin
    Event_heap.filter t.queue (function
      | Q_timer { id; _ } -> not (Hashtbl.mem t.cancelled id)
      | Q_deliver _ -> true);
    Hashtbl.reset t.cancelled;
    note_queue_depth t
  end

let dispatch t queued =
  Base_obs.Profile.start t.prof t.p_dispatch;
  (match queued with
  | Q_deliver { src; dst; msg; size } -> begin
    note_inflight t dst (-1);
    match find_node t dst with
    | None -> ()
    | Some node ->
      let per_label = label_counters_of t msg in
      if node.up then begin
        node.counters.recv_msgs <- node.counters.recv_msgs + 1;
        node.counters.recv_bytes <- node.counters.recv_bytes + size;
        t.totals.recv_msgs <- t.totals.recv_msgs + 1;
        t.totals.recv_bytes <- t.totals.recv_bytes + size;
        per_label.recv_msgs <- per_label.recv_msgs + 1;
        per_label.recv_bytes <- per_label.recv_bytes + size;
        if t.tracers <> [] then trace t "deliv %d->%d %s" src dst (t.config.label_of msg);
        node.handler t (Deliver { src; msg })
      end
      else begin
        t.totals.dropped_msgs <- t.totals.dropped_msgs + 1;
        per_label.dropped_msgs <- per_label.dropped_msgs + 1;
        if t.tracers <> [] then
          trace t "lost  %d->%d %s (node down)" src dst (t.config.label_of msg)
      end
  end
  | Q_timer { id; node; tag; payload } ->
    if not (Hashtbl.mem t.cancelled id) then begin
      match find_node t node with
      | Some n when n.up -> n.handler t (Timer { tag; payload })
      | Some _ | None -> ()
    end
    else Hashtbl.remove t.cancelled id);
  Base_obs.Profile.stop t.prof t.p_dispatch

let step t =
  if Event_heap.is_empty t.queue then false
  else begin
    let queued = Event_heap.pop_exn t.queue in
    let time = Event_heap.last_time t.queue in
    if Sim_time.compare time t.time > 0 then t.time <- time;
    note_queue_depth t;
    dispatch t queued;
    true
  end

let run ?until ?max_events t =
  let handled = ref 0 in
  let continue () =
    (match max_events with Some m -> !handled < m | None -> true)
    &&
    match (until, Event_heap.min_time t.queue) with
    | _, None -> false
    | None, Some _ -> true
    | Some limit, Some next -> Sim_time.(next <= limit)
  in
  while continue () do
    ignore (step t);
    incr handled
  done;
  match until with
  | Some limit when Sim_time.(t.time < limit) -> t.time <- limit
  | _ -> ()

let advance_to t limit = run ~until:limit t

let prng t = t.rng

let node_counters t id = (get_node t id).counters

let total_counters t = t.totals

let label_counters t =
  Hashtbl.fold (fun label c acc -> (label, c) :: acc) t.labels []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let queue_depth t = Event_heap.length t.queue

let max_queue_depth t = t.max_queue_depth

let node_inflight t id = (get_node t id).inflight

let set_tracer t f = t.tracers <- t.tracers @ [ f ]

let attach_metrics t m =
  let o =
    {
      om = m;
      og_queue = Base_obs.Metrics.gauge m "engine.queue_depth";
      oc_corrupted = Base_obs.Metrics.counter m "engine.corrupted_msgs";
      og_inflight = Hashtbl.create 16;
    }
  in
  t.obs <- Some o;
  note_queue_depth t

let attach_profile t p =
  t.prof <- p;
  t.p_send <- Base_obs.Profile.probe p "engine.send";
  t.p_dispatch <- Base_obs.Profile.probe p "engine.dispatch"
