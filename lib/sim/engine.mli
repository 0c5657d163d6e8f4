(** Deterministic discrete-event network simulator.

    The engine multiplexes a set of numbered nodes (replicas and clients of
    the replicated service) over a virtual network.  Nodes communicate only
    through {!send}/{!multicast} and react to {!event}s delivered by the
    scheduler; all latencies, drops and clock skews are drawn from a seeded
    PRNG, so a run is a pure function of its seed.

    The network model captures what the BASE evaluation depends on: per-link
    latency with jitter, per-byte transmission cost (bandwidth), message
    loss, partitions, and node crash/reboot.  Per-node logical clocks with
    configurable skew and drift model the divergent local clocks that make
    off-the-shelf service implementations non-deterministic. *)

type 'msg t

type 'msg event =
  | Deliver of { src : int; msg : 'msg }
      (** A network message from [src] arrived. *)
  | Timer of { tag : string; payload : int }
      (** A timer set by this node fired. *)

type 'msg config = {
  seed : int64;
  size_of : 'msg -> int;  (** wire size estimate, drives bandwidth cost *)
  label_of : 'msg -> string;  (** one-line label used by traces *)
  kind_of : 'msg -> string;
      (** accounting key for {!label_counters} — should return a constant
          string per message type (allocation-free: it runs on every send
          and delivery) *)
  latency_us : int;  (** one-way propagation delay *)
  jitter_us : int;  (** mean of the exponential jitter component *)
  bandwidth_bps : int;  (** link bandwidth; 0 = infinite *)
  drop_p : float;  (** iid message-loss probability *)
  clock_skew_us : int;  (** max |offset| of a node's local clock *)
  clock_drift_ppm : int;  (** max |drift| of a node's local clock *)
}

val default_config : size_of:('msg -> int) -> label_of:('msg -> string) -> 'msg config
(** A switched-LAN-like setup: 60 us latency, 15 us jitter, 100 Mbit/s, no
    loss, 50 ms skew, 100 ppm drift, seed 1.  [kind_of] defaults to
    [label_of] with its parameter list stripped
    (["PRE-PREPARE(v=0,n=2)"] -> ["PRE-PREPARE"]) — correct but it formats
    the full label per send; override the field with a constant-string
    function on hot paths ([{ base with kind_of = ... }]). *)

val create : 'msg config -> 'msg t

(** {1 Nodes} *)

val add_node : 'msg t -> id:int -> ('msg t -> 'msg event -> unit) -> unit
(** Register node [id] with its event handler.  Ids must be unique. *)

val node_count : 'msg t -> int

val set_node_up : 'msg t -> int -> bool -> unit
(** A down node loses every message and timer addressed to it. *)

val node_is_up : 'msg t -> int -> bool

(** {1 Communication} *)

val send : 'msg t -> ?extra_us:int -> src:int -> dst:int -> 'msg -> unit
(** [extra_us] adds a per-message delay on top of the modelled network cost —
    the hook an adversary uses to selectively slow down individual protocol
    messages without touching the link configuration. *)

val multicast : 'msg t -> ?extra_us:int -> src:int -> dsts:int list -> 'msg -> unit

val partition : 'msg t -> int list -> int list -> unit
(** [partition t a b] blocks traffic between groups [a] and [b] until
    {!heal}. *)

val heal : 'msg t -> unit

(** {1 Scheduled link faults}

    Timed fault windows composable per link: each window applies to messages
    sent while virtual time is before [until], on links matching
    [src]/[dst] ([-1] is a wildcard endpoint).  Windows stack — two delay
    windows on the same link add up, and every matching drop/corrupt window
    draws its own Bernoulli trial.  Expired windows are pruned lazily. *)

val fault_delay :
  'msg t -> src:int -> dst:int -> extra_us:int -> until:Sim_time.t -> unit
(** Add [extra_us] of one-way delay to matching messages. *)

val fault_drop : 'msg t -> src:int -> dst:int -> p:float -> until:Sim_time.t -> unit
(** Drop matching messages with probability [p] (on top of the base
    [drop_p]). *)

val fault_corrupt : 'msg t -> src:int -> dst:int -> p:float -> until:Sim_time.t -> unit
(** With probability [p], pass a matching message through the corruptor
    installed by {!set_corruptor}.  Without a corruptor — or when it returns
    [None] — the message is dropped instead (mangled beyond recognition). *)

val clear_link_faults : 'msg t -> unit

val set_corruptor : 'msg t -> (Base_util.Prng.t -> 'msg -> 'msg option) -> unit
(** Install the message corruptor used by {!fault_corrupt} windows: given
    engine randomness and the in-flight message, produce the damaged variant
    actually delivered ([None] = not corruptible, drop it).  Corrupted
    deliveries are counted in [corrupted_msgs] and, when {!attach_metrics}
    was called, in the [engine.corrupted_msgs] counter. *)

(** {1 Time and timers} *)

val now : 'msg t -> Sim_time.t

val local_clock : 'msg t -> int -> int64
(** The node's own wall clock in microseconds: virtual time distorted by the
    node's skew and drift.  This is the clock a service implementation reads
    for timestamps — different at every replica. *)

val set_timer : 'msg t -> node:int -> after:Sim_time.t -> tag:string -> payload:int -> int
(** Returns a timer id usable with {!cancel_timer}. *)

val cancel_timer : 'msg t -> int -> unit
(** The timer never fires.  Cancelling a timer that already fired, or one
    already cancelled, is a no-op.  A cancelled timer may stay queued until
    its deadline; once at least 64 cancellations are outstanding and they
    make up more than half the queue, this call drops every cancelled timer
    from the queue in one linear pass.  Dispatch order of the remaining
    events is unchanged. *)

(** {1 Execution} *)

val run : ?until:Sim_time.t -> ?max_events:int -> 'msg t -> unit
(** Process events in timestamp order until the queue drains, [until] is
    reached, or [max_events] have been handled. *)

val step : 'msg t -> bool
(** Process one event; [false] when the queue is empty. *)

val advance_to : 'msg t -> Sim_time.t -> unit
(** Move virtual time forward with an empty-queue check: processes all events
    up to the given instant. *)

val prng : 'msg t -> Base_util.Prng.t
(** Engine-owned randomness (for workloads that need it). *)

(** {1 Accounting and tracing} *)

type counters = {
  mutable sent_msgs : int;
  mutable sent_bytes : int;
  mutable recv_msgs : int;
  mutable recv_bytes : int;
  mutable dropped_msgs : int;
  mutable corrupted_msgs : int;  (** delivered after in-flight corruption *)
}

val node_counters : 'msg t -> int -> counters

val total_counters : 'msg t -> counters

val label_counters : 'msg t -> (string * counters) list
(** Traffic broken down by message type, keyed by [config.kind_of] (by
    default the label with its parameter list stripped:
    ["PRE-PREPARE(v=0,n=2)"] counts under ["PRE-PREPARE"]).  Sorted by
    key; [dropped_msgs] includes messages lost to a down destination. *)

val queue_depth : 'msg t -> int
(** Events (messages and timers) currently queued, counting cancelled
    timers not yet dropped.  Right after any {!cancel_timer} those number
    fewer than 64 or at most as many as the live events. *)

val max_queue_depth : 'msg t -> int
(** High-water mark of {!queue_depth} over the run. *)

val node_inflight : 'msg t -> int -> int
(** Deliveries currently queued for this node. *)

val set_tracer : 'msg t -> (Sim_time.t -> string -> unit) -> unit
(** Register a callback receiving a line per network event (send, deliver,
    drop, corrupt).  Tracers compose: every registered callback sees every
    line, so the architecture-trace experiment and the structured trace ring
    can share the event stream. *)

val attach_metrics : 'msg t -> Base_obs.Metrics.t -> unit
(** Export live engine state into a metrics registry: the
    [engine.queue_depth] gauge (updated on every push/pop), per-node
    [engine.inflight.nXX] gauges, and the [engine.corrupted_msgs] counter.
    Values remain pure functions of the seed — the registry only mirrors
    simulator state. *)

val attach_profile : 'msg t -> Base_obs.Profile.t -> unit
(** Bracket the engine's two hot entry points with profiling probes:
    [engine.send] (accounting, fault draws, queue push) and
    [engine.dispatch] (event pop and handler invocation — node handler
    time, including nested protocol probes, accrues here too). *)
