(** Fault-plan execution and the Byzantine-primary adversary. *)

type t

val create :
  Cell.ctx ->
  cells:Cell.t array array ->
  standbys:Cell.t array ->
  xshard:Xshard.t ->
  recovery:Recovery.t ->
  t

val apply : t -> Base_sim.Faultplan.t -> unit
(** Check the whole plan, then schedule it on the orchestrator.  Raises
    [Invalid_argument] naming the first event that names a node or shard
    the system does not have. *)

val on_timer : t -> int -> unit
(** The orchestrator's [fault] timer: execute plan event [payload]. *)

val set_behavior : t -> node:int -> shard:int option -> Base_bft.Replica.behavior -> unit
(** Set the behaviour of replica [node] in [shard], or in every shard it
    hosts.  Raises [Invalid_argument] if the system has no such replica or
    shard. *)

val pp_extra : t -> int -> Base_bft.Message.envelope -> int option
(** The adversary's verdict on one message sent by replica [rid]: [None]
    mutes it, [Some extra_us] delays it. *)
