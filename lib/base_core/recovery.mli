(** Proactive recovery: the watchdog, recovery episodes, standby shadow
    sync and the per-episode timelines.

    An episode takes one replica slot offline and brings it back clean by
    one of two strategies: [In_place] reboots the machine and
    differential-fetches what differs from the group; [Migrate] promotes a
    shadow-synced warm standby into the slot and demotes the old machine
    into the pool (Zhao-style proactive service migration). *)

type strategy = In_place | Migrate of Cell.t  (** the standby to promote *)

type t

val create :
  Cell.ctx ->
  chains:Base_crypto.Auth.keychain array ->
  cells:Cell.t array array ->
  standbys:Cell.t array ->
  t

val enable :
  t -> reboot_us:int -> ?promote_us:int -> migrate:bool -> period_us:int -> unit -> unit
(** Start the staggered watchdog; see
    {!Runtime.enable_proactive_recovery}. *)

val disable : t -> unit

val start : ?reboot_us:int -> t -> slot:int -> strategy -> unit
(** Begin an episode on [slot] unless one is already handing off.  A
    migration whose standby is not promotable right now degrades to
    [In_place]. *)

val promote_now : t -> int -> unit
(** Migrate [slot] to the freshest promotable standby, in place if none. *)

val on_timer : t -> tag:string -> payload:int -> unit
(** The orchestrator's [watchdog], [reboot_done] and [promote_done]
    timers. *)

val start_fetch : t -> Cell.t -> seq:int -> digest:Base_crypto.Digest_t.t -> unit
(** The {!Base_bft.Replica.app} [start_fetch] hook of an active cell: the
    verified checkpoint closes the slot's episode and resumes the
    protocol. *)

val shadow_tick : t -> Cell.t -> unit
(** A standby's [shadow_sync] timer: chase the stable checkpoint. *)

val arm_shadow : t -> Cell.t -> unit
(** (Re-)arm a standby's shadow-sync timer. *)

val timelines : t -> Cell.recovery_timeline list
(** Every episode so far, oldest first. *)
