module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Faultplan = Base_sim.Faultplan
module Types = Base_bft.Types
module Message = Base_bft.Message
module Replica = Base_bft.Replica

(* An active Byzantine-primary attack window: while [atk_until] is in the
   future, pre-prepares sent by [atk_node] are muted with probability
   [atk_mute_p] and the surviving ones delayed by [atk_delay_us]. *)
type pp_attack = {
  atk_node : int;
  atk_shard : int option;  (* [None] attacks the node's pre-prepares in every shard *)
  atk_mute_p : float;
  atk_delay_us : int;
  atk_until : int64;
}

type t = {
  cx : Cell.ctx;
  cells : Cell.t array array;  (* [cells.(shard).(rid)] *)
  standbys : Cell.t array;
  xshard : Xshard.t;
  recovery : Recovery.t;
  mutable plan : Faultplan.event array;  (* scheduled chaos, indexed by timer payload *)
  mutable attack : pp_attack option;
  mutable roll_cursor : int;  (* next slot a faultplan [promote] fills *)
}

let create cx ~cells ~standbys ~xshard ~recovery =
  { cx; cells; standbys; xshard; recovery; plan = [||]; attack = None; roll_cursor = 0 }

(* Why a fault aimed at replica [node] (in [shard], or every shard it
   hosts) cannot run on this system, if it cannot. *)
let target_error c ~node ~shard =
  if node < 0 || node >= c.cx.Cell.config.Types.n then Some (Printf.sprintf "no replica %d" node)
  else
    match shard with
    | Some s when s < 0 || s >= Array.length c.cells -> Some (Printf.sprintf "no shard %d" s)
    | Some _ | None -> None

let event_error c (ev : Faultplan.event) =
  let config = c.cx.Cell.config in
  match ev.Faultplan.action with
  | Faultplan.Crash id | Faultplan.Reboot id ->
    (* Every node the engine knows: replicas, standbys and clients. *)
    if id >= 0 && id < config.Types.n_principals then None
    else Some (Printf.sprintf "no node %d" id)
  | Faultplan.Promote id | Faultplan.Crash_standby id ->
    if Types.is_standby config id then None else Some (Printf.sprintf "no standby %d" id)
  | Faultplan.Set_behavior { node; shard; _ } | Faultplan.Attack_pre_prepare { node; shard; _ } ->
    target_error c ~node ~shard
  | Faultplan.Partition _ | Faultplan.Heal | Faultplan.Delay_link _ | Faultplan.Drop_link _
  | Faultplan.Corrupt_link _ ->
    None

let reject ~what reason = raise (Invalid_argument (Printf.sprintf "%s: %s" what reason))

let set_behavior c ~node ~shard b =
  Option.iter (reject ~what:"Runtime.set_behavior") (target_error c ~node ~shard);
  match shard with
  | Some s -> Replica.set_behavior c.cells.(s).(node).Cell.replica b
  | None -> Array.iter (fun row -> Replica.set_behavior row.(node).Cell.replica b) c.cells

let replica_behavior = function
  | Faultplan.B_honest -> Replica.Honest
  | Faultplan.B_mute -> Replica.Mute
  | Faultplan.B_lie -> Replica.Lie_in_replies
  | Faultplan.B_equivocate -> Replica.Equivocate

let link_attr src dst =
  let e v = if v = -1 then "*" else string_of_int v in
  Printf.sprintf "%s->%s" (e src) (e dst)

let shard_attr = function Some s -> [ ("shard", string_of_int s) ] | None -> []

let exec_fault c (ev : Faultplan.event) =
  let engine = c.cx.Cell.engine and n = c.cx.Cell.config.Types.n in
  let until for_us = Sim_time.add (Engine.now engine) (Sim_time.of_us for_us) in
  match ev.Faultplan.action with
  | Faultplan.Crash id ->
    Engine.set_node_up engine id false;
    Cell.trace_event c.cx "fault.crash" [ ("rid", string_of_int id) ]
  | Faultplan.Reboot id ->
    Engine.set_node_up engine id true;
    (* A rebooted node lost its pending timers with the crash; re-arm. *)
    if id < n then begin
      Array.iter
        (fun row ->
          let node = row.(id) in
          Replica.on_reboot node.Cell.replica;
          (* The st_retry chain is a runtime-level timer, so it died with
             the crash too.  A fetch that was in flight would otherwise sit
             wedged forever (status Fetching, no retries, no retarget) —
             restart it against the freshest certified checkpoint. *)
          if not (Cell.idle node) then Cell.retarget c.cx node ~reason:"reboot")
        c.cells;
      Xshard.rearm c.xshard id
    end
    else if Types.is_standby c.cx.Cell.config id then begin
      (* A rebooted standby lost its shadow-sync timer (and any in-flight
         sync) with the crash; drop the dead fetcher and restart the tick. *)
      let sb = c.standbys.(id - n) in
      Cell.drop_fetch sb;
      Recovery.arm_shadow c.recovery sb
    end;
    Cell.trace_event c.cx "fault.reboot" [ ("rid", string_of_int id) ]
  | Faultplan.Promote sbid ->
    (* Faultplan promotions roll through the replica slots in order, like
       the migrating watchdog would; the verb exists to stage promotion
       races (promote just after crash-standby) deterministically. *)
    let slot = c.roll_cursor mod n in
    c.roll_cursor <- c.roll_cursor + 1;
    Cell.trace_event c.cx "fault.promote"
      [ ("sb", string_of_int sbid); ("slot", string_of_int slot) ];
    Recovery.start c.recovery ~slot (Recovery.Migrate c.standbys.(sbid - n))
  | Faultplan.Crash_standby sbid ->
    Engine.set_node_up engine sbid false;
    Cell.trace_event c.cx "fault.crash_standby" [ ("sb", string_of_int sbid) ]
  | Faultplan.Partition (a, b) ->
    Engine.partition engine a b;
    Cell.trace_event c.cx "fault.partition"
      [
        ("a", String.concat "," (List.map string_of_int a));
        ("b", String.concat "," (List.map string_of_int b));
      ]
  | Faultplan.Heal ->
    Engine.heal engine;
    Cell.trace_event c.cx "fault.heal" []
  | Faultplan.Delay_link { src; dst; extra_us; for_us } ->
    Engine.fault_delay engine ~src ~dst ~extra_us ~until:(until for_us);
    Cell.trace_event c.cx "fault.delay"
      [ ("extra_us", string_of_int extra_us); ("link", link_attr src dst) ]
  | Faultplan.Drop_link { src; dst; p; for_us } ->
    Engine.fault_drop engine ~src ~dst ~p ~until:(until for_us);
    Cell.trace_event c.cx "fault.drop" [ ("link", link_attr src dst); ("p", Printf.sprintf "%g" p) ]
  | Faultplan.Corrupt_link { src; dst; p; for_us } ->
    Engine.fault_corrupt engine ~src ~dst ~p ~until:(until for_us);
    Cell.trace_event c.cx "fault.corrupt"
      [ ("link", link_attr src dst); ("p", Printf.sprintf "%g" p) ]
  | Faultplan.Set_behavior { node; behavior; shard } ->
    set_behavior c ~node ~shard (replica_behavior behavior);
    Cell.trace_event c.cx "fault.behavior"
      ([ ("behavior", Faultplan.behavior_name behavior); ("rid", string_of_int node) ]
      @ shard_attr shard)
  | Faultplan.Attack_pre_prepare { node; mute_p; delay_us; for_us; shard } ->
    c.attack <-
      Some { atk_node = node; atk_shard = shard; atk_mute_p = mute_p; atk_delay_us = delay_us;
             atk_until = until for_us };
    Cell.trace_event c.cx "fault.attack_preprepare"
      ([
         ("delay_us", string_of_int delay_us);
         ("mute", Printf.sprintf "%g" mute_p);
         ("rid", string_of_int node);
       ]
      @ shard_attr shard)

(* A plan naming a node or shard this system does not have is rejected
   whole, before anything is scheduled: executing it would index past the
   system from inside the simulation, where a stall is supposed to be data. *)
let apply c plan =
  List.iter
    (fun ev ->
      match event_error c ev with
      | Some reason ->
        let text = String.trim (Faultplan.to_string [ ev ]) in
        reject ~what:(Printf.sprintf "Runtime.apply_faultplan: %S" text) reason
      | None -> ())
    plan;
  let base = Array.length c.plan in
  c.plan <- Array.append c.plan (Array.of_list plan);
  List.iteri
    (fun i (ev : Faultplan.event) ->
      Cell.arm_orchestrator c.cx ~after_us:ev.Faultplan.at_us ~tag:"fault" ~payload:(base + i))
    plan

let on_timer c payload =
  if payload >= 0 && payload < Array.length c.plan then exec_fault c c.plan.(payload)

(* The adversary's view of one outgoing replica message: [None] means the
   attacked primary mutes it, [Some extra_us] lets it through with that much
   added delay.  Muting draws per destination, so a broadcast can reach an
   arbitrary subset of the backups — omission-style equivocation. *)
let pp_extra c rid (env : Message.envelope) =
  match c.attack with
  | Some atk
    when atk.atk_node = rid
         && Sim_time.compare (Engine.now c.cx.Cell.engine) atk.atk_until < 0
         && (match atk.atk_shard with
            | Some s -> env.Message.shard = s
            | None -> true)
         && (match env.Message.body with Message.Pre_prepare _ -> true | _ -> false) ->
    if
      atk.atk_mute_p > 0.0
      && Base_util.Prng.bernoulli (Engine.prng c.cx.Cell.engine) atk.atk_mute_p
    then begin
      Cell.count c.cx "adversary.pp_muted";
      None
    end
    else begin
      if atk.atk_delay_us > 0 then Cell.count c.cx "adversary.pp_delayed";
      Some atk.atk_delay_us
    end
  | _ -> Some 0
