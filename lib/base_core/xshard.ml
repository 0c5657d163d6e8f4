(* Cross-shard two-phase commit; see doc/sharding.md.  Each shard is an
   independent agreement instance over a slice of the abstract object
   array; an operation whose declared footprint spans several shards is
   ordered by the lowest one (the coordinator) and blocked on lock requests
   the runtime injects into every other involved shard (the participants).
   All events below are derived from committed sequence numbers, so every
   correct node drives the protocol through exactly the same states without
   extra communication. *)

module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Types = Base_bft.Types
module Replica = Base_bft.Replica

(* One participant shard of a cross-shard operation, as seen by one node.
   [xp_arrived] is the deterministic lock-acquisition event: the shard's
   agreement instance reached the lock request at its committed execution
   head and parked.  [xp_obliged] pairs the liveness obligation registered
   with {!Replica.add_external_pending} so it is cleared exactly once. *)
type xpart = {
  xp_shard : int;
  mutable xp_obliged : bool;
  mutable xp_arrived : bool;
}

(* Per-node record of one cross-shard operation, keyed by the client
   request's globally unique [(client, timestamp)] identity.  Entries are
   never removed: a missing entry is indistinguishable from a completed one,
   and late duplicate locks (view-change re-proposals) must keep resolving
   to "done" rather than re-opening the protocol. *)
type xop = {
  x_client : int;
  x_ts : int64;
  x_coord : int;  (* coordinator shard: the smallest in the footprint *)
  x_parts : xpart list;  (* ascending shard order *)
  mutable x_lock_ts : int64;  (* agreed lock timestamp; [-1L] until derived *)
  mutable x_done : bool;  (* the joint operation executed on this node *)
}

(* Cross-shard bookkeeping of one physical node (shared by its per-shard
   replica cells).  [xn_lock_mark] derives duplicate-free lock timestamps
   when one committed batch carries several cross-shard operations: queries
   at head sequence [seq] hand out [seq * (batch_max + 1) + k] with [k]
   counting up in batch order, which is agreed — so every node derives the
   same timestamps without communicating. *)
type xnode = {
  xn_rid : int;
  xn_ops : (string, xop) Hashtbl.t;  (* key "client:timestamp" *)
  xn_lock_mark : (int * int) array;  (* per coordinator shard: (head seq, next k) *)
  mutable xn_kick_armed : bool;
}

type t = {
  cx : Cell.ctx;
  cells : Cell.t array array;  (* [cells.(shard).(rid)] *)
  nodes : xnode array;  (* indexed by rid *)
}

let create cx cells =
  let node rid =
    { xn_rid = rid; xn_ops = Hashtbl.create 16;
      xn_lock_mark = Array.make (Array.length cells) (-1, 0); xn_kick_armed = false }
  in
  { cx; cells; nodes = Array.init cx.Cell.config.Types.n node }

(* An operation's [modify] touched an object outside the shards it is
   entitled to.  Raised before any mutation of the foreign object (wrappers
   call [modify] first), so aborting here is deterministic and leaves every
   shard's state consistent. *)
exception Xshard_footprint

(* The deterministic reply of an aborted out-of-footprint execution: every
   correct replica of the shard returns it, so agreement is unaffected; the
   client sees it as a service-level error. *)
let xabort_result = "#xshard-abort"

let xkey ~client ~ts = Printf.sprintf "%d:%Ld" client ts

(* Find-or-create: the first side to observe the operation on this node —
   coordinator gate or participant lock — materialises the record. *)
let xget xn ~client ~ts ~coord ~parts =
  let key = xkey ~client ~ts in
  match Hashtbl.find_opt xn.xn_ops key with
  | Some x -> x
  | None ->
    let x =
      {
        x_client = client;
        x_ts = ts;
        x_coord = coord;
        x_parts =
          List.map (fun s -> { xp_shard = s; xp_obliged = false; xp_arrived = false }) parts;
        x_lock_ts = -1L;
        x_done = false;
      }
    in
    Hashtbl.add xn.xn_ops key x;
    x

(* Lock requests ride the ordinary MACed request/pre-prepare path under a
   virtual client id ([Types.internal_client ~shard:coordinator_shard]); the
   operation string names the cross-shard operation they guard. *)
let lock_operation x =
  Printf.sprintf "xlock:%d:%d:%Ld:%s" x.x_coord x.x_client x.x_ts
    (String.concat "," (List.map (fun p -> string_of_int p.xp_shard) x.x_parts))

let parse_lock operation =
  match String.split_on_char ':' operation with
  | [ "xlock"; coord; client; ts; parts ] -> (
    match
      ( int_of_string_opt coord,
        int_of_string_opt client,
        Int64.of_string_opt ts,
        List.filter_map int_of_string_opt (String.split_on_char ',' parts) )
    with
    | Some coord, Some client, Some ts, (_ :: _ as parts) -> Some (coord, client, ts, parts)
    | _, _, _, _ -> None)
  | _ -> None

let assign_lock_ts xs xn ~coord ~seq =
  let mark_seq, k = xn.xn_lock_mark.(coord) in
  let k = if mark_seq = seq then k else 0 in
  xn.xn_lock_mark.(coord) <- (seq, k + 1);
  Int64.of_int ((seq * (xs.cx.Cell.config.Types.batch_max + 1)) + k)

(* Re-submission heartbeat: a participant primary that crashed (or lied)
   before ordering a lock would otherwise stall the coordinator forever.
   The cadence matches the view-change timeout, so by the time the kick
   fires a wedged participant shard has rotated its primary. *)
let arm_kick xs xn =
  if not xn.xn_kick_armed then begin
    xn.xn_kick_armed <- true;
    ignore
      (Engine.set_timer xs.cx.Cell.engine ~node:xn.xn_rid
         ~after:(Sim_time.of_us xs.cx.Cell.config.Types.viewchange_timeout_us)
         ~tag:"xkick" ~payload:0)
  end

(* The node's unfinished operations, in sorted key order — never in hash
   order — to keep runs deterministic. *)
let unfinished xn =
  Hashtbl.fold (fun key x acc -> if x.x_done then acc else (key, x) :: acc) xn.xn_ops []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let submit_lock xs xn (x : xop) (p : xpart) =
  Replica.submit_internal xs.cells.(p.xp_shard).(xn.xn_rid).Cell.replica
    {
      Base_bft.Message.client = Types.internal_client ~shard:x.x_coord;
      timestamp = x.x_lock_ts;
      operation = lock_operation x;
      read_only = false;
    }

let kick xs rid =
  let xn = xs.nodes.(rid) in
  xn.xn_kick_armed <- false;
  match List.filter (fun (_, x) -> Int64.compare x.x_lock_ts 0L >= 0) (unfinished xn) with
  | [] -> ()
  | live ->
    List.iter
      (fun (_, x) -> List.iter (fun p -> if not p.xp_arrived then submit_lock xs xn x p) x.x_parts)
      live;
    arm_kick xs xn

(* A rebooted node lost its kick timer with the crash. *)
let rearm xs rid =
  let xn = xs.nodes.(rid) in
  xn.xn_kick_armed <- false;
  match unfinished xn with [] -> () | _ :: _ -> arm_kick xs xn

(* The declared footprint of [operation], as the ascending list of shards it
   touches.  Pure protocol decode — every node's wrapper answers alike. *)
let footprint config (w : Service.wrapper) ~operation =
  match w.Service.oids_of_op ~operation with
  | [] -> []
  | oids -> List.sort_uniq Int.compare (List.map (fun oid -> Types.shard_of_oid config oid) oids)

let cell xs ~shard rid = xs.cells.(shard).(rid)

(* The execution gate of shard [shard]'s cell on node [rid] (the
   {!Replica.app.ready} hook; only installed when the space is sharded).

   Participant side (internal virtual clients): the first query on a lock
   request is the lock acquisition — the shard is parked at its committed
   head, so the acquisition point is the same sequence number on every
   replica.  The lock holds (gate closed) until the coordinator cell
   executes the joint operation.

   Coordinator side: a multi-shard client operation waits until every
   participant cell on this node has parked at its lock. *)
let ready xs ~rid ~shard ~client ~timestamp ~operation =
  let xn = xs.nodes.(rid) in
  if Types.is_internal_client client then begin
    match parse_lock operation with
    | None -> true  (* malformed internal request: execute as a no-op *)
    | Some (coord, xclient, xts, parts) ->
      let x = xget xn ~client:xclient ~ts:xts ~coord ~parts in
      if Int64.compare x.x_lock_ts 0L < 0 then x.x_lock_ts <- timestamp;
      if x.x_done then true
      else begin
        (match List.find_opt (fun p -> p.xp_shard = shard) x.x_parts with
        | Some p when not p.xp_arrived ->
          p.xp_arrived <- true;
          if p.xp_obliged then begin
            p.xp_obliged <- false;
            Replica.clear_external_pending (cell xs ~shard rid).Cell.replica
          end;
          (* The coordinator cell may be parked waiting for this arrival. *)
          if List.for_all (fun q -> q.xp_arrived) x.x_parts then
            Replica.resume_execution (cell xs ~shard:x.x_coord rid).Cell.replica
        | Some _ | None -> ());
        x.x_done
      end
  end
  else begin
    let node = cell xs ~shard rid in
    match footprint xs.cx.Cell.config node.Cell.wrapper ~operation with
    | [] | [ _ ] -> true
    | coord :: parts when coord = shard ->
      let x = xget xn ~client ~ts:timestamp ~coord ~parts in
      if x.x_done then true
      else begin
        if Int64.compare x.x_lock_ts 0L < 0 then begin
          (* First query: the committed head sequence is agreed, so the
             derived lock timestamp is identical on every node. *)
          let seq = Replica.last_executed node.Cell.replica + 1 in
          x.x_lock_ts <- assign_lock_ts xs xn ~coord ~seq
        end;
        let waiting = List.filter (fun p -> not p.xp_arrived) x.x_parts in
        List.iter
          (fun p ->
            if not p.xp_obliged then begin
              p.xp_obliged <- true;
              (* Keep the participant shard's view-change timer armed while
                 the lock is outstanding: a mute participant primary must
                 not be able to park the coordinator forever. *)
              Replica.add_external_pending (cell xs ~shard:p.xp_shard rid).Cell.replica
            end;
            submit_lock xs xn x p)
          waiting;
        (match waiting with
        | [] -> true
        | _ :: _ ->
          arm_kick xs xn;
          false)
      end
    | _ :: _ -> true  (* misrouted: execute; foreign modifies abort deterministically *)
  end

(* Route one [modify] upcall to the owning shard's repo (index-shifted into
   its slice).  [allowed] is the shard set the current execution holds: its
   own shard, plus — for a joint operation on the coordinator — every
   participant currently parked at its lock. *)
let xmodify xs ~rid ~allowed i =
  let config = xs.cx.Cell.config in
  let owner = Types.shard_of_oid config i in
  if not (List.exists (fun s -> s = owner) allowed) then raise Xshard_footprint;
  let c = cell xs ~shard:owner rid in
  let lo, _ = Types.shard_range config ~n_objects:c.Cell.wrapper.Service.n_objects owner in
  Objrepo.modify c.Cell.repo (i - lo)

(* The {!Replica.app.execute} hook of a sharded cell.  Lock requests reach
   execution only once released, and mutate nothing.  A joint operation
   executes on the coordinator cell while every participant is parked, with
   [modify] routed per-object to the owning shard's repo — the mutation
   lands between two fixed points of each participant's execution sequence,
   so per-shard checkpoint digests stay identical across nodes — and then
   releases the participants. *)
let execute xs ~rid ~shard ~client ~timestamp ~operation ~nondet ~read_only =
  if Types.is_internal_client client then ""
  else begin
    let node = cell xs ~shard rid in
    let shards = footprint xs.cx.Cell.config node.Cell.wrapper ~operation in
    let joint =
      match shards with
      | coord :: _ :: _ when coord = shard && not read_only -> true
      | _ :: _ | [] -> false
    in
    let allowed = if joint then shards else [ shard ] in
    let result =
      try
        node.Cell.wrapper.Service.execute ~client ~operation ~nondet ~read_only
          ~modify:(fun i -> xmodify xs ~rid ~allowed i)
      with Xshard_footprint -> xabort_result
    in
    (if joint then
       match shards with
       | coord :: parts ->
         let x = xget xs.nodes.(rid) ~client ~ts:timestamp ~coord ~parts in
         if not x.x_done then begin
           x.x_done <- true;
           (* Release: each participant's gate now answers true; kick their
              execution loops so the parked batches drain. *)
           List.iter
             (fun p -> Replica.resume_execution (cell xs ~shard:p.xp_shard rid).Cell.replica)
             x.x_parts
         end
       | [] -> ());
    result
  end

(* Index-shifted restriction of a node's wrapper to one shard's slice of
   the abstract object array: the per-shard {!Objrepo} digests, checkpoints
   and serves exactly the objects its agreement instance is responsible
   for, while the concrete service state stays node-wide. *)
let shard_view config ~shard (w : Service.wrapper) =
  if Types.n_shards config <= 1 then w
  else begin
    let lo, hi = Types.shard_range config ~n_objects:w.Service.n_objects shard in
    {
      w with
      Service.n_objects = hi - lo;
      get_obj = (fun i -> w.Service.get_obj (lo + i));
      put_objs = (fun objs -> w.Service.put_objs (List.map (fun (i, v) -> (lo + i, v)) objs));
    }
  end
