(* The four seeded workloads, built from the library's public constructors.

   Each workload prepares one instance per seed: [prepare] builds the system
   (the set-up the benchmark times as [setup_s]), [run] is the timed section,
   and [finish] settles the system, runs every correctness check and returns
   the instance's virtual-time results.  Everything an instance computes on
   the virtual clock is a pure function of the seed. *)

module Runtime = Base_core.Runtime
module Service = Base_core.Service
module Objrepo = Base_core.Objrepo
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Faultplan = Base_sim.Faultplan
module Types = Base_bft.Types
module Replica = Base_bft.Replica
module Systems = Base_workload.Systems
module Fs_iface = Base_workload.Fs_iface
module Andrew = Base_workload.Andrew
module Cost_model = Base_workload.Cost_model
module Oid_dist = Base_workload.Oid_dist
module Prng = Base_util.Prng
module Digest = Base_crypto.Digest_t

(* A growable float vector. *)
module Vec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0.0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_sorted v =
    let a = Array.sub v.a 0 v.n in
    Array.sort Float.compare a;
    a
end

(* Linear-interpolated quantile of a sorted array (0 when empty). *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

(* Self-test size: every workload shrinks to a tiny instance. *)
let smoke = ref false

let sized full tiny = if !smoke then tiny else full

(* Quantile of sorted whole-microsecond latencies, read as grouped data:
   each value v stands for the interval [v - 0.5, v + 0.5) and the quantile
   interpolates within the group it falls in.  Ties on the virtual clock are
   common, and the plain order statistic would read in whole microseconds. *)
let grouped_quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let target = q *. float_of_int n in
    let k = max 0 (min (n - 1) (int_of_float target)) in
    let v = sorted.(k) in
    let lo = ref k and hi = ref k in
    while !lo > 0 && sorted.(!lo - 1) = v do decr lo done;
    while !hi < n - 1 && sorted.(!hi + 1) = v do incr hi done;
    let count = float_of_int (!hi - !lo + 1) in
    v -. 0.5 +. ((target -. float_of_int !lo) /. count)
  end

(* --- systems ------------------------------------------------------------------- *)

type sys = {
  rt : Runtime.t;
  engine : Runtime.msg Engine.t;
  tracer : Tracer.t option;
  step_id : int;
  mutable events : int;
  mutable failures : string list;  (* failed correctness checks, newest first *)
}

let fail sys what = sys.failures <- what :: sys.failures

let max_events = 50_000_000

(* One engine event; a root span in the traced run. *)
let step sys =
  let ok =
    match sys.tracer with
    | None -> Engine.step sys.engine
    | Some t -> Tracer.span t sys.step_id (fun () -> Engine.step sys.engine)
  in
  if ok then sys.events <- sys.events + 1;
  ok

let engine_config seed =
  {
    (Engine.default_config ~size_of:Runtime.msg_size ~label_of:Runtime.msg_label) with
    Engine.seed;
    kind_of = Runtime.msg_kind;
  }

let make_sys ?profile ~tracer ~seed ~config ~make_wrapper ~n_clients () =
  let make_wrapper rid =
    let w = make_wrapper rid in
    match tracer with Some t -> Tracer.wrap_service t w | None -> w
  in
  let rt =
    Runtime.create ~engine_config:(engine_config seed) ?profile ~config ~make_wrapper ~n_clients ()
  in
  {
    rt;
    engine = Runtime.engine rt;
    tracer;
    step_id = (match tracer with Some t -> Tracer.id t "sim.step" | None -> 0);
    events = 0;
    failures = [];
  }

(* Run every 64 events by [drive]: the benchmark's host clock hooks in
   here to interleave its speed reference with the timed work. *)
let between_events : (unit -> unit) ref = ref ignore

(* Step until [cond] holds; a quiescent queue or an exhausted event budget is
   a stall. *)
let drive sys ~what cond =
  let budget = sys.events + max_events in
  let stalled = ref false in
  while (not (cond ())) && not !stalled do
    if sys.events >= budget || not (step sys) then stalled := true
    else if sys.events land 63 = 0 then !between_events ()
  done;
  if !stalled then fail sys ("stall: " ^ what);
  not !stalled

(* Advance virtual time by [us] through our own steps (a timer on a private
   pseudo-node), so every event stays inside a traced step. *)
let wait_node sys = (Runtime.config sys.rt).Types.n_principals + 2

let waker sys =
  let fired = ref false in
  Engine.add_node sys.engine ~id:(wait_node sys) (fun _ -> function
    | Engine.Timer _ -> fired := true
    | Engine.Deliver _ -> ());
  fun us ->
    if us > 0 then begin
      fired := false;
      ignore
        (Engine.set_timer sys.engine ~node:(wait_node sys) ~after:(Sim_time.of_us us) ~tag:"wait"
           ~payload:0);
      ignore (drive sys ~what:"wait" (fun () -> !fired))
    end

(* After settling, each shard's replicas at the highest executed sequence
   number — at least a quorum of them — hold one abstract root. *)
let check_roots sys =
  let config = Runtime.config sys.rt in
  for shard = 0 to Runtime.n_shards sys.rt - 1 do
    let cells = List.map (fun rid -> Runtime.shard_replica sys.rt ~shard rid) (Types.replica_ids config) in
    let top = List.fold_left (fun m c -> max m (Replica.last_executed c.Runtime.replica)) 0 cells in
    let at_top = List.filter (fun c -> Replica.last_executed c.Runtime.replica = top) cells in
    let roots = List.map (fun c -> Digest.to_hex (Objrepo.current_root c.Runtime.repo)) at_top in
    if List.length at_top < Types.quorum config then
      fail sys (Printf.sprintf "shard %d: only %d replicas reached seq %d" shard (List.length at_top) top)
    else if List.exists (fun r -> r <> List.hd roots) roots then
      fail sys (Printf.sprintf "shard %d: abstract roots disagree at seq %d" shard top)
  done

(* --- results ------------------------------------------------------------------- *)

type outcome = {
  attempted : int;
  completed : int;
  failed : int;  (* shed, wrong replies, stalls and failed checks *)
  failures : string list;
  lat_us : float array;  (* sorted per-request virtual latencies *)
  good_per_s : float;
  unavail_us : float;
  inputs : int;  (* hash of the generated inputs: arrivals, or Andrew's call timings *)
  extra : (string * float) list;  (* workload-specific results *)
  layer : (string * float) list;  (* workload-specific per-layer counts *)
}

(* Longest stretch of [lo, hi] without a completion. *)
let longest_gap ~lo ~hi done_at =
  let prev = ref lo and gap = ref 0.0 in
  Array.iter
    (fun t ->
      if t >= lo && t <= hi then begin
        gap := Float.max !gap (t -. !prev);
        prev := t
      end)
    done_at;
  Float.max !gap (hi -. !prev)

(* --- open loop ----------------------------------------------------------------- *)

(* One arrival: the operation, whether it takes the read-only path, the
   slots it writes with their value, the slot it reads, and whether its
   footprint spans shards. *)
type op = { operation : string; read_only : bool; writes : int list; value : string; reads : int }

(* An open-loop Poisson injector on the virtual clock, like
   [Base_workload.Load], that also keeps every request's latency,
   completion time and reply so the benchmark can check them.

   Multi-object operations take a lane of their own: one extra client,
   index [pool], issues them one at a time in arrival order.  Two
   cross-shard operations in flight at once can each hold the lock the
   other waits for, and the runtime's cross-shard commit does not resolve
   that (see README.md). *)
type ol = {
  sys : sys;
  gen : Prng.t -> int -> op;
  ops_prng : Prng.t;
  arr_prng : Prng.t;
  mean_gap_us : float;
  pool : int;
  free : int Queue.t;
  backlog : (float * int * op) Queue.t;
  xbacklog : (float * int * op) Queue.t;  (* the multi-object lane *)
  mutable xbusy : bool;
  max_backlog : int;
  start_us : float;
  end_us : float;
  is_cross : op -> bool;
  mutable sched : float;
  mutable injecting : bool;
  mutable offered : int;
  mutable completed : int;
  mutable shed : int;
  mutable wrong : int;
  mutable xwrong : int;
  mutable backlog_peak : int;
  mutable ro_sent : int;
  mutable inputs : int;
  lat : Vec.t;
  done_at : Vec.t;
  xlat : Vec.t;
  written : (int * string, unit) Hashtbl.t;
}

let now_us sys = Int64.to_float (Engine.now sys.engine)

let rec dispatch ol ~arrival ~op client =
  List.iter (fun s -> Hashtbl.replace ol.written (s, op.value) ()) op.writes;
  if op.read_only then ol.ro_sent <- ol.ro_sent + 1;
  Runtime.invoke ol.sys.rt ~client ~read_only:op.read_only ~operation:op.operation (fun reply ->
      let now = now_us ol.sys in
      ol.completed <- ol.completed + 1;
      Vec.push ol.lat (now -. arrival);
      Vec.push ol.done_at now;
      if ol.is_cross op then Vec.push ol.xlat (now -. arrival);
      let right =
        if op.reads >= 0 then reply = "" || Hashtbl.mem ol.written (op.reads, reply)
        else reply = "ok"
      in
      if not right then begin
        ol.wrong <- ol.wrong + 1;
        if ol.is_cross op then ol.xwrong <- ol.xwrong + 1
      end;
      let lane = if client = ol.pool then ol.xbacklog else ol.backlog in
      match Queue.take_opt lane with
      | Some (arrival, _, op) -> dispatch ol ~arrival ~op client
      | None -> if client = ol.pool then ol.xbusy <- false else Queue.add client ol.free)

let enqueue ol lane entry =
  if Queue.length lane >= ol.max_backlog then ol.shed <- ol.shed + 1
  else begin
    Queue.add entry lane;
    ol.backlog_peak <- max ol.backlog_peak (Queue.length lane)
  end

let arrive ol =
  let idx = ol.offered in
  ol.offered <- idx + 1;
  let op = ol.gen ol.ops_prng idx in
  let now = now_us ol.sys in
  ol.inputs <- Hashtbl.hash (ol.inputs, now, op.operation);
  if List.compare_length_with op.writes 1 > 0 then begin
    if ol.xbusy then enqueue ol ol.xbacklog (now, idx, op)
    else begin
      ol.xbusy <- true;
      dispatch ol ~arrival:now ~op ol.pool
    end
  end
  else
    match Queue.take_opt ol.free with
    | Some client -> dispatch ol ~arrival:now ~op client
    | None -> enqueue ol ol.backlog (now, idx, op)

let injector_node sys = (Runtime.config sys.rt).Types.n_principals + 1

let schedule_next ol =
  ol.sched <- ol.sched +. Prng.exponential ol.arr_prng ~mean:ol.mean_gap_us;
  if ol.sched < ol.end_us then begin
    let after = int_of_float (Float.max 0.0 (Float.round (ol.sched -. now_us ol.sys))) in
    ignore
      (Engine.set_timer ol.sys.engine ~node:(injector_node ol.sys) ~after:(Sim_time.of_us after)
         ~tag:"arrive" ~payload:0)
  end
  else ol.injecting <- false

let open_loop sys ~seed ~rate ~window_us ~pool ~written ?(is_cross = fun _ -> false) gen =
  let base = Prng.create seed in
  let ol =
    {
      sys;
      gen;
      arr_prng = Prng.split base;
      ops_prng = Prng.split base;
      mean_gap_us = 1e6 /. rate;
      pool;
      free = Queue.create ();
      backlog = Queue.create ();
      xbacklog = Queue.create ();
      xbusy = false;
      max_backlog = 100_000;
      start_us = now_us sys;
      end_us = now_us sys +. float_of_int window_us;
      is_cross;
      sched = now_us sys;
      injecting = true;
      offered = 0;
      completed = 0;
      shed = 0;
      wrong = 0;
      xwrong = 0;
      backlog_peak = 0;
      ro_sent = 0;
      inputs = 0;
      lat = Vec.create ();
      done_at = Vec.create ();
      xlat = Vec.create ();
      written;
    }
  in
  for c = 0 to pool - 1 do
    Queue.add c ol.free
  done;
  Engine.add_node sys.engine ~id:(injector_node sys) (fun _ -> function
    | Engine.Timer { tag = "arrive"; _ } ->
      arrive ol;
      schedule_next ol
    | Engine.Timer _ | Engine.Deliver _ -> ());
  ol

let ol_start ol =
  ignore
    (Engine.set_timer ol.sys.engine ~node:(injector_node ol.sys) ~after:Sim_time.zero ~tag:"arrive"
       ~payload:0)

let ol_finished ol =
  (not ol.injecting)
  && Queue.is_empty ol.backlog
  && Queue.is_empty ol.xbacklog
  && (not ol.xbusy)
  && Queue.length ol.free = ol.pool

let ol_outcome ol ~limit_us ~layer =
  let lat = Vec.to_sorted ol.lat in
  let window_s = (ol.end_us -. ol.start_us) /. 1e6 in
  let good = Array.fold_left (fun n l -> if l <= limit_us then n + 1 else n) 0 lat in
  let done_at = Vec.to_sorted ol.done_at in
  let xlat = Vec.to_sorted ol.xlat in
  let failures = ol.sys.failures in
  let failed = ol.shed + ol.wrong + List.length failures in
  {
    attempted = ol.offered;
    completed = ol.completed;
    failed;
    failures =
      (if ol.wrong > 0 then [ Printf.sprintf "%d wrong replies" ol.wrong ] else [])
      @ (if ol.shed > 0 then [ Printf.sprintf "%d shed arrivals" ol.shed ] else [])
      @ List.rev failures;
    lat_us = lat;
    good_per_s = float_of_int good /. window_s;
    unavail_us = longest_gap ~lo:ol.start_us ~hi:ol.end_us done_at;
    inputs = ol.inputs;
    extra = [];
    layer =
      [
        ("load.backlog_peak", float_of_int ol.backlog_peak);
        ("load.shed", float_of_int ol.shed);
        ("client.ro_attempts", float_of_int ol.ro_sent);
        ("xshard.ops", float_of_int (Array.length xlat));
        ("xshard.failed", float_of_int ol.xwrong);
        ("xshard.p50_ms", grouped_quantile xlat 0.5 /. 1e3);
        ("xshard.p99_ms", grouped_quantile xlat 0.99 /. 1e3);
      ]
      @ layer;
  }

(* --- instances ----------------------------------------------------------------- *)

type instance = {
  sys : sys;
  run : unit -> unit;  (* the timed section *)
  finish : unit -> outcome;  (* settle, check, summarise; untimed *)
}

(* A workload: its name and how to build one instance of it from a seed.
   Why each exists is recorded in BENCHMARK.json and README.md. *)
type spec = {
  name : string;
  prepare :
    seed:int64 -> tracer:Tracer.t option -> profile:Base_obs.Profile.t option -> instance;
}

let settle_us = 1_000_000

(* Arrivals.  A write carries the unique value "v<arrival index>". *)
let get ?(read_only = false) slot =
  { operation = Printf.sprintf "get:%d" slot; read_only; writes = []; value = ""; reads = slot }

let set slot idx =
  let value = Printf.sprintf "v%d" idx in
  { operation = Printf.sprintf "set:%d:%s" slot value; read_only = false; writes = [ slot ]; value; reads = -1 }

let mset i j idx =
  let value = Printf.sprintf "v%d" idx in
  { operation = Printf.sprintf "mset:%d:%d:%s" i j value; read_only = false; writes = [ i; j ]; value; reads = -1 }

(* Warm-up, part of set-up: one synchronous write to every slot. *)
let warm_up sys ~n_objects ~written =
  for slot = 0 to n_objects - 1 do
    let value = Printf.sprintf "w%d" slot in
    Hashtbl.replace written (slot, value) ();
    let reply = ref None in
    Runtime.invoke sys.rt ~client:0 ~operation:(Printf.sprintf "set:%d:%s" slot value) (fun r ->
        reply := Some r);
    if drive sys ~what:"warm-up" (fun () -> !reply <> None) && !reply <> Some "ok" then
      fail sys "warm-up write refused"
  done

let kv_instance sys ~seed ~rate ~window_us ~pool ~n_objects ~limit_ms ?is_cross ?(plan = "") gen =
  let wait = waker sys in
  let written = Hashtbl.create 4096 in
  warm_up sys ~n_objects ~written;
  let ol = open_loop sys ~seed ~rate ~window_us ~pool ~written ?is_cross gen in
  let run () =
    (match Faultplan.parse plan with
    | Ok p -> Runtime.apply_faultplan sys.rt p
    | Error e -> fail sys ("faultplan: " ^ e));
    ol_start ol;
    if not (drive sys ~what:"open loop" (fun () -> ol_finished ol)) then
      fail sys
        (Printf.sprintf "open loop stalled: offered %d, completed %d, backlog %d, busy clients %d"
           ol.offered ol.completed
           (Queue.length ol.backlog + Queue.length ol.xbacklog)
           (ol.pool - Queue.length ol.free + Bool.to_int ol.xbusy))
  in
  let finish () =
    wait settle_us;
    check_roots sys;
    ol_outcome ol ~limit_us:(limit_ms *. 1e3) ~layer:[]
  in
  { sys; run; finish }

(* Stamp-free registers, configured as [Systems.make_registers] does. *)
let registers ?profile ~tracer ~seed ~n_objects ~n_clients ~checkpoint_period ~batch_max
    ?max_inflight () =
  let config =
    Types.make_config ~checkpoint_period ~log_window:(2 * checkpoint_period) ~batch_max
      ?max_inflight ~f:1 ~n_clients ()
  in
  let slots = Array.init (Types.group_size config) (fun _ -> Array.make n_objects "") in
  make_sys ?profile ~tracer ~seed ~config ~n_clients
    ~make_wrapper:(fun rid -> Systems.registers_wrapper ~n_objects slots.(rid))
    ()

(* The E17 scale configuration; three arrivals in four are read-only gets. *)
let kv_read_mostly =
  {
    name = "kv-read-mostly";
    prepare =
      (fun ~seed ~tracer ~profile ->
        let n_objects = 256 in
        let sys =
          registers ?profile ~tracer ~seed ~n_objects ~n_clients:256 ~checkpoint_period:128
            ~batch_max:64 ~max_inflight:1 ()
        in
        kv_instance sys ~seed ~rate:40_000.0 ~window_us:(sized 150_000 10_000) ~pool:256
          ~n_objects ~limit_ms:2.0 (fun prng idx ->
            let slot = Prng.int prng n_objects in
            if Prng.int prng 4 <> 0 then get ~read_only:true slot else set slot idx));
  }

(* Registers plus a two-slot "mset:<i>:<j>:<v>", the smallest operation
   whose footprint can span shards. *)
let multireg_wrapper ~n_objects slots : Service.wrapper =
  let base = Systems.registers_wrapper ~n_objects slots in
  let execute ~client ~operation ~nondet ~read_only ~modify =
    match String.split_on_char ':' operation with
    | [ "mset"; i; j; v ] ->
      let i = int_of_string i and j = int_of_string j in
      modify i;
      slots.(i) <- v;
      modify j;
      slots.(j) <- v;
      "ok"
    | _ -> base.Service.execute ~client ~operation ~nondet ~read_only ~modify
  in
  let oids_of_op ~operation =
    match String.split_on_char ':' operation with
    | [ "mset"; i; j; _ ] -> (
      match (int_of_string_opt i, int_of_string_opt j) with
      | Some i, Some j when i >= 0 && i < n_objects && j >= 0 && j < n_objects -> [ i; j ]
      | _ -> [])
    | _ -> base.Service.oids_of_op ~operation
  in
  { base with Service.name = "multireg"; execute; oids_of_op }

(* Every arrival ordered, over four shards; one in 512 is an mset whose
   second slot lies 65 oids on, in another shard.  Two batches in flight
   per shard: with one, p99 sat on the edge between one and two agreement
   rounds of waiting and spread by 8-9 % across seeds. *)
let kv_write_sharded =
  {
    name = "kv-write-sharded";
    prepare =
      (fun ~seed ~tracer ~profile ->
        let n_objects = 257 and checkpoint_period = 128 in
        let config =
          Types.make_config ~checkpoint_period ~log_window:(2 * checkpoint_period) ~batch_max:16 ~max_inflight:2
            ~shard_bounds:(Types.uniform_shards ~shards:4 ~n_objects) ~f:1
            ~n_clients:257 ()
        in
        let slots = Array.init (Types.group_size config) (fun _ -> Array.make n_objects "") in
        let sys =
          make_sys ?profile ~tracer ~seed ~config ~n_clients:257
            ~make_wrapper:(fun rid -> multireg_wrapper ~n_objects slots.(rid))
            ()
        in
        let is_cross op =
          match op.writes with
          | [ i; j ] -> Types.shard_of_oid config i <> Types.shard_of_oid config j
          | _ -> false
        in
        kv_instance sys ~seed ~rate:60_000.0 ~window_us:(sized 150_000 5_000) ~pool:256
          ~n_objects ~limit_ms:2.0 ~is_cross (fun prng idx ->
            let i = Oid_dist.uniform ~n_objects idx in
            match Prng.int prng 512 with
            | 0 -> mset i ((i + 65) mod n_objects) idx
            | k when k land 1 = 0 -> set i idx
            | _ -> get i));
  }

(* Half ordered sets, half ordered gets; the primary crashes at 1 s and
   reboots at 2 s of a 3 s window. *)
let kv_primary_crash =
  {
    name = "kv-primary-crash";
    prepare =
      (fun ~seed ~tracer ~profile ->
        let n_objects = 64 in
        let sys =
          registers ?profile ~tracer ~seed ~n_objects ~n_clients:64 ~checkpoint_period:64
            ~batch_max:16 ()
        in
        kv_instance sys ~seed ~rate:(sized 3_000.0 300.0) ~window_us:3_000_000 ~pool:64 ~n_objects
          ~limit_ms:10.0 ~plan:"at 1s crash 0\nat 2s reboot 0\n" (fun prng idx ->
            let slot = Prng.int prng n_objects in
            if Prng.bool prng then get slot else set slot idx));
  }

(* --- Andrew ---------------------------------------------------------------------- *)

(* Records the path of every handle it hands out and digests every byte read,
   keyed by path and offset, so two back ends that return the same file
   contents under different handles and readdir orders digest alike. *)
let digesting (fs : Fs_iface.t) =
  let path = Hashtbl.create 256 in
  Hashtbl.replace path fs.Fs_iface.root "";
  let name_of dir name =
    (match Hashtbl.find_opt path dir with Some p -> p | None -> "?") ^ "/" ^ name
  in
  let reads = ref [] in
  let fs =
    {
      fs with
      Fs_iface.mkdir =
        (fun ~dir ~name ->
          let fh = fs.Fs_iface.mkdir ~dir ~name in
          Hashtbl.replace path fh (name_of dir name);
          fh);
      create =
        (fun ~dir ~name ->
          let fh = fs.Fs_iface.create ~dir ~name in
          Hashtbl.replace path fh (name_of dir name);
          fh);
      lookup =
        (fun ~dir ~name ->
          let r = fs.Fs_iface.lookup ~dir ~name in
          (match r with Some (fh, _) -> Hashtbl.replace path fh (name_of dir name) | None -> ());
          r);
      readdir =
        (fun ~dir ->
          let entries = fs.Fs_iface.readdir ~dir in
          List.iter (fun (name, fh) -> Hashtbl.replace path fh (name_of dir name)) entries;
          entries);
      read =
        (fun ~fh ~off ~count ->
          let data = fs.Fs_iface.read ~fh ~off ~count in
          let p = match Hashtbl.find_opt path fh with Some p -> p | None -> "?" in
          reads := Printf.sprintf "%s@%d:%s" p off data :: !reads;
          data);
    }
  in
  let digest () = Digest.to_hex (Digest.of_string (String.concat "\n" (List.sort compare !reads))) in
  (fs, digest)

(* The replicated file system as [Fs_iface.of_runtime] builds it, but driven
   by our own steps: each NFS call is an asynchronous invoke stepped to
   completion, timed from call to return. *)
let replicated_fs sys ~wait ~lat ~done_at ~ro_calls =
  let cost = Cost_model.default in
  let started = Engine.now sys.engine in
  let ops = ref 0 in
  let call_id =
    match sys.tracer with Some t -> Tracer.id t "client.invoke" | None -> 0
  in
  let invoke ~read_only ~operation =
    incr ops;
    if read_only then incr ro_calls;
    let t0 = now_us sys in
    let reply = ref None in
    let issue () =
      Runtime.invoke sys.rt ~client:0 ~read_only ~operation (fun r -> reply := Some r)
    in
    (match sys.tracer with Some t -> Tracer.span t call_id issue | None -> issue ());
    if not (drive sys ~what:"andrew call" (fun () -> !reply <> None)) then
      failwith "andrew: stalled";
    let r = Option.get !reply in
    let t1 = now_us sys in
    Vec.push lat (t1 -. t0);
    Vec.push done_at (t1 -. Int64.to_float started);
    wait
      (int_of_float
         (Cost_model.op_cost_us cost ~read_only ~bytes:(String.length operation + String.length r)));
    r
  in
  let module C = Base_nfs.Nfs_client in
  let open Base_nfs.Nfs_types in
  let nfs = C.make invoke in
  let h = Fs_iface.oid_to_handle and o = Fs_iface.handle_to_oid in
  let get what = function Ok v -> v | Error e -> Fs_iface.fail_err what e in
  {
    Fs_iface.label = "base-fs";
    root = h root_oid;
    mkdir = (fun ~dir ~name -> h (fst (get "mkdir" (C.mkdir nfs (o dir) name sattr_empty))));
    create = (fun ~dir ~name -> h (fst (get "create" (C.create nfs (o dir) name sattr_empty))));
    write = (fun ~fh ~off ~data -> ignore (get "write" (C.write nfs (o fh) ~off data)));
    read = (fun ~fh ~off ~count -> fst (get "read" (C.read nfs (o fh) ~off ~count)));
    size_of = (fun ~fh -> (get "getattr" (C.getattr nfs (o fh))).size);
    lookup =
      (fun ~dir ~name ->
        match C.lookup nfs (o dir) name with
        | Ok (x, a) -> Some (h x, a.ftype)
        | Error Enoent -> None
        | Error e -> Fs_iface.fail_err "lookup" e);
    readdir =
      (fun ~dir -> List.map (fun (n, x) -> (n, h x)) (get "readdir" (C.readdir nfs (o dir))));
    remove = (fun ~dir ~name -> get "remove" (C.remove nfs (o dir) name));
    think = (fun ~us -> wait (int_of_float us));
    elapsed_s = (fun () -> Sim_time.to_sec (Sim_time.sub (Engine.now sys.engine) started));
    ops = (fun () -> !ops);
  }

let andrew_scale () = sized 4 1

(* The paper's experiment: scaled Andrew over four different file systems
   with staggered proactive recovery, against the unreplicated baseline. *)
let andrew_hetero_pr =
  {
    name = "andrew-hetero-pr";
    prepare =
      (fun ~seed ~tracer ~profile ->
        (* The unreplicated baseline at the same scale, and its read digest. *)
        let direct_fs, direct_digest =
          digesting (Fs_iface.of_direct (Systems.make_direct ~impl:"inode" ()))
        in
        let r_direct = Andrew.run ~scale:(andrew_scale ()) direct_fs in
        let direct_digest = direct_digest () in
        (* BASE-FS, f=1, replicas on inode/hash/log/btree, built as
           [Systems.make_basefs] does but from wrapped servers. *)
        let checkpoint_period = 128 in
        let config =
          Types.make_config ~checkpoint_period ~log_window:(2 * checkpoint_period) ~f:1
            ~n_clients:1 ()
        in
        let engine_cell = ref None in
        let impls = ref [] in
        let make_wrapper rid =
          let name = Systems.impl_names.(rid mod Array.length Systems.impl_names) in
          let now () =
            match !engine_cell with Some e -> Engine.local_clock e rid | None -> 0L
          in
          let server = Systems.make_impl name ~seed:(Int64.add seed (Int64.of_int (100 + rid))) ~now in
          impls := name :: !impls;
          let server = match tracer with Some t -> Tracer.wrap_fs t ~impl:name server | None -> server in
          Base_wrapper.Conformance.make ~server ~n_objects:1024 ()
        in
        let sys = make_sys ?profile ~tracer ~seed ~config ~make_wrapper ~n_clients:1 () in
        engine_cell := Some sys.engine;
        Runtime.enable_proactive_recovery ~reboot_us:30_000 ~period_us:1_500_000 sys.rt;
        let lat = Vec.create () and done_at = Vec.create () and ro_calls = ref 0 in
        let wait = waker sys in
        let fs, digest = digesting (replicated_fs sys ~wait ~lat ~done_at ~ro_calls) in
        let result = ref None in
        let run () =
          match Andrew.run ~scale:(andrew_scale ()) fs with
          | r -> result := Some r
          | exception Failure e -> fail sys e
        in
        let finish () =
          Runtime.disable_proactive_recovery sys.rt;
          wait settle_us;
          check_roots sys;
          let total_s, ops =
            match !result with
            | Some r -> (r.Andrew.total_seconds, List.fold_left (fun n p -> n + p.Andrew.ops) 0 r.Andrew.phases)
            | None -> (0.0, 0)
          in
          if !result <> None && digest () <> direct_digest then
            fail sys "andrew: read digest differs from the direct baseline";
          let windows =
            List.filter_map Runtime.timeline_window_us (Runtime.recovery_timelines sys.rt)
          in
          let mean l =
            if l = [] then 0.0
            else float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
          in
          let lat_sorted = Vec.to_sorted lat in
          let failures = List.rev sys.failures in
          {
            attempted = max 1 lat.Vec.n;
            completed = lat.Vec.n;
            failed = List.length failures;
            failures;
            lat_us = lat_sorted;
            good_per_s = (if total_s > 0.0 then float_of_int ops /. total_s else 0.0);
            unavail_us = longest_gap ~lo:0.0 ~hi:(total_s *. 1e6) (Vec.to_sorted done_at);
            inputs = Array.fold_left (fun h x -> Hashtbl.hash (h, x)) 0 (Array.sub lat.Vec.a 0 lat.Vec.n);
            extra =
              [
                ( "andrew_overhead_pct",
                  100.0 *. ((total_s /. r_direct.Andrew.total_seconds) -. 1.0) );
                ("recovery_window_ms", mean windows /. 1e3);
              ];
            layer =
              [
                ("load.backlog_peak", 0.0);
                ("load.shed", 0.0);
                ("client.ro_attempts", float_of_int !ro_calls);
                ("xshard.ops", 0.0);
                ("xshard.failed", 0.0);
                ("xshard.p50_ms", 0.0);
                ("xshard.p99_ms", 0.0);
              ];
          }
        in
        { sys; run; finish });
  }

let all = [ andrew_hetero_pr; kv_read_mostly; kv_write_sharded; kv_primary_crash ]

let find name = List.find_opt (fun w -> w.name = name) all
