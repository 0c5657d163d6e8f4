module M = Message

type net = {
  send : dst:int -> Message.envelope -> unit;
  set_timer : after_us:int -> tag:string -> payload:int -> int;
  cancel_timer : int -> unit;
  now_us : unit -> int64;
}

type stats = {
  mutable completed : int;
  mutable retransmissions : int;
  mutable read_only_fallbacks : int;
  latency_us : Base_obs.Metrics.histogram;
}

type pending = {
  request : M.request;
  callback : string -> unit;
  replies : (int, string) Hashtbl.t;  (* replica -> result *)
  mutable timer : int;
  mutable attempts : int;
  started_us : int64;
}

type t = {
  config : Types.config;
  id : int;
  keychain : Base_crypto.Auth.keychain;
  net : net;
  route : string -> int;  (* operation -> shard whose agreement orders it *)
  mutable next_ts : int64;
  mutable current : pending option;
  queue : (string * bool * (string -> unit)) Queue.t;
  stats : stats;
  prof : Base_obs.Profile.t;
  p_verify : Base_obs.Profile.probe;
  p_seal : Base_obs.Profile.probe;
}

let create ?metrics ?(profile = Base_obs.Profile.disabled) ?(route = fun _ -> 0) ~config ~id
    ~keychain ~net () =
  Base_util.Invariant.require
    (id >= Types.group_size (config : Types.config))
    "Client.create: id collides with a replica or standby";
  (* Latency is a streaming histogram, not a per-request list: registration
     is get-or-create, so every client built over the same registry shares
     one [bft.client.latency_us] series and memory stays O(buckets) no
     matter how many requests complete — the property the open-loop load
     harness depends on at 10^5..10^6 requests. *)
  let registry = match metrics with Some m -> m | None -> Base_obs.Metrics.create () in
  let latency_us = Base_obs.Metrics.histogram registry "bft.client.latency_us" in
  {
    config;
    id;
    keychain;
    net;
    route;
    next_ts = 0L;
    current = None;
    queue = Queue.create ();
    stats = { completed = 0; retransmissions = 0; read_only_fallbacks = 0; latency_us };
    prof = profile;
    p_verify = Base_obs.Profile.probe profile "client.verify";
    p_seal = Base_obs.Profile.probe profile "client.seal";
  }

let id t = t.id

let outstanding t = Queue.length t.queue + (match t.current with Some _ -> 1 | None -> 0)

let stats t = t.stats

(* Requests authenticate to the n replicas; replies come back with a
   client-specific MAC, so nothing a client seals scales with the total
   principal population. *)
let seal t ~shard body =
  Base_obs.Profile.start t.prof t.p_seal;
  let env = M.seal t.keychain ~shard ~sender:t.id ~n_receivers:t.config.n body in
  Base_obs.Profile.stop t.prof t.p_seal;
  env

(* All n replicas host every shard, so a request broadcast reaches the right
   agreement instance whatever the shard — the tag decides which instance
   (and thus which primary rotation) orders it. *)
let send_request t (request : M.request) =
  let env = seal t ~shard:(t.route request.operation) (M.Request request) in
  for r = 0 to t.config.n - 1 do
    t.net.send ~dst:r env
  done

(* The needed number of matching replies: replies are self-verifying only in
   quorum, so read-write needs f+1 (one correct replica among them) and
   read-only needs 2f+1 (a quorum that intersects every commit quorum). *)
let needed t (r : M.request) =
  if r.read_only then Types.quorum t.config else Types.weak_quorum t.config

let fresh_ts t =
  let ts = t.next_ts in
  t.next_ts <- Int64.add ts 1L;
  ts

let rec start_request t operation read_only callback =
  let ts = fresh_ts t in
  let request = { M.client = t.id; timestamp = ts; operation; read_only } in
  let p =
    {
      request;
      callback;
      replies = Hashtbl.create 8;
      timer = 0;
      attempts = 0;
      started_us = t.net.now_us ();
    }
  in
  t.current <- Some p;
  (* First transmission goes to all replicas: the primary orders it, and
     backups start their progress timers, which covers primary failure,
     and relay it on their status tick if its pre-prepare is slow. *)
  send_request t request;
  p.timer <-
    t.net.set_timer ~after_us:t.config.client_timeout_us ~tag:"client"
      ~payload:(Int64.to_int ts)

and finish t p result =
  t.net.cancel_timer p.timer;
  t.current <- None;
  t.stats.completed <- t.stats.completed + 1;
  let elapsed = Int64.sub (t.net.now_us ()) p.started_us in
  Base_obs.Metrics.observe t.stats.latency_us (Int64.to_float elapsed);
  p.callback result;
  match Queue.take_opt t.queue with
  | Some (operation, read_only, callback) -> start_request t operation read_only callback
  | None -> ()

let invoke t ?(read_only = false) ~operation callback =
  match t.current with
  | Some _ -> Queue.add (operation, read_only, callback) t.queue
  | None -> start_request t operation read_only callback

(* Deterministic winner selection: of every result that reached its quorum,
   take the lexicographically smallest.  The reply values are snapshotted
   and sorted before tallying, so equal results are adjacent and the first
   qualifying run is the smallest winner by construction — no decision ever
   reads the table in hash order. *)
let quorum_winner ~needed replies =
  let results =
    Hashtbl.fold (fun _ result acc -> result :: acc) replies []
    |> List.sort String.compare
  in
  let rec scan = function
    | [] -> None
    | r :: _ as run ->
      let same, rest = List.partition (String.equal r) run in
      if List.length same >= needed then Some r else scan rest
  in
  scan results

let check_quorum t p =
  match quorum_winner ~needed:(needed t p.request) p.replies with
  | Some result -> finish t p result
  | None -> ()

(* Only a reply that would count is MAC-checked: one for the outstanding
   request, from the replica it names.  Late replies for a request whose
   quorum is already complete are dropped without a MAC check, and an
   unauthentic reply for the outstanding request still counts for nothing. *)
let receive t (env : M.envelope) =
  match (env.body, t.current) with
  | M.Reply r, Some p
    when r.client = t.id
         && Int64.equal r.timestamp p.request.timestamp
         && r.replica = env.sender
         && Types.is_replica t.config env.sender ->
    Base_obs.Profile.start t.prof t.p_verify;
    let authentic = M.verify t.keychain ~receiver:t.id env in
    Base_obs.Profile.stop t.prof t.p_verify;
    if authentic then begin
      Hashtbl.replace p.replies env.sender r.result;
      check_quorum t p
    end
  | _ -> ()

let on_timer t ~tag ~payload =
  match (tag, t.current) with
  | "client", Some p when Int64.equal (Int64.of_int payload) p.request.timestamp ->
    p.attempts <- p.attempts + 1;
    t.stats.retransmissions <- t.stats.retransmissions + 1;
    if p.request.read_only && p.attempts >= 2 then begin
      (* Read-only quorum unreachable (e.g. concurrent writes or recovering
         replicas): fall back to a regular, ordered request — under a FRESH
         timestamp.  Reusing the read-only attempt's timestamp would let its
         late tentative replies match the fallback in [receive] and count
         toward the weaker f+1 quorum, so f+1 stale tentative replies could
         complete a read that was never ordered — a linearizability hole. *)
      t.stats.read_only_fallbacks <- t.stats.read_only_fallbacks + 1;
      let request = { p.request with read_only = false; timestamp = fresh_ts t } in
      let p' = { p with request; attempts = 0 } in
      Hashtbl.reset p'.replies;
      t.current <- Some p';
      send_request t request;
      p'.timer <-
        t.net.set_timer ~after_us:t.config.client_timeout_us ~tag:"client"
          ~payload:(Int64.to_int request.timestamp)
    end
    else begin
      send_request t p.request;
      (* Exponential backoff, capped at 16x: during a network partition or a
         view change the client must keep probing without flooding the
         recovering group. *)
      p.timer <-
        t.net.set_timer ~after_us:(t.config.client_timeout_us * (1 lsl min p.attempts 4))
          ~tag:"client"
          ~payload:(Int64.to_int p.request.timestamp)
    end
  | _ -> ()
