module Digest = Base_crypto.Digest_t
module Auth = Base_crypto.Auth
module M = Message

type app = {
  execute :
    client:int ->
    timestamp:int64 ->
    operation:string ->
    nondet:string ->
    read_only:bool ->
    string;
  propose_nondet : operation:string -> string;
  check_nondet : operation:string -> nondet:string -> bool;
  ready : client:int -> timestamp:int64 -> operation:string -> bool;
  take_checkpoint : seq:Types.seqno -> client_rows:(int * int64 * string) list -> Digest.t;
  discard_checkpoints_below : Types.seqno -> unit;
  start_fetch : seq:Types.seqno -> digest:Digest.t -> unit;
}

let always_ready ~client:_ ~timestamp:_ ~operation:_ = true

type net = {
  send : dst:int -> Message.envelope -> unit;
  set_timer : after_us:int -> tag:string -> payload:int -> int;
  cancel_timer : int -> unit;
  now_us : unit -> int64;
}

type behavior = Honest | Mute | Lie_in_replies | Equivocate

(* A standby holds replica-side keys and collects checkpoint certificates
   (so the runtime can shadow-sync it and later promote it into a failed
   replica's slot), but it never votes, proposes, executes, or broadcasts —
   it is invisible to the agreement protocol. *)
type role = Active | Standby

type status = Normal | View_changing | Fetching

type stats = {
  mutable executed : int;  (* consensus instances executed *)
  mutable executed_requests : int;  (* client requests executed (>= executed with batching) *)
  mutable checkpoints_taken : int;
  mutable view_changes : int;
  mutable fetches : int;
  mutable rejected_macs : int;
  mutable rejected_decode : int;
  mutable rejected_insane : int;  (* well-formed but protocol-implausible messages *)
  mutable pp_resent_relay : int;  (* PRE-PREPAREs resent for a relayed request *)
  mutable pp_resent_status : int;  (* PRE-PREPAREs resent by the status mechanism *)
}

(* Protocol-phase instrumentation: latency histograms over the local
   timeline of each log slot (pre-prepare accepted -> prepared -> committed
   -> executed), plus view-change duration and checkpoint cadence.  The
   registry is normally shared by every replica of a system, so histograms
   aggregate across the group. *)
type obs = {
  m_pre_prepare : Base_obs.Metrics.histogram;
  m_prepare : Base_obs.Metrics.histogram;
  m_commit : Base_obs.Metrics.histogram;
  m_execute : Base_obs.Metrics.histogram;
  m_total : Base_obs.Metrics.histogram;
  m_view_change : Base_obs.Metrics.histogram;
  m_cp_interval : Base_obs.Metrics.histogram;
  c_reject_mac : Base_obs.Metrics.counter;
  c_reject_decode : Base_obs.Metrics.counter;
  c_reject_insane : Base_obs.Metrics.counter;
  c_equivocation : Base_obs.Metrics.counter;
  c_pp_resent_relay : Base_obs.Metrics.counter;
  c_pp_resent_status : Base_obs.Metrics.counter;
  mutable vc_started : int64;  (* -1 when no view change is in progress *)
  mutable last_cp : int64;  (* timestamp of the previous checkpoint; -1 before the first *)
}

(* [suffix] distinguishes shards sharing one registry (".s1", ".s2", ...);
   shard 0 keeps the historical unsuffixed names. *)
let make_obs ?(suffix = "") metrics =
  let h name = Base_obs.Metrics.histogram metrics (name ^ suffix) in
  let c name = Base_obs.Metrics.counter metrics (name ^ suffix) in
  {
    m_pre_prepare = h "bft.phase.pre_prepare_us";
    m_prepare = h "bft.phase.prepare_us";
    m_commit = h "bft.phase.commit_us";
    m_execute = h "bft.phase.execute_us";
    m_total = h "bft.phase.total_us";
    m_view_change = h "bft.view_change_us";
    m_cp_interval = h "bft.checkpoint_interval_us";
    c_reject_mac = c "bft.reject.mac";
    c_reject_decode = c "bft.reject.decode";
    c_reject_insane = c "bft.reject.insane";
    c_equivocation = c "bft.equivocation_detected";
    c_pp_resent_relay = c "bft.pre_prepare.resent.relay";
    c_pp_resent_status = c "bft.pre_prepare.resent.status";
    vc_started = -1L;
    last_cp = -1L;
  }

type t = {
  config : Types.config;
  id : int;
  shard : int;  (* agreement instance this replica serves; 0 when unsharded *)
  keychain : Auth.keychain;
  net : net;
  app : app;
  role : role;
  mutable behavior : behavior;
  mutable view : Types.view;
  mutable status : status;
  log : Log.t;
  clients : Client_table.t;
  mutable h : Types.seqno;  (* low watermark = last stable checkpoint *)
  mutable stable_digest : Digest.t;
  mutable last_exec : Types.seqno;
  mutable next_seq : Types.seqno;  (* primary: last assigned seqno *)
  queued_requests : M.request Queue.t;  (* primary: waiting for window space *)
  vcs : (Types.view, (int, M.view_change) Hashtbl.t) Hashtbl.t;
  mutable vc_timer : int option;
  mutable vc_timeout_us : int;
  mutable status_timer : int option;
  mutable last_progress_exec : Types.seqno;
  mutable fetch_in_progress : (Types.seqno * Digest.t) option;
  mutable resume_vc_after_fetch : bool;
  mutable external_pending : int;
      (* runtime-tracked obligations (cross-shard locks held or awaited) that
         must keep the progress timer armed even with no client pending *)
  mutable in_try_execute : bool;  (* reentrancy guard: see [try_execute] *)
  mutable exec_again : bool;
  peer_views : Types.view array;
      (* latest STATUS-reported view per replica; max_int until one arrives *)
  mutable last_nv : M.new_view option;
      (* the NEW-VIEW this primary broadcast for its current view, kept for
         retransmission to replicas that were down when the view changed *)
  stats : stats;
  obs : obs;
  prof : Base_obs.Profile.t;
  p_verify : Base_obs.Profile.probe;  (* MAC check on every received envelope *)
  p_seal : Base_obs.Profile.probe;  (* encode + digest + authenticate on send *)
  p_handle : Base_obs.Profile.probe;  (* protocol handling after MAC acceptance *)
  p_exec : Base_obs.Profile.probe;  (* application execute calls *)
}

let now t = t.net.now_us ()

(* Every primary computation below goes through this: each shard runs its own
   rotation, offset so concurrent shards spread their primaries over distinct
   replicas in any given view. *)
let primary_of t view = Types.shard_primary t.config ~shard:t.shard view

let is_primary t = primary_of t t.view = t.id

(* Record [until - since] in [hist]; skipped when the earlier milestone was
   never seen locally (e.g. the slot arrived pre-committed via new-view). *)
let observe_span hist ~since ~until =
  if Int64.compare since 0L >= 0 && Int64.compare until since >= 0 then
    Base_obs.Metrics.observe hist (Int64.to_float (Int64.sub until since))

(* [cr]'s request [r] got its pre-prepare in [entry]: close the wait that
   began when the request first arrived here. *)
let pre_prepare_span t cr r (entry : Log.entry) =
  observe_span t.obs.m_pre_prepare ~since:(Client_table.stop_wait cr r) ~until:entry.t_pp

(* A well-formed, authenticated message whose claims the protocol cannot
   accept. *)
let reject_insane t =
  t.stats.rejected_insane <- t.stats.rejected_insane + 1;
  Base_obs.Metrics.incr t.obs.c_reject_insane

(* One checkpoint: the application records its state together with the
   client rows, and the combined digest binds both. *)
let checkpoint_now t ~seq =
  let client_rows = Client_table.rows t.clients in
  let app_digest = t.app.take_checkpoint ~seq ~client_rows in
  Client_table.checkpoint_digest ~app_digest client_rows

(* --- sending ------------------------------------------------------------ *)

(* Seal [body] for principals [0 .. receivers - 1]: the n active replicas,
   or the whole n+s group for checkpoint broadcasts (below). *)
let seal t ~receivers body =
  Base_obs.Profile.start t.prof t.p_seal;
  let env = M.seal t.keychain ~shard:t.shard ~sender:t.id ~n_receivers:receivers body in
  Base_obs.Profile.stop t.prof t.p_seal;
  env

(* [env] to [dst] alone, else to every other principal below [receivers]. *)
let send_env ?dst t ~receivers env =
  match dst with
  | Some dst -> t.net.send ~dst env
  | None ->
    for r = 0 to receivers - 1 do
      if r <> t.id then t.net.send ~dst:r env
    done

(* A replica-to-replica message, to [dst] alone or to every replica.
   Replies carry a single MAC for their client (see [send_reply]). *)
let send ?dst t body =
  if t.behavior <> Mute then
    send_env ?dst t ~receivers:t.config.n (seal t ~receivers:t.config.n body)

(* Checkpoint announcements go to the whole n+s group, sealed so standbys
   can verify them too: the certificates standbys build from these are
   their only evidence of what the stable abstract state is, so they must
   be first-class MACed messages, not hearsay.  With [s = 0] this is
   exactly [send]. *)
let broadcast_checkpoint t ~seq digest =
  if t.behavior <> Mute then begin
    let receivers = Types.group_size t.config in
    send_env t ~receivers (seal t ~receivers (M.Checkpoint { seq; digest; replica = t.id }))
  end

type pp_send = Original | Resend_relay | Resend_status

(* Every PRE-PREPARE this replica sends as primary, first copy and
   retransmissions alike, goes through here ([dst] unicasts, else it
   broadcasts).  A retransmission is the same sealed envelope as the first
   copy: it is reused while the slot still holds the very pre-prepare
   record it was sealed from (a new view or a superseded slot brings a new
   record) and no key refresh happened since, because a refresh voids the
   MACs it carries. *)
let send_pre_prepare ?dst t (entry : Log.entry) (pp : M.pre_prepare) cause =
  if t.behavior <> Mute then begin
    let generation = Auth.generation t.keychain in
    let env =
      match entry.sealed_pp with
      | Some s when s.s_pp == pp && s.s_generation = generation -> s.s_env
      | Some _ | None ->
        let env = seal t ~receivers:t.config.n (M.Pre_prepare pp) in
        entry.sealed_pp <- Some { s_pp = pp; s_generation = generation; s_env = env };
        env
    in
    (match cause with
    | Original -> ()
    | Resend_relay ->
      t.stats.pp_resent_relay <- t.stats.pp_resent_relay + 1;
      Base_obs.Metrics.incr t.obs.c_pp_resent_relay
    | Resend_status ->
      t.stats.pp_resent_status <- t.stats.pp_resent_status + 1;
      Base_obs.Metrics.incr t.obs.c_pp_resent_status);
    send_env ?dst t ~receivers:t.config.n env
  end

(* Retransmit our part of slot [seq]'s agreement in the current view: the
   PRE-PREPARE if we lead it, else our PREPARE; then our COMMIT.  To [dst]
   alone (a laggard's STATUS), else to every replica (our stalled status
   timer). *)
let resend_slot ?dst t seq (entry : Log.entry) (pp : M.pre_prepare) =
  if primary_of t pp.view = t.id then send_pre_prepare ?dst t entry pp Resend_status
  else if Option.is_some entry.prepares.(t.id) then
    send ?dst t (M.Prepare { view = pp.view; seq; digest = pp.digest; replica = t.id });
  if entry.sent_commit then
    send ?dst t (M.Commit { view = pp.view; seq; digest = pp.digest; replica = t.id })

let send_reply t (reply : M.reply) =
  let reply =
    match t.behavior with
    | Lie_in_replies ->
      (* Corrupt the result: a faulty replica answering with garbage. *)
      { reply with result = String.map (fun c -> Char.chr (Char.code c lxor 0x5a)) reply.result }
    | Honest | Mute | Equivocate -> reply
  in
  if t.behavior <> Mute then begin
    Base_obs.Profile.start t.prof t.p_seal;
    let env =
      M.seal_for t.keychain ~shard:t.shard ~sender:t.id ~receiver:reply.client (M.Reply reply)
    in
    Base_obs.Profile.stop t.prof t.p_seal;
    t.net.send ~dst:reply.client env
  end

(* --- timers ------------------------------------------------------------- *)

let has_pending t = t.external_pending > 0 || Client_table.any_pending t.clients

let cancel_vc_timer t =
  match t.vc_timer with
  | Some id ->
    t.net.cancel_timer id;
    t.vc_timer <- None
  | None -> ()

let arm_vc_timer t =
  t.vc_timer <- Some (t.net.set_timer ~after_us:t.vc_timeout_us ~tag:"vc" ~payload:t.view)

let start_vc_timer t = if t.vc_timer = None && t.status = Normal then arm_vc_timer t

let restart_vc_timer t =
  cancel_vc_timer t;
  if has_pending t then start_vc_timer t

(* --- checkpoints -------------------------------------------------------- *)

let rec make_stable t seq digest =
  if seq > t.h then begin
    t.h <- seq;
    t.stable_digest <- digest;
    Log.discard_below t.log seq;
    t.app.discard_checkpoints_below seq;
    if t.next_seq < seq then t.next_seq <- seq;
    (* The primary may now have window space for queued requests. *)
    drain_queue t
  end

and maybe_stable t seq =
  match Hashtbl.find_opt t.log.own_cps seq with
  | Some own
    when seq > t.h
         && Log.count_matching ~except:(-1) (Log.cp_votes t.log seq) own + 1
            >= Types.quorum t.config ->
    make_stable t seq own
  | Some _ | None -> ()

and take_checkpoint t =
  let seq = t.last_exec in
  let d = checkpoint_now t ~seq in
  Hashtbl.replace t.log.own_cps seq d;
  t.stats.checkpoints_taken <- t.stats.checkpoints_taken + 1;
  observe_span t.obs.m_cp_interval ~since:t.obs.last_cp ~until:(now t);
  t.obs.last_cp <- now t;
  broadcast_checkpoint t ~seq d;
  maybe_stable t seq

(* --- execution ---------------------------------------------------------- *)

(* An entry may only execute when every not-yet-executed request in its batch
   passes the runtime's [ready] gate.  The gate is consulted for internal
   (cross-shard) requests too: the runtime uses the first ready-query on a
   lock request as the lock-acquisition event, so arrival at the gate — not
   execution — is what orders the lock on every replica identically.  The
   whole batch parks together: executing a prefix would split one consensus
   instance across checkpoints. *)
and entry_ready t (pp : M.pre_prepare) =
  List.for_all
    (fun (r : M.request) ->
      r.client = -1
      || r.timestamp <= (Client_table.find t.clients r.client).last_ts
      || t.app.ready ~client:r.client ~timestamp:r.timestamp ~operation:r.operation)
    pp.requests

and execute_entry t seq (entry : Log.entry) (pp : M.pre_prepare) =
  List.iter
    (fun (r : M.request) ->
      if r.client >= 0 then begin
        let cr = Client_table.find t.clients r.client in
        (* A request can be ordered twice across view changes; only its
           first ordering executes (exactly-once semantics via the
           client-table timestamp). *)
        if r.timestamp > cr.last_ts then begin
          t.stats.executed_requests <- t.stats.executed_requests + 1;
          Base_obs.Profile.start t.prof t.p_exec;
          let result =
            t.app.execute ~client:r.client ~timestamp:r.timestamp ~operation:r.operation
              ~nondet:pp.nondet ~read_only:false
          in
          Base_obs.Profile.stop t.prof t.p_exec;
          (* An internal (runtime-injected) request, e.g. a cross-shard lock,
             executes through the same upcall — the runtime recognises the
             virtual client id — but gets no reply, and is never pending. *)
          if Types.is_internal_client r.client then Client_table.executed t.clients cr r None
          else begin
            let reply =
              { M.view = t.view; timestamp = r.timestamp; client = r.client; replica = t.id;
                result }
            in
            Client_table.executed t.clients cr r (Some reply);
            send_reply t reply
          end
        end
      end)
    pp.requests;
  t.last_exec <- seq;
  t.stats.executed <- t.stats.executed + 1;
  observe_span t.obs.m_execute ~since:entry.t_committed ~until:(now t);
  observe_span t.obs.m_total ~since:entry.t_pp ~until:(now t);
  restart_vc_timer t;
  drain_queue t;
  if seq mod t.config.checkpoint_period = 0 then take_checkpoint t

and try_execute t =
  (* The ready/execute upcalls can re-enter (releasing a cross-shard lock on
     one replica kicks execution on another replica of the same node, whose
     execute upcall can release back).  A nested call only records that more
     work may be possible; the outermost activation re-checks. *)
  if t.in_try_execute then t.exec_again <- true
  else begin
    t.in_try_execute <- true;
    Fun.protect
      ~finally:(fun () -> t.in_try_execute <- false)
      (fun () ->
        let continue = ref (t.status <> Fetching) in
        while !continue do
          t.exec_again <- false;
          let seq = t.last_exec + 1 in
          (match Hashtbl.find_opt t.log.entries seq with
          | Some ({ committed = true; pre_prepare = Some pp; _ } as entry) ->
            if entry_ready t pp then execute_entry t seq entry pp
            else continue := false
          | Some _ | None -> continue := false);
          if (not !continue) && t.exec_again && t.status <> Fetching then continue := true
        done)
  end

(* --- certificates ------------------------------------------------------- *)

and maybe_committed t (entry : Log.entry) =
  match entry.pre_prepare with
  | Some pp when entry.prepared_proof <> None && not entry.committed ->
    if Log.count_matching ~except:(-1) entry.commits pp.digest >= Types.quorum t.config then begin
      entry.committed <- true;
      entry.t_committed <- now t;
      observe_span t.obs.m_commit ~since:entry.t_prepared ~until:entry.t_committed;
      try_execute t
    end
  | Some _ | None -> ()

and maybe_prepared t seq (entry : Log.entry) =
  match entry.pre_prepare with
  | Some pp ->
    let count = Log.count_matching ~except:(primary_of t pp.view) entry.prepares pp.digest in
    if count >= 2 * t.config.f && entry.prepared_proof = None then begin
      entry.prepared_proof <-
        Some
          {
            M.pp_view = pp.view;
            pp_seq = pp.seq;
            pp_digest = pp.digest;
            pp_requests = pp.requests;
            pp_nondet = pp.nondet;
          };
      entry.t_prepared <- now t;
      observe_span t.obs.m_prepare ~since:entry.t_pp ~until:entry.t_prepared;
      if not entry.sent_commit then begin
        entry.sent_commit <- true;
        entry.commits.(t.id) <- Some pp.digest;
        send t (M.Commit { view = pp.view; seq; digest = pp.digest; replica = t.id })
      end;
      maybe_committed t entry
    end
    else if entry.prepared_proof <> None then maybe_committed t entry
  | None -> ()

(* --- primary proposal --------------------------------------------------- *)

(* Order a batch of requests as one consensus instance. *)
and assign t (batch : M.request list) =
  t.next_seq <- t.next_seq + 1;
  let seq = t.next_seq in
  let operation = match batch with r :: _ -> r.M.operation | [] -> "" in
  let nondet = t.app.propose_nondet ~operation in
  let digest = Log.ordering_digest batch nondet in
  let pp = { M.view = t.view; seq; digest; requests = batch; nondet } in
  let entry = Log.entry t.log seq in
  entry.pre_prepare <- Some pp;
  entry.t_pp <- now t;
  List.iter
    (fun (r : M.request) ->
      let cr = Client_table.find t.clients r.client in
      Client_table.assign cr r seq;
      pre_prepare_span t cr r entry)
    batch;
  (match t.behavior with
  | Equivocate ->
    (* Send conflicting nondet values to odd and even backups. *)
    let nondet' = nondet ^ "\001" in
    let digest' = Log.ordering_digest batch nondet' in
    let pp' = { pp with digest = digest'; nondet = nondet' } in
    for dst = 0 to t.config.n - 1 do
      if dst <> t.id then send ~dst t (M.Pre_prepare (if dst mod 2 = 0 then pp else pp'))
    done
  | Honest | Mute | Lie_in_replies -> send_pre_prepare t entry pp Original);
  maybe_prepared t seq entry

and inflight t = t.next_seq - t.last_exec

and window_full t = t.next_seq + 1 > t.h + t.config.log_window

and propose t (r : M.request) =
  let cr = Client_table.find t.clients r.client in
  if r.timestamp < cr.assigned_ts || r.timestamp <= cr.last_ts then ()
  else
    let assigned =
      if Int64.equal r.timestamp cr.assigned_ts then Hashtbl.find_opt t.log.entries cr.assigned_seq
      else None
    in
    match assigned with
    | Some ({ pre_prepare = Some pp; _ } as entry) when pp.view = t.view ->
      (* Assigned in this view already: resend to each backup whose PREPARE
         we lack, so lost copies recover. *)
      for b = 0 to t.config.n - 1 do
        if b <> t.id && Option.is_none entry.prepares.(b) then
          send_pre_prepare ~dst:b t entry pp Resend_relay
      done
    | Some _ | None ->
      if window_full t || inflight t >= t.config.max_inflight then begin
        (* Defer: the request is ordered in a batch as soon as earlier
           instances make progress (this is where batching comes from). *)
        if Client_table.enqueue cr r then Queue.add r t.queued_requests
      end
      else
        (* Fresh assignment, including when an earlier assignment died with
           its view (it never reached a quorum, or the new-view O set would
           have re-proposed it); exactly-once execution is enforced by the
           client-table timestamp at execution time. *)
        assign t [ r ]

and drain_queue t =
  if is_primary t && t.status = Normal then begin
    let continue = ref true in
    while (not (Queue.is_empty t.queued_requests)) && !continue do
      if window_full t || inflight t >= t.config.max_inflight then continue := false
      else begin
        (* Pop up to batch_max still-relevant requests into one instance. *)
        let batch = ref [] in
        let size = ref 0 in
        while !size < t.config.batch_max && not (Queue.is_empty t.queued_requests) do
          let r = Queue.pop t.queued_requests in
          (* Taken for the next slot at once, so a batch holds it once. *)
          if Client_table.dequeue (Client_table.find t.clients r.M.client) r (t.next_seq + 1)
          then begin
            batch := r :: !batch;
            incr size
          end
        done;
        match List.rev !batch with [] -> () | batch -> assign t batch
      end
    done
  end

let in_window t seq = seq > t.h && seq <= t.h + t.config.log_window

(* --- read-only requests ------------------------------------------------- *)

let execute_read_only t (r : M.request) =
  Base_obs.Profile.start t.prof t.p_exec;
  let result =
    t.app.execute ~client:r.client ~timestamp:r.timestamp ~operation:r.operation ~nondet:""
      ~read_only:true
  in
  Base_obs.Profile.stop t.prof t.p_exec;
  send_reply t
    { M.view = t.view; timestamp = r.timestamp; client = r.client; replica = t.id; result }

(* --- request handling --------------------------------------------------- *)

let handle_request t env (r : M.request) =
  if r.read_only then execute_read_only t r
  else begin
    let cr = Client_table.find t.clients r.client in
    if r.timestamp < cr.last_ts then ()
    else if Int64.equal r.timestamp cr.last_ts then begin
      (* Retransmission of an executed request: resend the stored reply. *)
      match cr.last_reply with
      | Some reply -> send_reply t { reply with view = t.view; replica = t.id }
      | None -> ()
    end
    else begin
      (* The client multicast the request, so a backup only starts its
         progress timer; the status timer relays the request if its
         pre-prepare is slow to come. *)
      Client_table.mark_pending ~env t.clients cr r ~waiting_since:(now t);
      if t.status = Normal then if is_primary t then propose t r else start_vc_timer t
    end
  end

(* --- pre-prepare / prepare / commit ------------------------------------- *)

let handle_pre_prepare t sender (pp : M.pre_prepare) =
  let primary = primary_of t pp.view in
  if
    sender = primary && pp.view = t.view && t.status = Normal && in_window t pp.seq
    && t.id <> primary
  then begin
    let entry = Log.entry t.log pp.seq in
    (* A pre-prepare left over from an earlier view is void in this one: a
       slot the old primary proposed but that never reached a quorum may be
       re-proposed with different contents after the view change (observed
       by replicas that were rebooting through the change).  Supersede it —
       unless the entry committed, in which case the new-view computation
       guarantees the digests agree anyway. *)
    (match entry.pre_prepare with
    | Some existing when existing.view < pp.view && not entry.committed ->
      Log.reset_slot entry None ~t_pp:(-1L) ~keep_commits:false
    | Some _ | None -> ());
    let acceptable =
      match entry.pre_prepare with
      | Some existing ->
        let same = Digest.equal existing.digest pp.digest in
        (* Same view, same slot, different digest: the primary signed two
           conflicting orderings — direct evidence of equivocation. *)
        if not same then Base_obs.Metrics.incr t.obs.c_equivocation;
        same
      | None ->
        Digest.equal (Log.ordering_digest pp.requests pp.nondet) pp.digest
        && List.length pp.requests <= t.config.batch_max
        && (match pp.requests with
           | [] -> true
           | r :: _ -> t.app.check_nondet ~operation:r.M.operation ~nondet:pp.nondet)
    in
    if acceptable && entry.pre_prepare = None then begin
      entry.pre_prepare <- Some pp;
      entry.t_pp <- now t;
      List.iter
        (fun (r : M.request) ->
          (* Internal requests are never pending: [execute_entry] sends them
             no reply, so a mark made here would keep the progress timer
             armed.  The pre-prepare span is only meaningful when the request
             was already known here (from the client's own copy);
             requests first learned from the pre-prepare itself start no
             wait, which would record 0. *)
          if r.client >= 0 && not (Types.is_internal_client r.client) then begin
            let cr = Client_table.find t.clients r.client in
            pre_prepare_span t cr r entry;
            Client_table.mark_pending t.clients cr r ~waiting_since:(-1L)
          end)
        pp.requests;
      start_vc_timer t;
      entry.prepares.(t.id) <- Some pp.digest;
      send t (M.Prepare { view = pp.view; seq = pp.seq; digest = pp.digest; replica = t.id });
      maybe_prepared t pp.seq entry
    end
  end

let handle_prepare t sender (p : M.prepare) =
  if not (Types.is_replica t.config sender) then reject_insane t
  else if
    sender = p.replica && p.view = t.view && t.status = Normal && in_window t p.seq
    && sender <> primary_of t p.view
  then begin
    let entry = Log.entry t.log p.seq in
    if Option.is_none entry.prepares.(sender) then begin
      (match entry.pre_prepare with
      | Some accepted
        when accepted.view = p.view && not (Digest.equal accepted.digest p.digest) ->
        (* A peer prepared a different digest for the slot we accepted: it
           must have seen a conflicting pre-prepare from the primary. *)
        Base_obs.Metrics.incr t.obs.c_equivocation
      | Some _ | None -> ());
      entry.prepares.(sender) <- Some p.digest;
      maybe_prepared t p.seq entry
    end
  end

let handle_commit t sender (c : M.commit) =
  if not (Types.is_replica t.config sender) then reject_insane t
  else if sender = c.replica && c.view <= t.view && in_window t c.seq then begin
    let entry = Log.entry t.log c.seq in
    if Option.is_none entry.commits.(sender) then begin
      entry.commits.(sender) <- Some c.digest;
      maybe_prepared t c.seq entry
    end
  end

(* --- checkpoints and state transfer ------------------------------------- *)

let fetch_target t = Log.fetch_target t.log ~h:t.h ~weak:(Types.weak_quorum t.config)

(* A repair fetch may target a checkpoint at or below our own execution
   point: the replica rolls back to it and re-executes the committed log
   suffix (deterministically), which restores any corrupt concrete state. *)
let start_fetch_internal ?(allow_repair = false) t (seq, digest) =
  if t.fetch_in_progress = None && (seq > t.last_exec || (allow_repair && seq >= t.h))
  then begin
    t.fetch_in_progress <- Some (seq, digest);
    t.resume_vc_after_fetch <- t.status = View_changing;
    t.status <- Fetching;
    t.stats.fetches <- t.stats.fetches + 1;
    cancel_vc_timer t;
    t.app.start_fetch ~seq ~digest
  end

let maybe_fetch_check t ~stalled =
  match fetch_target t with
  | Some (seq, d) when seq > t.last_exec && (seq >= t.h + t.config.log_window || stalled) ->
    (* Transfer when the log can no longer bridge the gap, or when we are
       demonstrably stuck and a certified state exists ahead of us. *)
    start_fetch_internal t (seq, d)
  | Some _ | None -> ()

let handle_checkpoint t sender (c : M.checkpoint) =
  (* Only votes from active replicas count: a checkpoint certificate built
     from f+1 of them always contains a correct replica, which would not
     hold if clients (or standbys) could stuff the table. *)
  if not (Types.is_replica t.config sender) then reject_insane t
  else if sender = c.replica && c.seq > t.h then begin
    Log.record_checkpoint t.log ~top:(t.h + t.config.log_window) ~seq:c.seq sender c.digest;
    if t.role = Active then begin
      maybe_stable t c.seq;
      maybe_fetch_check t ~stalled:false
    end
  end

let initiate_fetch t =
  match fetch_target t with
  | Some target -> start_fetch_internal ~allow_repair:true t target
  | None -> ()

let force_fetch t ~seq ~digest = start_fetch_internal ~allow_repair:true t (seq, digest)

let fetch_complete t ~seq ~app_digest ~client_rows =
  let combined = Client_table.checkpoint_digest ~app_digest client_rows in
  (match t.fetch_in_progress with
  | Some (target_seq, target_digest) when target_seq = seq ->
    assert (Digest.equal combined target_digest)
  | Some _ | None -> ());
  Client_table.install t.clients ~view:t.view ~replica:t.id client_rows;
  (* Move the execution cursor to the transferred checkpoint.  When it lies
     below our previous position this is a rollback: the committed entries
     still in the log re-execute deterministically on the restored state.
     The cursor must follow the state unconditionally — the transfer
     installed the at-[seq] state, so leaving the cursor anywhere else
     would silently drop every operation between them. *)
  t.last_exec <- seq;
  if seq > t.h then begin
    t.h <- seq;
    t.stable_digest <- combined;
    Hashtbl.replace t.log.own_cps seq combined;
    Log.discard_below t.log seq
  end;
  t.fetch_in_progress <- None;
  if t.status = Fetching then begin
    if t.resume_vc_after_fetch then begin
      (* The fetch interrupted an unresolved view change: stay in it, with
         its escalation timer re-armed, until NEW-VIEW or abandonment. *)
      t.status <- View_changing;
      arm_vc_timer t
    end
    else t.status <- Normal
  end;
  t.resume_vc_after_fetch <- false;
  if t.next_seq < t.h then t.next_seq <- t.h;
  if seq < t.h then
    (* The stable watermark overtook the fetch target while the transfer
       was in flight (checkpoints keep certifying while we are Fetching),
       and the log below the new watermark is gone — re-execution cannot
       bridge the gap.  The replica is now simply behind: fetch again,
       against the freshest certified checkpoint (>= h). *)
    initiate_fetch t;
  try_execute t;
  drain_queue t

(* --- view changes -------------------------------------------------------- *)

let vc_table t view =
  match Hashtbl.find_opt t.vcs view with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 8 in
    Hashtbl.replace t.vcs view tbl;
    tbl

(* Back to normal operation in view [v] with the base timeout: a NEW-VIEW
   was installed, or the view change was abandoned for the group's view
   ([installed = false]), which records no view-change duration. *)
let leave_view_change t v ~installed =
  t.view <- v;
  t.status <- Normal;
  if installed then observe_span t.obs.m_view_change ~since:t.obs.vc_started ~until:(now t);
  t.obs.vc_started <- -1L;
  t.resume_vc_after_fetch <- false;
  t.vc_timeout_us <- t.config.viewchange_timeout_us;
  cancel_vc_timer t

let rec do_view_change t v' =
  if v' > t.view || (v' = t.view && t.status = Normal) then begin
    t.view <- v';
    t.status <- View_changing;
    if Int64.compare t.obs.vc_started 0L < 0 then t.obs.vc_started <- now t;
    t.stats.view_changes <- t.stats.view_changes + 1;
    cancel_vc_timer t;
    let vc =
      {
        M.new_view = v';
        last_stable = t.h;
        stable_digest = t.stable_digest;
        prepared = Log.prepared_proofs t.log ~above:t.h;
        replica = t.id;
      }
    in
    Hashtbl.replace (vc_table t v') t.id vc;
    send t (M.View_change vc);
    (* Escalate with a doubled (but bounded) timeout if this view change
       stalls. *)
    t.vc_timeout_us <- min (t.vc_timeout_us * 2) (20 * t.config.viewchange_timeout_us);
    arm_vc_timer t;
    check_new_view t v'
  end

and install_new_view t ~min_s (nv : M.new_view) =
  let v' = nv.nv_view and o = nv.nv_pre_prepares in
  leave_view_change t v' ~installed:true;
  (* Certificates from earlier views are void in the new view. *)
  List.iter
    (fun (pp : M.pre_prepare) ->
      let entry = Log.entry t.log pp.seq in
      if not entry.committed then begin
        Log.reset_slot entry (Some pp) ~t_pp:(now t) ~keep_commits:entry.sent_commit;
        if not (is_primary t) then begin
          entry.prepares.(t.id) <- Some pp.digest;
          send t (M.Prepare { view = v'; seq = pp.seq; digest = pp.digest; replica = t.id })
        end
      end)
    o;
  if t.next_seq < min_s then t.next_seq <- min_s;
  let max_o = List.fold_left (fun acc (pp : M.pre_prepare) -> max acc pp.seq) min_s o in
  if t.next_seq < max_o then t.next_seq <- max_o;
  if min_s > t.h then begin
    (* We are behind the new-view's stable checkpoint: transfer state. *)
    match fetch_target t with
    | Some target -> start_fetch_internal t target
    | None -> ()
  end;
  List.iter (fun (pp : M.pre_prepare) -> maybe_prepared t pp.seq (Log.entry t.log pp.seq)) o;
  if has_pending t then start_vc_timer t;
  drain_queue t;
  (* The new primary immediately proposes the client requests it knows are
     still waiting; without this, liveness depends on a client
     retransmission landing inside the view's timeout window. *)
  if is_primary t then
    List.iter
      (fun (cr : Client_table.client) ->
        match cr.pending with Some r -> propose t r | None -> ())
      (Client_table.pending_clients t.clients)

and check_new_view t v' =
  if primary_of t v' = t.id && t.status = View_changing && t.view = v' then begin
    let tbl = vc_table t v' in
    if Hashtbl.length tbl >= Types.quorum t.config then begin
      let vc_list = List.map snd (Log.sorted_bindings tbl) in
      let summary = List.map (fun vc -> (vc.M.replica, vc.M.last_stable)) vc_list in
      let nv =
        {
          M.nv_view = v';
          nv_view_changes = summary;
          nv_pre_prepares = View_change.compute_o ~log_window:t.config.log_window v' vc_list;
        }
      in
      t.last_nv <- Some nv;
      send t (M.New_view nv);
      install_new_view t ~min_s:(View_change.min_s summary) nv
    end
  end

let handle_view_change t sender (vc : M.view_change) =
  (* Only active replicas vote for a view: f+1 VIEW-CHANGEs from clients
     would otherwise push a replica into a new view, and 2f+1 would make
     the new primary install an O set of their choosing. *)
  if not (Types.is_replica t.config sender && View_change.vc_sane t.config vc) then
    reject_insane t
  else if sender = vc.replica && vc.new_view > 0 then begin
    Hashtbl.replace (vc_table t vc.new_view) sender vc;
    (* Liveness rule: join the smallest view for which f+1 replicas already
       asked for a view change above ours. *)
    if vc.new_view > t.view then begin
      (* Every (replica, view) vote above our view; the per-replica minimum
         view over these attains its minimum at the overall minimum, so the
         target view is just the smallest voted view. *)
      let votes =
        List.concat_map
          (fun (v, tbl) ->
            if v > t.view then List.map (fun (r, _) -> (r, v)) (Log.sorted_bindings tbl) else [])
          (Log.sorted_bindings t.vcs)
      in
      let voters = List.sort_uniq Int.compare (List.map fst votes) in
      if List.length voters >= Types.weak_quorum t.config then begin
        let target = List.fold_left (fun acc (_, v) -> min acc v) max_int votes in
        do_view_change t target
      end
    end;
    check_new_view t vc.new_view
  end

let handle_new_view t sender (nv : M.new_view) =
  let v' = nv.nv_view in
  if sender = primary_of t v' && v' >= t.view && sender <> t.id then begin
    (* Recompute O from the view-change messages the primary claims to have
       used; if we hold them all, the result must match exactly. *)
    let tbl = vc_table t v' in
    let vcs_used =
      List.filter_map (fun (r, _) -> Hashtbl.find_opt tbl r) nv.nv_view_changes
    in
    let min_s = View_change.min_s nv.nv_view_changes in
    let ok =
      if not (View_change.nv_sane t.config ~min_s nv) then begin
        reject_insane t;
        false
      end
      else if List.compare_lengths vcs_used nv.nv_view_changes <> 0 then
        List.length nv.nv_view_changes >= Types.quorum t.config
      else View_change.o_matches ~log_window:t.config.log_window nv vcs_used
    in
    if ok then install_new_view t ~min_s nv else do_view_change t (v' + 1)
  end

(* --- retransmission / progress timer ------------------------------------ *)

let arm_status_timer t =
  (match t.status_timer with Some id -> t.net.cancel_timer id | None -> ());
  t.status_timer <-
    Some (t.net.set_timer ~after_us:(t.config.viewchange_timeout_us / 2) ~tag:"status" ~payload:0)

let on_status_timer t =
  (* Re-announce the latest own checkpoint so laggards find fetch targets,
     and gossip progress so peers can retransmit what we are missing. *)
  (match Hashtbl.find_opt t.log.own_cps t.h with
  | Some d when t.h > 0 -> broadcast_checkpoint t ~seq:t.h d
  | Some _ | None -> ());
  send t (M.Status { st_view = t.view; st_last_exec = t.last_exec; st_h = t.h; st_replica = t.id });
  (* A backup relays, in the client's own envelope (so the primary checks
     the client's MAC), each request still waiting for its pre-prepare.
     The tick comes before the progress timer, so a primary that missed
     the client's copy orders it without a view change. *)
  if t.status = Normal && not (is_primary t) then
    List.iter
      (fun (cr : Client_table.client) ->
        match cr.pending_env with
        | Some env when Int64.compare cr.pending_since 0L >= 0 ->
          t.net.send ~dst:(primary_of t t.view) env
        | Some _ | None -> ())
      (Client_table.pending_clients t.clients);
  let stalled = t.last_exec = t.last_progress_exec in
  if stalled && t.status = Normal then begin
    (* Retransmit protocol messages for in-flight slots, in seqno order. *)
    List.iter
      (fun (seq, (entry : Log.entry)) ->
        match entry.pre_prepare with
        | Some pp when seq > t.last_exec && pp.view = t.view -> resend_slot t seq entry pp
        | Some _ | None -> ())
      (Log.sorted_bindings t.log.entries);
    maybe_fetch_check t ~stalled:true
  end;
  t.last_progress_exec <- t.last_exec;
  arm_status_timer t

let start_status_timer t = if t.status_timer = None then arm_status_timer t

(* Called after a proactive-recovery reboot: timers that fired while the
   node was down were dropped, so re-arm them. *)
let on_reboot t =
  t.vc_timer <- None;
  if has_pending t then start_vc_timer t;
  arm_status_timer t

let abort_fetch t =
  t.fetch_in_progress <- None;
  if t.status = Fetching then t.status <- Normal

(* Standby bookkeeping after a completed shadow sync: advance the watermark
   to the synced checkpoint and drop certificate tables below it, so the
   certificate store stays bounded however long the standby shadows the
   group.  Called by the runtime's shadow-sync driver only. *)
let standby_note_synced t ~seq ~digest =
  if t.role = Standby && seq > t.h then begin
    t.h <- seq;
    t.stable_digest <- digest;
    t.last_exec <- seq;
    Log.discard_below t.log seq
  end

(* A peer announced it is behind us: retransmit, directly to it, the
   protocol messages it needs to make progress — our pre-prepares if we led
   their view of those slots, plus our prepares, commits and checkpoint.
   This is PBFT's status/retransmission mechanism, which gives liveness when
   a replica missed messages while rebooting.  Only active replicas take
   part: a client's STATUS would otherwise buy it a replay of the log. *)
let handle_status t sender (st : M.status_msg) =
  if not (Types.is_replica t.config sender) then reject_insane t
  else if sender = st.st_replica then begin
    t.peer_views.(sender) <- st.st_view;
    (* View abandonment: a replica that escalated views alone (e.g. around
       a proactive recovery) can never gather 2f+1 VIEW-CHANGEs — had f+1
       peers been with it, the group would have joined.  When a quorum of
       peers reports lower views and we hold no prepared certificate above
       them, rejoin the group's view; nothing could have committed in
       ours. *)
    if t.status = View_changing && st.st_view < t.view then begin
      let lower = ref 0 and target = ref 0 in
      Array.iter
        (fun v ->
          if v < t.view then begin
            incr lower;
            target := max !target v
          end)
        t.peer_views;
      let prepared_above =
        List.exists
          (fun (_, (e : Log.entry)) ->
            match e.prepared_proof with Some p -> p.M.pp_view > !target | None -> false)
          (Log.sorted_bindings t.log.entries)
      in
      if !lower >= Types.quorum t.config - 1 && not prepared_above then begin
        leave_view_change t !target ~installed:false;
        if has_pending t then start_vc_timer t
      end
    end;
    (* A peer stuck in an older view missed the view change while it was
       down (proactive recovery, crash): a replica rejoining the group this
       way has no other path back, because clients have moved on to the new
       primary and only pending client requests escalate views locally.
       The primary that installed the current view retransmits its
       NEW-VIEW, which the laggard verifies and installs through the normal
       quorum-trusting path. *)
    (match t.last_nv with
    | Some nv when st.st_view < t.view && nv.M.nv_view = t.view && is_primary t ->
      send ~dst:sender t (M.New_view nv)
    | Some _ | None -> ());
    if st.st_view <= t.view then begin
      (* Checkpoint proof so it can garbage-collect / find fetch targets. *)
      (match Hashtbl.find_opt t.log.own_cps t.h with
      | Some d when t.h > st.st_h ->
        send ~dst:sender t (M.Checkpoint { seq = t.h; digest = d; replica = t.id })
      | Some _ | None -> ());
      if st.st_view = t.view && st.st_last_exec < t.last_exec then begin
        let upper = min t.last_exec (st.st_h + t.config.log_window) in
        (* A Byzantine STATUS can claim an arbitrarily low [st_last_exec];
           iterating from it would replay (and allocate protocol messages
           for) an attacker-chosen number of slots.  An honest laggard's gap
           within [upper] never exceeds the log window, so cap the replay
           count there and serve the top of the range. *)
        let count = min (upper - st.st_last_exec) t.config.log_window in
        let dst = Some sender and unreplayable = ref false in
        for off = 1 to count do
          let seq = upper - count + off in
          match Hashtbl.find_opt t.log.entries seq with
          | Some ({ pre_prepare = Some pp; _ } as entry) when pp.view = t.view ->
            resend_slot ?dst t seq entry pp
          | Some { pre_prepare = Some pp; committed = true; _ } when pp.view < t.view ->
            (* Committed under an earlier primary: the agreement messages
               are void in this view and will never be re-run. *)
            unreplayable := true
          | Some _ -> ()
          | None -> unreplayable := true
        done;
        (* The laggard cannot be fed messages for part of its gap; give it a
           state-transfer target instead by checkpointing our current state
           off-schedule (every up-to-date replica does the same on seeing
           the laggard's STATUS, so the checkpoint gets certified). *)
        if !unreplayable && not (Hashtbl.mem t.log.own_cps t.last_exec) then take_checkpoint t
      end
    end
  end

(* --- entry points -------------------------------------------------------- *)

let on_timer t ~tag ~payload =
  match tag with
  | "vc" ->
    if t.behavior <> Mute then begin
      if t.status = View_changing && t.view = payload then do_view_change t (t.view + 1)
      else if t.status = Normal && t.view = payload && has_pending t then begin
        t.vc_timer <- None;
        do_view_change t (t.view + 1)
      end
    end
  | "status" -> if t.behavior <> Mute then on_status_timer t else ()
  | _ -> ()

let receive t (env : M.envelope) =
  Base_obs.Profile.start t.prof t.p_verify;
  let authentic = M.verify t.keychain ~receiver:t.id env in
  Base_obs.Profile.stop t.prof t.p_verify;
  if not authentic then begin
    t.stats.rejected_macs <- t.stats.rejected_macs + 1;
    Base_obs.Metrics.incr t.obs.c_reject_mac
  end
  else if env.shard <> t.shard then
    (* The MAC binds the shard tag, so this is a well-authenticated message
       for a different agreement instance — mis-routed, not forged.  It is
       meaningless here (seqnos and views are per-shard namespaces). *)
    reject_insane t
  else begin
    Base_obs.Profile.start t.prof t.p_handle;
    (if t.role = Standby then begin
       (* A standby only ever learns checkpoint certificates; every agreement
          message is noise to it (and processing one could make it broadcast,
          which a non-voting group member must never do). *)
       match env.body with
       | M.Checkpoint c -> handle_checkpoint t env.sender c
       | M.Request _ | M.Pre_prepare _ | M.Prepare _ | M.Commit _ | M.View_change _
       | M.New_view _ | M.Status _ | M.Reply _ -> ()
     end
     else
       match env.body with
       | M.Request r ->
         (* Only the client's own (possibly relayed) envelope is acceptable:
            the MAC was checked under the key shared with [env.sender], so a
            replica cannot forge requests on a client's behalf. *)
         if r.client = env.sender then handle_request t env r
       | M.Pre_prepare pp -> handle_pre_prepare t env.sender pp
       | M.Prepare p -> handle_prepare t env.sender p
       | M.Commit c -> handle_commit t env.sender c
       | M.Checkpoint c -> handle_checkpoint t env.sender c
       | M.View_change vc -> handle_view_change t env.sender vc
       | M.New_view nv -> handle_new_view t env.sender nv
       | M.Status st -> handle_status t env.sender st
       | M.Reply _ -> ());
    Base_obs.Profile.stop t.prof t.p_handle
  end

let receive_wire ?(shard = 0) t ~sender ~macs raw =
  match M.of_wire ~shard ~sender ~macs raw with
  | Error _ ->
    t.stats.rejected_decode <- t.stats.rejected_decode + 1;
    Base_obs.Metrics.incr t.obs.c_reject_decode
  | Ok env -> receive t env

let create ?metrics ?(profile = Base_obs.Profile.disabled) ?(role = Active) ?(shard = 0) ~config
    ~id ~keychain ~net ~app () =
  let metrics =
    match metrics with Some m -> m | None -> Base_obs.Metrics.create ()
  in
  let t =
    {
      config;
      id;
      shard;
      keychain;
      net;
      app;
      role;
      behavior = Honest;
      view = 0;
      status = Normal;
      log = Log.create config.n;
      clients = Client_table.create ();
      h = 0;
      stable_digest = Digest.zero;
      last_exec = 0;
      next_seq = 0;
      queued_requests = Queue.create ();
      vcs = Hashtbl.create 8;
      vc_timer = None;
      vc_timeout_us = config.viewchange_timeout_us;
      status_timer = None;
      last_progress_exec = 0;
      fetch_in_progress = None;
      resume_vc_after_fetch = false;
      external_pending = 0;
      in_try_execute = false;
      exec_again = false;
      peer_views = Array.make config.n max_int;
      last_nv = None;
      stats =
        {
          executed = 0;
          executed_requests = 0;
          checkpoints_taken = 0;
          view_changes = 0;
          fetches = 0;
          rejected_macs = 0;
          rejected_decode = 0;
          rejected_insane = 0;
          pp_resent_relay = 0;
          pp_resent_status = 0;
        };
      obs = make_obs ~suffix:(if shard = 0 then "" else Printf.sprintf ".s%d" shard) metrics;
      prof = profile;
      p_verify = Base_obs.Profile.probe profile "bft.verify";
      p_seal = Base_obs.Profile.probe profile "bft.seal";
      p_handle = Base_obs.Profile.probe profile "bft.handle";
      p_exec = Base_obs.Profile.probe profile "bft.execute";
    }
  in
  (* Initial checkpoint at seqno 0 so watermark logic is uniform. *)
  let d = checkpoint_now t ~seq:0 in
  Hashtbl.replace t.log.own_cps 0 d;
  t.stable_digest <- d;
  t

let id t = t.id

(* --- cross-shard runtime hooks ------------------------------------------- *)

let submit_internal t (r : M.request) =
  if t.role = Active && t.status = Normal && is_primary t then propose t r

let resume_execution t =
  try_execute t;
  drain_queue t

let add_external_pending t =
  t.external_pending <- t.external_pending + 1;
  start_vc_timer t

let clear_external_pending t =
  t.external_pending <- max 0 (t.external_pending - 1);
  restart_vc_timer t

let view t = t.view

let last_executed t = t.last_exec

let low_watermark t = t.h

let status t = t.status

let stats t = t.stats

let set_behavior t b = t.behavior <- b
