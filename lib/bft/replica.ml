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

(* A vote table: slot [r] holds replica [r]'s digest, [None] until it
   votes.  Only active replicas ([0 .. n-1]) vote, so the handlers bound
   every sender before indexing. *)
type votes = Digest.t option array

(* A primary's PRE-PREPARE envelope, with the pre-prepare record it was
   sealed from and the keychain generation it was sealed under. *)
type sealed = { s_pp : M.pre_prepare; s_generation : int; s_env : M.envelope }

(* Per-sequence-number log slot.  Certificates are counted over matching
   digests in the prepare/commit vote tables.  The [t_*] fields are local
   phase timestamps (-1 = milestone not reached). *)
type entry = {
  mutable pre_prepare : M.pre_prepare option;
  mutable sealed_pp : sealed option;  (* primary: see [send_pre_prepare] *)
  prepares : votes;
  commits : votes;
  mutable sent_commit : bool;
  mutable committed : bool;
  mutable prepared_proof : M.prepared_proof option;
  mutable t_pp : int64;
  mutable t_prepared : int64;
  mutable t_committed : int64;
}

type client_rec = {
  mutable last_ts : int64;  (* timestamp of last executed request *)
  mutable last_reply : M.reply option;
  mutable pending : M.request option;  (* received but not yet executed *)
  mutable pending_since : int64;  (* local arrival time of [pending]; -1 = none *)
  mutable assigned_ts : int64;  (* primary: highest timestamp given a seqno *)
  mutable assigned_seq : Types.seqno;
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
  entries : (Types.seqno, entry) Hashtbl.t;
  clients : (int, client_rec) Hashtbl.t;
  mutable n_pending : int;  (* records in [clients] whose [pending] is set *)
  cp_msgs : (Types.seqno, votes) Hashtbl.t;
  own_cps : (Types.seqno, Digest.t) Hashtbl.t;
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
  peer_views : (int, Types.view) Hashtbl.t;  (* latest STATUS-reported views *)
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

let fresh_entry n =
  {
    pre_prepare = None;
    sealed_pp = None;
    prepares = Array.make n None;
    commits = Array.make n None;
    sent_commit = false;
    committed = false;
    prepared_proof = None;
    t_pp = -1L;
    t_prepared = -1L;
    t_committed = -1L;
  }

let now t = t.net.now_us ()

(* Every primary computation below goes through this: each shard runs its own
   rotation, offset so concurrent shards spread their primaries over distinct
   replicas in any given view. *)
let primary_of t view = Types.shard_primary t.config ~shard:t.shard view

(* Record [until - since] in [hist]; skipped when the earlier milestone was
   never seen locally (e.g. the slot arrived pre-committed via new-view). *)
let observe_span hist ~since ~until =
  if Int64.compare since 0L >= 0 && Int64.compare until since >= 0 then
    Base_obs.Metrics.observe hist (Int64.to_float (Int64.sub until since))

let get_entry t seq =
  match Hashtbl.find_opt t.entries seq with
  | Some e -> e
  | None ->
    let e = fresh_entry t.config.n in
    Hashtbl.replace t.entries seq e;
    e

let client_rec t c =
  match Hashtbl.find_opt t.clients c with
  | Some r -> r
  | None ->
    let r =
      {
        last_ts = -1L;
        last_reply = None;
        pending = None;
        pending_since = -1L;
        assigned_ts = -1L;
        assigned_seq = -1;
      }
    in
    Hashtbl.replace t.clients c r;
    r

(* Every write to [client_rec.pending] goes through here, so [n_pending]
   answers "is any client waiting?" without scanning the table. *)
let set_pending t cr p =
  (match (cr.pending, p) with
  | None, Some _ -> t.n_pending <- t.n_pending + 1
  | Some _, None -> t.n_pending <- t.n_pending - 1
  | Some _, Some _ | None, None -> ());
  cr.pending <- p

(* Deterministic traversal of an int-keyed table: snapshot the bindings and
   sort by key.  Every table scan below goes through this, so retransmission
   order and wire-visible new-view summaries are independent of hash-table
   iteration order.  It allocates the whole table, so the per-message paths
   avoid it: vote tables are arrays and the pending count is kept live. *)
let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* A well-formed, authenticated message whose claims the protocol cannot
   accept. *)
let reject_insane t =
  t.stats.rejected_insane <- t.stats.rejected_insane + 1;
  Base_obs.Metrics.incr t.obs.c_reject_insane

let clear_votes (votes : votes) = Array.fill votes 0 (Array.length votes) None

(* --- digests ------------------------------------------------------------ *)

(* The ordering digest binds the whole request batch *and* the agreed
   non-deterministic values, so an equivocating primary cannot get two
   nondet choices (or two batch compositions) past the prepare phase.
   One SHA-256 pass over the injective batch encoding — this runs at the
   primary per proposal and at every backup per PRE-PREPARE acceptance. *)
let ordering_digest requests nondet = Digest.of_string (M.encode_batch requests ~nondet)

(* The last-reply table as [(client, timestamp, result)] rows.  Client ids
   are unique, so the key order of [sorted_bindings] is already the rows'
   total order. *)
let client_rows t =
  List.filter_map
    (fun (c, (r : client_rec)) ->
      match r.last_reply with
      | Some rep -> Some (c, r.last_ts, rep.result)
      | None -> None)
    (sorted_bindings t.clients)

let digest_of_rows rows =
  let e = Base_codec.Xdr.encoder () in
  Base_codec.Xdr.list e
    (fun e (c, ts, res) ->
      Base_codec.Xdr.u32 e c;
      Base_codec.Xdr.i64 e ts;
      Base_codec.Xdr.opaque e res)
    rows;
  Digest.of_string (Base_codec.Xdr.contents e)

let checkpoint_digest ~app_digest ~client_digest =
  Digest.combine [ app_digest; client_digest ]

(* One checkpoint: the application records its state together with the
   client rows, and the combined digest binds both. *)
let checkpoint_now t ~seq =
  let client_rows = client_rows t in
  let app_digest = t.app.take_checkpoint ~seq ~client_rows in
  checkpoint_digest ~app_digest ~client_digest:(digest_of_rows client_rows)

(* --- sending ------------------------------------------------------------ *)

(* Replica-to-replica messages authenticate to the n replicas only; replies
   carry a single MAC for their client (see [send_reply]). *)
let seal t body =
  Base_obs.Profile.start t.prof t.p_seal;
  let env = M.seal t.keychain ~shard:t.shard ~sender:t.id ~n_receivers:t.config.n body in
  Base_obs.Profile.stop t.prof t.p_seal;
  env

let send_one t ~dst body =
  if t.behavior <> Mute then t.net.send ~dst (seal t body)

let broadcast_env t env =
  for r = 0 to t.config.n - 1 do
    if r <> t.id then t.net.send ~dst:r env
  done

let broadcast t body = if t.behavior <> Mute then broadcast_env t (seal t body)

type pp_send = Original | Resend_relay | Resend_status

(* Every PRE-PREPARE this replica sends as primary, first copy and
   retransmissions alike, goes through here ([dst] unicasts, else it
   broadcasts).  A retransmission is the same sealed envelope as the first
   copy: it is reused while the slot still holds the very pre-prepare
   record it was sealed from (a new view or a superseded slot brings a new
   record) and no key refresh happened since, because a refresh voids the
   MACs it carries. *)
let send_pre_prepare ?dst t entry (pp : M.pre_prepare) cause =
  if t.behavior <> Mute then begin
    let generation = Auth.generation t.keychain in
    let env =
      match entry.sealed_pp with
      | Some s when s.s_pp == pp && s.s_generation = generation -> s.s_env
      | Some _ | None ->
        let env = seal t (M.Pre_prepare pp) in
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
    match dst with Some dst -> t.net.send ~dst env | None -> broadcast_env t env
  end

(* Checkpoint announcements go to the whole n+s group, sealed so standbys
   can verify them too: the certificates standbys build from these are
   their only evidence of what the stable abstract state is, so they must
   be first-class MACed messages, not hearsay.  With [s = 0] this is
   exactly [broadcast]. *)
let broadcast_group t body =
  if t.behavior <> Mute then begin
    Base_obs.Profile.start t.prof t.p_seal;
    let env =
      M.seal t.keychain ~shard:t.shard ~sender:t.id ~n_receivers:(Types.group_size t.config)
        body
    in
    Base_obs.Profile.stop t.prof t.p_seal;
    for r = 0 to Types.group_size t.config - 1 do
      if r <> t.id then t.net.send ~dst:r env
    done
  end

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

let has_pending t = t.external_pending > 0 || t.n_pending > 0

let cancel_vc_timer t =
  match t.vc_timer with
  | Some id ->
    t.net.cancel_timer id;
    t.vc_timer <- None
  | None -> ()

let start_vc_timer t =
  if t.vc_timer = None && t.status = Normal then
    t.vc_timer <-
      Some (t.net.set_timer ~after_us:t.vc_timeout_us ~tag:"vc" ~payload:t.view)

let restart_vc_timer t =
  cancel_vc_timer t;
  if has_pending t then start_vc_timer t

(* --- checkpoints -------------------------------------------------------- *)

let cp_table t seq =
  match Hashtbl.find_opt t.cp_msgs seq with
  | Some tbl -> tbl
  | None ->
    let tbl = Array.make t.config.n None in
    Hashtbl.replace t.cp_msgs seq tbl;
    tbl

(* Votes for [digest], leaving out replica [except] (-1 leaves out none). *)
let count_matching ~except (votes : votes) digest =
  let count = ref 0 in
  for r = 0 to Array.length votes - 1 do
    match votes.(r) with
    | Some d when r <> except && Digest.equal d digest -> incr count
    | Some _ | None -> ()
  done;
  !count

let discard_log_below t seq =
  let stale_keys tbl below =
    List.filter_map (fun (s, _) -> if s < below then Some s else None) (sorted_bindings tbl)
  in
  List.iter (Hashtbl.remove t.entries) (stale_keys t.entries (seq + 1));
  List.iter (Hashtbl.remove t.cp_msgs) (stale_keys t.cp_msgs seq);
  List.iter (Hashtbl.remove t.own_cps) (stale_keys t.own_cps seq)

let rec make_stable t seq digest =
  if seq > t.h then begin
    t.h <- seq;
    t.stable_digest <- digest;
    discard_log_below t seq;
    t.app.discard_checkpoints_below seq;
    if t.next_seq < seq then t.next_seq <- seq;
    (* The primary may now have window space for queued requests. *)
    drain_queue t
  end

and maybe_stable t seq =
  match Hashtbl.find_opt t.own_cps seq with
  | None -> ()
  | Some own ->
    if seq > t.h && count_matching ~except:(-1) (cp_table t seq) own + 1 >= Types.quorum t.config
    then make_stable t seq own

and take_checkpoint t =
  let seq = t.last_exec in
  let d = checkpoint_now t ~seq in
  Hashtbl.replace t.own_cps seq d;
  t.stats.checkpoints_taken <- t.stats.checkpoints_taken + 1;
  observe_span t.obs.m_cp_interval ~since:t.obs.last_cp ~until:(now t);
  t.obs.last_cp <- now t;
  broadcast_group t (M.Checkpoint { seq; digest = d; replica = t.id });
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
      ||
      let cr = client_rec t r.client in
      r.timestamp <= cr.last_ts
      || t.app.ready ~client:r.client ~timestamp:r.timestamp ~operation:r.operation)
    pp.requests

and execute_entry t seq entry (pp : M.pre_prepare) =
  List.iter
    (fun (r : M.request) ->
      if r.client >= 0 && not (Types.is_internal_client r.client) then begin
        let cr = client_rec t r.client in
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
          cr.last_ts <- r.timestamp;
          let reply =
            { M.view = t.view; timestamp = r.timestamp; client = r.client; replica = t.id;
              result }
          in
          cr.last_reply <- Some reply;
          (match cr.pending with
          | Some p when p.timestamp <= r.timestamp -> set_pending t cr None
          | Some _ | None -> ());
          send_reply t reply
        end
        else begin
          match cr.pending with
          | Some p when p.timestamp <= r.timestamp -> set_pending t cr None
          | Some _ | None -> ()
        end
      end
      else if Types.is_internal_client r.client then begin
        (* Internal (runtime-injected) request, e.g. a cross-shard lock: it
           executes through the same upcall — the runtime recognises the
           virtual client id — but no reply is sent and no pending
           bookkeeping applies.  The timestamp dedupe still guards against
           re-ordering across view changes. *)
        let cr = client_rec t r.client in
        if r.timestamp > cr.last_ts then begin
          t.stats.executed_requests <- t.stats.executed_requests + 1;
          Base_obs.Profile.start t.prof t.p_exec;
          ignore
            (t.app.execute ~client:r.client ~timestamp:r.timestamp ~operation:r.operation
               ~nondet:pp.nondet ~read_only:false);
          Base_obs.Profile.stop t.prof t.p_exec;
          cr.last_ts <- r.timestamp
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
          (match Hashtbl.find_opt t.entries seq with
          | Some ({ committed = true; pre_prepare = Some pp; _ } as entry) ->
            if entry_ready t pp then execute_entry t seq entry pp
            else continue := false
          | Some _ | None -> continue := false);
          if (not !continue) && t.exec_again && t.status <> Fetching then continue := true
        done)
  end

(* --- certificates ------------------------------------------------------- *)

and maybe_committed t _seq entry =
  match entry.pre_prepare with
  | Some pp when entry.prepared_proof <> None && not entry.committed ->
    if count_matching ~except:(-1) entry.commits pp.digest >= Types.quorum t.config then begin
      entry.committed <- true;
      entry.t_committed <- now t;
      observe_span t.obs.m_commit ~since:entry.t_prepared ~until:entry.t_committed;
      try_execute t
    end
  | Some _ | None -> ()

and maybe_prepared t seq entry =
  match entry.pre_prepare with
  | Some pp ->
    let count = count_matching ~except:(primary_of t pp.view) entry.prepares pp.digest in
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
        broadcast t (M.Commit { view = pp.view; seq; digest = pp.digest; replica = t.id })
      end;
      maybe_committed t seq entry
    end
    else if entry.prepared_proof <> None then maybe_committed t seq entry
  | None -> ()

(* --- primary proposal --------------------------------------------------- *)

(* Order a batch of requests as one consensus instance. *)
and assign t (batch : M.request list) =
  t.next_seq <- t.next_seq + 1;
  let seq = t.next_seq in
  let operation = match batch with r :: _ -> r.M.operation | [] -> "" in
  let nondet = t.app.propose_nondet ~operation in
  let digest = ordering_digest batch nondet in
  let pp = { M.view = t.view; seq; digest; requests = batch; nondet } in
  let entry = get_entry t seq in
  entry.pre_prepare <- Some pp;
  entry.t_pp <- now t;
  List.iter
    (fun (r : M.request) ->
      let cr = client_rec t r.client in
      cr.assigned_ts <- r.timestamp;
      cr.assigned_seq <- seq;
      if Int64.compare cr.pending_since 0L >= 0 then begin
        observe_span t.obs.m_pre_prepare ~since:cr.pending_since ~until:entry.t_pp;
        cr.pending_since <- -1L
      end)
    batch;
  (match t.behavior with
  | Equivocate ->
    (* Send conflicting nondet values to odd and even backups. *)
    let nondet' = nondet ^ "\001" in
    let digest' = ordering_digest batch nondet' in
    let pp' = { pp with digest = digest'; nondet = nondet' } in
    for dst = 0 to t.config.n - 1 do
      if dst <> t.id then send_one t ~dst (M.Pre_prepare (if dst mod 2 = 0 then pp else pp'))
    done
  | Honest | Mute | Lie_in_replies -> send_pre_prepare t entry pp Original);
  maybe_prepared t seq entry

and inflight t = t.next_seq - t.last_exec

and window_full t = t.next_seq + 1 > t.h + t.config.log_window

and propose t (r : M.request) =
  let cr = client_rec t r.client in
  if r.timestamp < cr.assigned_ts || r.timestamp <= cr.last_ts then ()
  else if
    Int64.equal r.timestamp cr.assigned_ts
    && (match Hashtbl.find_opt t.entries cr.assigned_seq with
       | Some { pre_prepare = Some pp; _ } -> pp.view = t.view
       | Some _ | None -> false)
  then begin
    (* Assigned in this view already: retransmit so lost copies recover. *)
    match Hashtbl.find_opt t.entries cr.assigned_seq with
    | Some ({ pre_prepare = Some pp; _ } as entry) -> send_pre_prepare t entry pp Resend_relay
    | Some _ | None -> ()
  end
  else if window_full t || inflight t >= t.config.max_inflight then
    (* Defer: the request is ordered in a batch as soon as earlier
       instances make progress (this is where batching comes from). *)
    Queue.add r t.queued_requests
  else
    (* Fresh assignment, including when an earlier assignment died with its
       view (it never reached a quorum, or the new-view O set would have
       re-proposed it); exactly-once execution is enforced by the
       client-table timestamp at execution time. *)
    assign t [ r ]

and drain_queue t =
  if primary_of t t.view = t.id && t.status = Normal then begin
    let continue = ref true in
    while (not (Queue.is_empty t.queued_requests)) && !continue do
      if window_full t || inflight t >= t.config.max_inflight then continue := false
      else begin
        (* Pop up to batch_max still-relevant requests into one instance. *)
        let batch = ref [] in
        let size = ref 0 in
        while !size < t.config.batch_max && not (Queue.is_empty t.queued_requests) do
          let r = Queue.pop t.queued_requests in
          let cr = client_rec t r.M.client in
          if r.M.timestamp > cr.assigned_ts && r.M.timestamp > cr.last_ts then begin
            batch := r :: !batch;
            incr size
          end
        done;
        match List.rev !batch with [] -> () | batch -> assign t batch
      end
    done
  end

let is_primary t = primary_of t t.view = t.id

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
    let cr = client_rec t r.client in
    if r.timestamp < cr.last_ts then ()
    else if Int64.equal r.timestamp cr.last_ts then begin
      (* Retransmission of an executed request: resend the stored reply. *)
      match cr.last_reply with
      | Some reply -> send_reply t { reply with view = t.view; replica = t.id }
      | None -> ()
    end
    else begin
      (match cr.pending with
      | Some p when p.timestamp >= r.timestamp -> ()
      | Some _ | None ->
        if cr.pending = None then cr.pending_since <- now t;
        set_pending t cr (Some r));
      if t.status = Normal then begin
        if is_primary t then propose t r
        else begin
          (* Relay the client's own envelope so the primary can check the
             client's MAC, and start the progress timer. *)
          t.net.send ~dst:(primary_of t t.view) env;
          start_vc_timer t
        end
      end
    end
  end

(* --- pre-prepare / prepare / commit ------------------------------------- *)

let handle_pre_prepare t sender (pp : M.pre_prepare) =
  let primary = primary_of t pp.view in
  if
    sender = primary && pp.view = t.view && t.status = Normal && in_window t pp.seq
    && t.id <> primary
  then begin
    let entry = get_entry t pp.seq in
    (* A pre-prepare left over from an earlier view is void in this one: a
       slot the old primary proposed but that never reached a quorum may be
       re-proposed with different contents after the view change (observed
       by replicas that were rebooting through the change).  Supersede it —
       unless the entry committed, in which case the new-view computation
       guarantees the digests agree anyway. *)
    (match entry.pre_prepare with
    | Some existing when existing.view < pp.view && not entry.committed ->
      entry.pre_prepare <- None;
      clear_votes entry.prepares;
      clear_votes entry.commits;
      entry.sent_commit <- false;
      entry.prepared_proof <- None;
      entry.t_pp <- -1L;
      entry.t_prepared <- -1L;
      entry.t_committed <- -1L
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
        Digest.equal (ordering_digest pp.requests pp.nondet) pp.digest
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
          (* Internal requests are never pending: [execute_entry] keeps no
             pending bookkeeping for them, so a mark made here would never
             clear and would keep the progress timer armed. *)
          if r.client >= 0 && not (Types.is_internal_client r.client) then begin
            let cr = client_rec t r.client in
            (* The pre-prepare span is only meaningful when the request was
               already known here (relayed to the primary earlier); requests
               first learned from the pre-prepare itself would record 0. *)
            if Int64.compare cr.pending_since 0L >= 0 then begin
              observe_span t.obs.m_pre_prepare ~since:cr.pending_since ~until:entry.t_pp;
              cr.pending_since <- -1L
            end;
            match cr.pending with
            | Some p when p.timestamp >= r.timestamp -> ()
            | Some _ | None -> if r.timestamp > cr.last_ts then set_pending t cr (Some r)
          end)
        pp.requests;
      start_vc_timer t;
      entry.prepares.(t.id) <- Some pp.digest;
      broadcast t (M.Prepare { view = pp.view; seq = pp.seq; digest = pp.digest; replica = t.id });
      maybe_prepared t pp.seq entry
    end
  end

let handle_prepare t sender (p : M.prepare) =
  if not (Types.is_replica t.config sender) then reject_insane t
  else if
    sender = p.replica && p.view = t.view && t.status = Normal && in_window t p.seq
    && sender <> primary_of t p.view
  then begin
    let entry = get_entry t p.seq in
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
    let entry = get_entry t c.seq in
    if Option.is_none entry.commits.(sender) then begin
      entry.commits.(sender) <- Some c.digest;
      maybe_prepared t c.seq entry
    end
  end

(* --- checkpoints and state transfer ------------------------------------- *)

(* The first digest, in replica-id order, voted by at least [weak]
   replicas. *)
let rec certified (votes : votes) ~weak r =
  if r >= Array.length votes then None
  else
    match votes.(r) with
    | Some d as v when count_matching ~except:(-1) votes d >= weak -> v
    | Some _ | None -> certified votes ~weak (r + 1)

let fetch_target t =
  let weak = Types.weak_quorum t.config in
  List.fold_left
    (fun best (seq, votes) ->
      if seq < t.h then best
      else begin
        match (certified votes ~weak 0, best) with
        | Some d, None -> Some (seq, d)
        | Some d, Some (bs, _) when seq > bs -> Some (seq, d)
        | _ -> best
      end)
    None (sorted_bindings t.cp_msgs)

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
    (cp_table t c.seq).(sender) <- Some c.digest;
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
  let client_digest = digest_of_rows client_rows in
  let combined = checkpoint_digest ~app_digest ~client_digest in
  (match t.fetch_in_progress with
  | Some (target_seq, target_digest) when target_seq = seq ->
    assert (Digest.equal combined target_digest)
  | Some _ | None -> ());
  (* Install the transferred last-reply table. *)
  Hashtbl.reset t.clients;
  t.n_pending <- 0;
  List.iter
    (fun (c, ts, result) ->
      let cr = client_rec t c in
      cr.last_ts <- ts;
      cr.last_reply <-
        Some { M.view = t.view; timestamp = ts; client = c; replica = t.id; result })
    client_rows;
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
    Hashtbl.replace t.own_cps seq combined;
    discard_log_below t seq
  end;
  t.fetch_in_progress <- None;
  if t.status = Fetching then begin
    if t.resume_vc_after_fetch then begin
      (* The fetch interrupted an unresolved view change: stay in it, with
         its escalation timer re-armed, until NEW-VIEW or abandonment. *)
      t.status <- View_changing;
      t.vc_timer <-
        Some (t.net.set_timer ~after_us:t.vc_timeout_us ~tag:"vc" ~payload:t.view)
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

let prepared_proofs t =
  Hashtbl.fold
    (fun seq entry acc ->
      if seq > t.h then
        match entry.prepared_proof with Some p -> p :: acc | None -> acc
      else acc)
    t.entries []
  |> List.sort (fun a b -> Int.compare a.M.pp_seq b.M.pp_seq)

let vc_table t view =
  match Hashtbl.find_opt t.vcs view with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 8 in
    Hashtbl.replace t.vcs view tbl;
    tbl

(* Compute the new-view pre-prepare set O from a view-change set.  The
   rebuilt window is capped at [log_window] slots below [max_s]: honest
   view-changes only carry prepared proofs within one window of their
   stable checkpoint, so the cap is invisible to them, while a Byzantine
   proof claiming a far-away [pp_seq] can no longer make this loop (and
   the pre-prepares it allocates) arbitrarily long. *)
let compute_o ~log_window v' (vc_list : M.view_change list) =
  let min_s = List.fold_left (fun acc vc -> max acc vc.M.last_stable) 0 vc_list in
  let max_s =
    List.fold_left
      (fun acc vc ->
        List.fold_left (fun acc p -> max acc p.M.pp_seq) acc vc.M.prepared)
      min_s vc_list
  in
  let count = min (max_s - min_s) log_window in
  let o = ref [] in
  for k = 0 to count - 1 do
    let seq = max_s - k in
    let best =
      List.fold_left
        (fun acc vc ->
          List.fold_left
            (fun acc p ->
              if p.M.pp_seq <> seq then acc
              else
                match acc with
                | Some b when b.M.pp_view >= p.M.pp_view -> acc
                | Some _ | None -> Some p)
            acc vc.M.prepared)
        None vc_list
    in
    let pp =
      match best with
      | Some p ->
        {
          M.view = v';
          seq;
          digest = p.M.pp_digest;
          requests = p.M.pp_requests;
          nondet = p.M.pp_nondet;
        }
      | None -> { M.view = v'; seq; digest = ordering_digest [] ""; requests = []; nondet = "" }
    in
    o := pp :: !o
  done;
  (min_s, !o)

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
        prepared = prepared_proofs t;
        replica = t.id;
      }
    in
    Hashtbl.replace (vc_table t v') t.id vc;
    broadcast t (M.View_change vc);
    (* Escalate with a doubled (but bounded) timeout if this view change
       stalls. *)
    t.vc_timeout_us <- min (t.vc_timeout_us * 2) (20 * t.config.viewchange_timeout_us);
    t.vc_timer <- Some (t.net.set_timer ~after_us:t.vc_timeout_us ~tag:"vc" ~payload:v');
    check_new_view t v'
  end

and install_new_view t v' min_s (o : M.pre_prepare list) =
  t.view <- v';
  t.status <- Normal;
  observe_span t.obs.m_view_change ~since:t.obs.vc_started ~until:(now t);
  t.obs.vc_started <- -1L;
  t.resume_vc_after_fetch <- false;
  t.vc_timeout_us <- t.config.viewchange_timeout_us;
  cancel_vc_timer t;
  (* Certificates from earlier views are void in the new view. *)
  List.iter
    (fun (pp : M.pre_prepare) ->
      let entry = get_entry t pp.seq in
      if not entry.committed then begin
        entry.pre_prepare <- Some pp;
        entry.t_pp <- now t;
        clear_votes entry.prepares;
        if not entry.sent_commit then clear_votes entry.commits;
        entry.prepared_proof <- None;
        entry.sent_commit <- false;
        if not (is_primary t) then begin
          entry.prepares.(t.id) <- Some pp.digest;
          broadcast t
            (M.Prepare { view = v'; seq = pp.seq; digest = pp.digest; replica = t.id })
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
  List.iter (fun (pp : M.pre_prepare) -> maybe_prepared t pp.seq (get_entry t pp.seq)) o;
  if has_pending t then start_vc_timer t;
  drain_queue t;
  (* The new primary immediately proposes the client requests it knows are
     still waiting; without this, liveness depends on a client
     retransmission landing inside the view's timeout window. *)
  if is_primary t then
    List.iter
      (fun (_, cr) ->
        match cr.pending with
        | Some r when r.timestamp > cr.last_ts -> propose t r
        | Some _ | None -> ())
      (sorted_bindings t.clients)

and check_new_view t v' =
  if primary_of t v' = t.id && t.status = View_changing && t.view = v' then begin
    let tbl = vc_table t v' in
    if Hashtbl.length tbl >= Types.quorum t.config then begin
      let vc_list = List.map snd (sorted_bindings tbl) in
      let min_s, o = compute_o ~log_window:t.config.log_window v' vc_list in
      let summary = List.map (fun vc -> (vc.M.replica, vc.M.last_stable)) vc_list in
      let nv = { M.nv_view = v'; nv_view_changes = summary; nv_pre_prepares = o } in
      t.last_nv <- Some nv;
      broadcast t (M.New_view nv);
      install_new_view t v' min_s o
    end
  end

(* A view-change passes the MAC check on its own authority, so every field
   is still just the sender's claim.  Before it enters the [vcs] table —
   where [compute_o] and the liveness rule consume it as fact — require
   the claims to be mutually plausible: non-negative watermarks, and every
   prepared proof within one log window above the stable checkpoint (the
   only place an honest replica can have prepared anything).  A proof
   outside that range could otherwise widen the reconstructed new-view
   window to an attacker-chosen span. *)
let vc_sane t (vc : M.view_change) =
  vc.last_stable >= 0
  && List.for_all
       (fun (p : M.prepared_proof) ->
         p.pp_seq > vc.last_stable
         && p.pp_seq <= vc.last_stable + t.config.log_window
         && p.pp_view >= 0 && p.pp_view < vc.new_view
         && List.length p.pp_requests <= t.config.batch_max)
       vc.prepared

let handle_view_change t sender (vc : M.view_change) =
  if not (vc_sane t vc) then reject_insane t
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
            if v > t.view then List.map (fun (r, _) -> (r, v)) (sorted_bindings tbl) else [])
          (sorted_bindings t.vcs)
      in
      let voters = List.sort_uniq Int.compare (List.map fst votes) in
      if List.length voters >= Types.weak_quorum t.config then begin
        let target = List.fold_left (fun acc (_, v) -> min acc v) max_int votes in
        do_view_change t target
      end
    end;
    check_new_view t vc.new_view
  end

(* Shape check on a NEW-VIEW before we adopt any of its numbers: the
   claimed stable seqnos must be non-negative and every bundled
   pre-prepare must sit inside one log window above the highest claimed
   checkpoint, in the new view itself.  Without this a Byzantine primary
   could teleport [next_seq] (and thus the whole log window) to an
   arbitrary seqno of its choosing. *)
let nv_sane t (nv : M.new_view) =
  let min_s = List.fold_left (fun acc (_, s) -> max acc s) 0 nv.nv_view_changes in
  nv.nv_view > 0
  && List.for_all (fun (_, s) -> s >= 0) nv.nv_view_changes
  && List.for_all
       (fun (pp : M.pre_prepare) ->
         pp.view = nv.nv_view
         && pp.seq > min_s
         && pp.seq <= min_s + t.config.log_window)
       nv.nv_pre_prepares

let handle_new_view t sender (nv : M.new_view) =
  let v' = nv.nv_view in
  if sender = primary_of t v' && v' >= t.view && sender <> t.id then begin
    (* Recompute O from the view-change messages the primary claims to have
       used; if we hold them all, the result must match exactly. *)
    let tbl = vc_table t v' in
    let vcs_used =
      List.filter_map (fun (r, _) -> Hashtbl.find_opt tbl r) nv.nv_view_changes
    in
    let verifiable = List.length vcs_used = List.length nv.nv_view_changes in
    let sane = nv_sane t nv in
    if not sane then reject_insane t;
    let ok =
      if not sane then false
      else if not verifiable then List.length nv.nv_view_changes >= Types.quorum t.config
      else begin
        let min_s, o = compute_o ~log_window:t.config.log_window v' vcs_used in
        ignore min_s;
        List.length o = List.length nv.nv_pre_prepares
        && List.for_all2
             (fun (a : M.pre_prepare) (b : M.pre_prepare) ->
               a.seq = b.seq && Digest.equal a.digest b.digest)
             o nv.nv_pre_prepares
      end
    in
    if ok then begin
      let min_s =
        List.fold_left (fun acc (_, s) -> max acc s) 0 nv.nv_view_changes
      in
      install_new_view t v' min_s nv.nv_pre_prepares
    end
    else do_view_change t (v' + 1)
  end

(* --- retransmission / progress timer ------------------------------------ *)

let arm_status_timer t =
  (match t.status_timer with Some id -> t.net.cancel_timer id | None -> ());
  t.status_timer <-
    Some (t.net.set_timer ~after_us:(t.config.viewchange_timeout_us / 2) ~tag:"status" ~payload:0)

let on_status_timer t =
  (* Re-announce the latest own checkpoint so laggards find fetch targets,
     and gossip progress so peers can retransmit what we are missing. *)
  (match Hashtbl.find_opt t.own_cps t.h with
  | Some d when t.h > 0 ->
    broadcast_group t (M.Checkpoint { seq = t.h; digest = d; replica = t.id })
  | Some _ | None -> ());
  broadcast t
    (M.Status { st_view = t.view; st_last_exec = t.last_exec; st_h = t.h; st_replica = t.id });
  let stalled = t.last_exec = t.last_progress_exec in
  if stalled && t.status = Normal then begin
    (* Retransmit protocol messages for in-flight slots, in seqno order. *)
    List.iter
      (fun (seq, entry) ->
        if seq > t.last_exec then begin
          match entry.pre_prepare with
          | Some pp when pp.view = t.view ->
            if is_primary t then send_pre_prepare t entry pp Resend_status
            else if Option.is_some entry.prepares.(t.id) then
              broadcast t
                (M.Prepare { view = pp.view; seq; digest = pp.digest; replica = t.id });
            if entry.sent_commit then
              broadcast t
                (M.Commit { view = pp.view; seq; digest = pp.digest; replica = t.id })
          | Some _ | None -> ()
        end)
      (sorted_bindings t.entries);
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
    discard_log_below t seq
  end

(* A peer announced it is behind us: retransmit, directly to it, the
   protocol messages it needs to make progress — our pre-prepares if we led
   their view of those slots, plus our prepares, commits and checkpoint.
   This is PBFT's status/retransmission mechanism, which gives liveness when
   a replica missed messages while rebooting. *)
let handle_status t sender (st : M.status_msg) =
  if sender = st.st_replica then Hashtbl.replace t.peer_views sender st.st_view;
  (* View abandonment: a replica that escalated views alone (e.g. around a
     proactive recovery) can never gather 2f+1 VIEW-CHANGEs — had f+1 peers
     been with it, the group would have joined.  When a quorum of peers
     reports lower views and we hold no prepared certificate above them,
     rejoin the group's view; nothing could have committed in ours. *)
  if sender = st.st_replica && t.status = View_changing && st.st_view < t.view then begin
    let lower, target =
      List.fold_left
        (fun (count, best) (_, v) ->
          if v < t.view then (count + 1, max best v) else (count, best))
        (0, 0) (sorted_bindings t.peer_views)
    in
    let prepared_above =
      List.exists
        (fun (_, e) ->
          match e.prepared_proof with Some p -> p.M.pp_view > target | None -> false)
        (sorted_bindings t.entries)
    in
    if lower >= Types.quorum t.config - 1 && not prepared_above then begin
      t.view <- target;
      t.status <- Normal;
      t.obs.vc_started <- -1L;
      t.vc_timeout_us <- t.config.viewchange_timeout_us;
      cancel_vc_timer t;
      if has_pending t then start_vc_timer t
    end
  end;
  (* A peer stuck in an older view missed the view change while it was down
     (proactive recovery, crash): a replica rejoining the group this way has
     no other path back, because clients have moved on to the new primary and
     only pending client requests escalate views locally.  The primary that
     installed the current view retransmits its NEW-VIEW, which the laggard
     verifies and installs through the normal quorum-trusting path. *)
  if sender = st.st_replica && st.st_view < t.view then begin
    match t.last_nv with
    | Some nv when nv.M.nv_view = t.view && primary_of t t.view = t.id ->
      send_one t ~dst:sender (M.New_view nv)
    | Some _ | None -> ()
  end;
  if sender = st.st_replica && st.st_view <= t.view then begin
    (* Checkpoint proof so it can garbage-collect / find fetch targets. *)
    (match Hashtbl.find_opt t.own_cps t.h with
    | Some d when t.h > st.st_h -> send_one t ~dst:sender (M.Checkpoint { seq = t.h; digest = d; replica = t.id })
    | Some _ | None -> ());
    if st.st_view = t.view && st.st_last_exec < t.last_exec then begin
      let upper = min t.last_exec (st.st_h + t.config.log_window) in
      (* A Byzantine STATUS can claim an arbitrarily low [st_last_exec];
         iterating from it would replay (and allocate protocol messages
         for) an attacker-chosen number of slots.  An honest laggard's gap
         within [upper] never exceeds the log window, so cap the replay
         count there and serve the top of the range. *)
      let count = min (upper - st.st_last_exec) t.config.log_window in
      let unreplayable = ref false in
      for off = 1 to count do
        let seq = upper - count + off in
        (match Hashtbl.find_opt t.entries seq with
        | Some ({ pre_prepare = Some pp; _ } as entry) when pp.view = t.view ->
          if primary_of t pp.view = t.id then
            send_pre_prepare ~dst:sender t entry pp Resend_status
          else if Option.is_some entry.prepares.(t.id) then
            send_one t ~dst:sender
              (M.Prepare { view = pp.view; seq; digest = pp.digest; replica = t.id });
          if entry.sent_commit then
            send_one t ~dst:sender
              (M.Commit { view = pp.view; seq; digest = pp.digest; replica = t.id })
        | Some { pre_prepare = Some pp; committed = true; _ } when pp.view < t.view ->
          (* Committed under an earlier primary: the agreement messages are
             void in this view and will never be re-run. *)
          unreplayable := true
        | Some _ -> ()
        | None -> unreplayable := true)
      done;
      (* The laggard cannot be fed messages for part of its gap; give it a
         state-transfer target instead by checkpointing our current state
         off-schedule (every up-to-date replica does the same on seeing the
         laggard's STATUS, so the checkpoint gets certified). *)
      if !unreplayable && not (Hashtbl.mem t.own_cps t.last_exec) then take_checkpoint t
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
      entries = Hashtbl.create 64;
      clients = Hashtbl.create 16;
      n_pending = 0;
      cp_msgs = Hashtbl.create 16;
      own_cps = Hashtbl.create 16;
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
      peer_views = Hashtbl.create 8;
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
  Hashtbl.replace t.own_cps 0 d;
  t.stable_digest <- d;
  t

let id t = t.id

let shard t = t.shard

let role t = t.role

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

let behavior t = t.behavior
