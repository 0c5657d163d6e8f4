(* The replica's per-message bookkeeping: the live count of clients with a
   pending request, observed through the view-change timer it drives, the
   gate that keeps that bookkeeping independent of the client population,
   the primary's sealed PRE-PREPARE that every retransmission reuses, the
   relay of waiting requests on a backup's status tick, the batch that
   holds each request once, and the bounded table of CHECKPOINT votes. *)

module M = Base_bft.Message
module Replica = Base_bft.Replica
module Types = Base_bft.Types
module Auth = Base_crypto.Auth
module Digest = Base_crypto.Digest_t
module L = Lone_replica

let executed = Alcotest.(list (pair int int64))

(* A backup marks a client's request pending and arms its progress timer;
   executing the request leaves nothing pending, so the timer is
   disarmed. *)
let test_relay_arms_execute_disarms () =
  let b = L.create ~id:1 in
  Alcotest.(check bool) "idle backup: timer off" false (L.vc_armed b);
  let r = L.request ~client:4 1L in
  L.deliver b ~sender:4 (M.Request r);
  Alcotest.(check bool) "relayed request arms the timer" true (L.vc_armed b);
  L.order b (L.pre_prepare ~seq:1 [ r ]);
  Alcotest.check executed "request executed" [ (4, 1L) ] !(b.executed);
  Alcotest.(check bool) "execution disarms the timer" false (L.vc_armed b)

(* A PRE-PREPARE carrying a newer request of a client replaces that client's
   older pending request: the client still counts once, so executing the
   newer request clears it, while another client's request keeps the timer
   armed until it executes too. *)
let test_superseding_pre_prepare () =
  let b = L.create ~id:1 in
  L.deliver b ~sender:4 (M.Request (L.request ~client:4 1L));
  L.deliver b ~sender:5 (M.Request (L.request ~client:5 1L));
  L.order b (L.pre_prepare ~seq:1 [ L.request ~client:4 2L ]);
  Alcotest.check executed "newer request executed" [ (4, 2L) ] !(b.executed);
  Alcotest.(check bool) "client 5 still pending" true (L.vc_armed b);
  L.order b (L.pre_prepare ~seq:2 [ L.request ~client:5 1L ]);
  Alcotest.(check bool) "no client pending" false (L.vc_armed b);
  Replica.on_timer b.replica ~tag:"vc" ~payload:0;
  Alcotest.(check int) "a stray timer starts no view change" 0
    (Replica.stats b.replica).view_changes

(* State transfer replaces the client table wholesale, pending requests
   included.  A backup whose only pending request the transferred table
   shows executed has nothing pending afterwards: re-arming after a reboot
   leaves the timer off, and a stray firing starts no view change. *)
let test_fetch_resets_pending () =
  let b = L.create ~id:1 in
  L.deliver b ~sender:4 (M.Request (L.request ~client:4 1L));
  Alcotest.(check bool) "pending request arms the timer" true (L.vc_armed b);
  let client_rows = [ (4, 1L, "ok") ] in
  let digest =
    Base_core.State_transfer.combined_digest ~app_root:L.app_digest ~client_rows
  in
  Replica.force_fetch b.replica ~seq:16 ~digest;
  Replica.fetch_complete b.replica ~seq:16 ~app_digest:L.app_digest ~client_rows;
  Alcotest.(check int) "cursor at the transferred checkpoint" 16
    (Replica.last_executed b.replica);
  Alcotest.(check bool) "back to normal operation" true
    (Replica.status b.replica = Replica.Normal);
  Replica.on_reboot b.replica;
  Alcotest.(check bool) "nothing pending after the reset" false (L.vc_armed b);
  Replica.on_timer b.replica ~tag:"vc" ~payload:0;
  Alcotest.(check int) "no spurious view change" 0 (Replica.stats b.replica).view_changes;
  Alcotest.(check int) "still in view 0" 0 (Replica.view b.replica)

(* Bytes the [bft.handle] probe allocated per completed request, under an
   open-loop write load spread round-robin over [n_clients] clients.  The
   probe's allocation counts are exact, so this is a pure function of the
   code path. *)
let handle_bytes_per_request ~n_clients =
  let profile = Base_obs.Profile.create () in
  Base_obs.Profile.enable profile;
  let sys =
    Base_workload.Systems.make_registers ~seed:5L ~n_clients ~n_objects:64
      ~checkpoint_period:128 ~profile ()
  in
  let load =
    Base_workload.Load.create ~seed:9L ~arrivals:Base_workload.Load.Fixed ~rate_per_s:2_000.0
      ~duration_us:1_000_000 sys.Base_workload.Systems.reg_runtime
  in
  (match Base_workload.Load.run load with Ok () -> () | Error e -> Alcotest.fail e);
  let completed = (Base_workload.Load.stats load).completed in
  let alloc =
    match Base_obs.Profile.to_json profile with
    | Base_obs.Json.Obj probes -> (
      match List.assoc_opt "bft.handle" probes with
      | Some (Base_obs.Json.Obj fields) -> (
        match List.assoc_opt "alloc_bytes" fields with
        | Some (Base_obs.Json.Int b) -> b
        | Some _ | None -> Alcotest.fail "bft.handle: no alloc_bytes")
      | Some _ | None -> Alcotest.fail "no bft.handle probe")
    | _ -> Alcotest.fail "profile export is not an object"
  in
  Alcotest.(check bool) "load completed" true (completed > 0);
  float_of_int alloc /. float_of_int completed

(* Per-message bookkeeping must not scan the client table: sixteen times the
   clients, same offered load, at most 10 % more [bft.handle] bytes per
   request.  What remains grows with the clients only once per checkpoint
   (the last-reply rows it digests) or once per client (its record). *)
let test_handle_alloc_independent_of_clients () =
  let small = handle_bytes_per_request ~n_clients:16 in
  let large = handle_bytes_per_request ~n_clients:256 in
  if large > 1.1 *. small then
    Alcotest.failf "bft.handle: %.0f B/request at 256 clients vs %.0f at 16" large small
  else Printf.printf "bft.handle: %.0f B/request at 256 clients, %.0f at 16\n" large small

(* A cross-shard lock request reaches a backup only inside a PRE-PREPARE,
   and executing it sends no reply and clears no pending mark.  So it must
   never be marked pending: after it executes nothing is pending, and a
   stale progress timer starts no view change on the idle shard. *)
let test_internal_request_not_pending () =
  let b = L.create ~id:1 in
  let lock =
    { M.client = Types.internal_client ~shard:0; timestamp = 1L; operation = "lock";
      read_only = false }
  in
  L.order b (L.pre_prepare ~seq:1 [ lock ]);
  Alcotest.check executed "internal request executed"
    [ (Types.internal_client ~shard:0, 1L) ] !(b.executed);
  Alcotest.(check bool) "nothing pending after it executes" false (L.vc_armed b);
  Replica.on_timer b.replica ~tag:"vc" ~payload:0;
  Alcotest.(check int) "a stale timer starts no view change" 0
    (Replica.stats b.replica).view_changes

(* The primary's first PRE-PREPARE broadcast for [r]'s slot. *)
let assign_at_primary p (r : M.request) =
  L.deliver p ~sender:r.client (M.Request r);
  match !(p.L.sent) with
  | (_, ({ M.body = M.Pre_prepare pp; _ } as env)) :: _ -> (pp, env)
  | _ -> Alcotest.fail "the primary sent no PRE-PREPARE"

let pre_prepares sent =
  List.filter_map
    (fun (dst, (env : M.envelope)) ->
      match env.body with M.Pre_prepare _ -> Some (dst, env) | _ -> None)
    sent

let resent_counter p cause =
  Base_obs.Metrics.counter_value
    (Base_obs.Metrics.counter p.L.metrics ("bft.pre_prepare.resent." ^ cause))

let prepare_from p (pp : M.pre_prepare) b =
  L.deliver p ~sender:b (M.Prepare { view = 0; seq = pp.seq; digest = pp.digest; replica = b })

(* A request arriving again for a slot the primary already assigned in
   this view (a backup's relay, a client's retransmission) gets the very
   envelope it sealed the first time, with no second seal, unicast to each
   backup whose PREPARE it lacks: here backup 1 alone, and nobody once
   backup 1 has prepared too. *)
let test_relay_resend_reuses_envelope () =
  let p = L.create ~id:0 in
  let r = L.request ~client:4 1L in
  let pp, first = assign_at_primary p r in
  List.iter (prepare_from p pp) [ 2; 3 ];
  let seals = L.seal_calls p in
  p.sent := [];
  L.deliver p ~sender:4 (M.Request r);
  let resent = pre_prepares !(p.sent) in
  Alcotest.(check (list int)) "unicast to the backup without a PREPARE" [ 1 ] (List.map fst resent);
  Alcotest.(check bool) "the same sealed envelope" true
    (List.for_all (fun (_, env) -> env == first) resent);
  Alcotest.(check int) "no new bft.seal call" seals (L.seal_calls p);
  Alcotest.(check int) "counted as a relay resend" 1 (Replica.stats p.replica).pp_resent_relay;
  Alcotest.(check int) "exported as a relay resend" 1 (resent_counter p "relay");
  prepare_from p pp 1;
  p.sent := [];
  L.deliver p ~sender:4 (M.Request r);
  Alcotest.(check int) "every backup prepared: nothing resent" 0
    (List.length (pre_prepares !(p.sent)))

let relayed_requests (l : L.t) =
  List.filter
    (fun (_, (env : M.envelope)) -> match env.body with M.Request _ -> true | _ -> false)
    !(l.sent)

(* The client multicasts its request, so a backup sends nothing when it
   arrives.  Each status tick relays the client's own envelope to the
   primary while the request waits for its pre-prepare, and no tick relays
   it once the pre-prepare is in. *)
let test_backup_relays_on_status_tick () =
  let b = L.create ~id:1 in
  let r = L.request ~client:4 1L in
  let env = L.envelope b ~sender:4 (M.Request r) in
  Replica.receive b.replica env;
  Alcotest.(check int) "nothing sent on receipt" 0 (List.length !(b.sent));
  Alcotest.(check bool) "progress timer armed" true (L.vc_armed b);
  for tick = 1 to 2 do
    b.sent := [];
    Replica.on_timer b.replica ~tag:"status" ~payload:0;
    match relayed_requests b with
    | [ (0, relayed) ] ->
      Alcotest.(check bool) (Printf.sprintf "tick %d relays the client's envelope" tick) true
        (relayed == env)
    | _ -> Alcotest.failf "tick %d: expected one REQUEST, to the primary" tick
  done;
  L.deliver b ~sender:0 (M.Pre_prepare (L.pre_prepare ~seq:1 [ r ]));
  b.sent := [];
  Replica.on_timer b.replica ~tag:"status" ~payload:0;
  Alcotest.(check int) "no relay once the pre-prepare is in" 0 (List.length (relayed_requests b))

(* With its window full, the primary queues a request that arrives three
   times: from the client, as the client's retransmission and as a backup's
   relay.  When a slot frees, the PRE-PREPARE it sends carries the request
   once. *)
let test_batch_holds_request_once () =
  let p = L.create ~id:0 in
  let inflight = L.config.Types.max_inflight in
  let first, _ = assign_at_primary p (L.request ~client:4 1L) in
  for ts = 2 to inflight do
    L.deliver p ~sender:4 (M.Request (L.request ~client:4 (Int64.of_int ts)))
  done;
  let r = L.request ~client:5 1L in
  let client_copy = L.envelope p ~sender:5 (M.Request r) in
  List.iter (Replica.receive p.replica)
    [ client_copy; L.envelope p ~sender:5 (M.Request r); client_copy ];
  let proposed_seqs () =
    List.filter_map
      (fun (_, (env : M.envelope)) ->
        match env.body with M.Pre_prepare pp -> Some pp.seq | _ -> None)
      !(p.sent)
  in
  Alcotest.(check int) "window full: the request waits" inflight
    (List.fold_left max 0 (proposed_seqs ()));
  List.iter (prepare_from p first) [ 1; 2 ];
  List.iter
    (fun b -> L.deliver p ~sender:b (M.Commit { view = 0; seq = 1; digest = first.digest; replica = b }))
    [ 1; 2 ];
  Alcotest.check executed "slot 1 executed" [ (4, 1L) ] !(p.executed);
  match
    List.filter_map
      (fun (_, (env : M.envelope)) ->
        match env.body with
        | M.Pre_prepare pp when pp.seq = inflight + 1 -> Some pp.requests
        | _ -> None)
      !(p.sent)
  with
  | batch :: _ ->
    Alcotest.(check (list (pair int int64))) "the request once" [ (5, 1L) ]
      (List.map (fun (q : M.request) -> (q.client, q.timestamp)) batch)
  | [] -> Alcotest.fail "no PRE-PREPARE for the freed slot"

(* One Byzantine replica names 4 000 distinct checkpoints far above the log
   window.  Above the window a backup keeps only each replica's highest
   vote, so its live state does not grow with them, and a laggard still
   finds its fetch target in f+1 honest votes. *)
let test_far_checkpoints_bounded () =
  let b = L.create ~id:1 in
  let flood first last =
    for k = first to last do
      let seq = 1_000 + (16 * k) in
      L.deliver b ~sender:2
        (M.Checkpoint { seq; digest = Digest.of_string (string_of_int seq); replica = 2 })
    done
  in
  flood 0 99;
  let words () = Obj.reachable_words (Obj.repr b.replica) in
  let before = words () in
  flood 100 3_999;
  let grown = words () - before in
  if grown > 1_000 then Alcotest.failf "3 900 more far votes grew the replica by %d words" grown;
  Alcotest.(check bool) "one replica certifies nothing" true (Replica.fetch_target b.replica = None);
  let honest = Digest.of_string "state at 64" in
  List.iter
    (fun r -> L.deliver b ~sender:r (M.Checkpoint { seq = 64; digest = honest; replica = r }))
    [ 0; 3 ];
  match Replica.fetch_target b.replica with
  | Some (64, d) when Digest.equal d honest -> ()
  | Some (seq, _) -> Alcotest.failf "fetch target %d, expected 64" seq
  | None -> Alcotest.fail "no fetch target from f+1 honest votes"

(* Proactive recovery re-keys a replica.  The envelope sealed before the
   refresh carries a MAC the refreshed backup rejects, so the resend must be
   sealed afresh, under the new keys. *)
let test_resend_reseals_after_key_refresh () =
  let p = L.create ~id:0 in
  let r = L.request ~client:4 1L in
  let _, first = assign_at_primary p r in
  Auth.refresh_keys p.chains 1;
  Alcotest.(check bool) "the old envelope fails at the refreshed backup" false
    (M.verify p.chains.(1) ~receiver:1 first);
  let seals = L.seal_calls p in
  p.sent := [];
  L.deliver p ~sender:4 (M.Request r);
  match List.assoc_opt 1 (pre_prepares !(p.sent)) with
  | None -> Alcotest.fail "no PRE-PREPARE resent to backup 1"
  | Some env ->
    Alcotest.(check bool) "verifies at the refreshed backup" true
      (M.verify p.chains.(1) ~receiver:1 env);
    Alcotest.(check int) "sealed once more" (seals + 1) (L.seal_calls p)

(* A STATUS from a backup behind the primary gets the PRE-PREPARE of each
   missing slot unicast back: the same envelope as the first broadcast. *)
let test_status_resend_reuses_envelope () =
  let p = L.create ~id:0 in
  let pp, first = assign_at_primary p (L.request ~client:4 1L) in
  List.iter
    (fun b ->
      L.deliver p ~sender:b (M.Prepare { view = 0; seq = 1; digest = pp.digest; replica = b }))
    [ 1; 2 ];
  List.iter
    (fun b ->
      L.deliver p ~sender:b (M.Commit { view = 0; seq = 1; digest = pp.digest; replica = b }))
    [ 1; 2 ];
  Alcotest.check executed "slot 1 executed" [ (4, 1L) ] !(p.executed);
  p.sent := [];
  L.deliver p ~sender:3 (M.Status { st_view = 0; st_last_exec = 0; st_h = 0; st_replica = 3 });
  (match pre_prepares !(p.sent) with
  | [ (3, env) ] -> Alcotest.(check bool) "the same sealed envelope" true (env == first)
  | _ -> Alcotest.fail "expected one PRE-PREPARE, to replica 3");
  Alcotest.(check int) "counted as a status resend" 1 (Replica.stats p.replica).pp_resent_status;
  Alcotest.(check int) "exported as a status resend" 1 (resent_counter p "status")

(* A backup retransmits its part of a slot two ways: its stalled status
   timer broadcasts it for the slots it has not executed, and a laggard's
   STATUS gets it unicast for the executed slots the laggard lacks.  Both
   send the same messages, our PREPARE and our COMMIT per slot and never a
   PRE-PREPARE (only the primary's is worth resending).  Here slots 2 and 3
   commit at backup 1 while slot 1 is missing, so the timer covers them;
   once slot 1 arrives all three execute, and replica 3's STATUS showing
   slot 1 executed asks for the same two. *)
let test_status_and_timer_resend_same_slots () =
  let b = L.create ~id:1 in
  let slot seq = L.pre_prepare ~seq [ L.request ~client:4 (Int64.of_int seq) ] in
  let resent ~dst =
    List.rev !(b.sent)
    |> List.filter_map (fun (d, (env : M.envelope)) ->
           match env.body with
           | M.Status _ -> None
           | M.Prepare p when d = dst -> Some ("PREPARE", p.seq, p.digest)
           | M.Commit c when d = dst -> Some ("COMMIT", c.seq, c.digest)
           | body when d = dst -> Some (M.kind_label body, -1, Base_crypto.Digest_t.zero)
           | _ -> None)
  in
  let votes =
    Alcotest.(list (triple string int (testable Base_crypto.Digest_t.pp Base_crypto.Digest_t.equal)))
  in
  L.order b (slot 2);
  L.order b (slot 3);
  Alcotest.(check int) "slot 1 missing: nothing executes" 0 (Replica.last_executed b.replica);
  b.sent := [];
  Replica.on_timer b.replica ~tag:"status" ~payload:0;
  let expected =
    List.concat_map
      (fun seq ->
        let d = (slot seq).digest in
        [ ("PREPARE", seq, d); ("COMMIT", seq, d) ])
      [ 2; 3 ]
  in
  List.iter
    (fun dst ->
      Alcotest.check votes (Printf.sprintf "timer resends to replica %d" dst) expected
        (resent ~dst))
    [ 0; 2; 3 ];
  L.order b (slot 1);
  Alcotest.(check int) "all three execute" 3 (Replica.last_executed b.replica);
  b.sent := [];
  L.deliver b ~sender:3 (M.Status { st_view = 0; st_last_exec = 1; st_h = 0; st_replica = 3 });
  Alcotest.check votes "STATUS answered with the same messages" expected (resent ~dst:3);
  Alcotest.(check int) "to the laggard only" (List.length expected) (List.length !(b.sent))

let suite =
  [
    Alcotest.test_case "relayed request arms, execution disarms" `Quick
      test_relay_arms_execute_disarms;
    Alcotest.test_case "superseding pre-prepare counts once" `Quick test_superseding_pre_prepare;
    Alcotest.test_case "state transfer resets the pending count" `Quick
      test_fetch_resets_pending;
    Alcotest.test_case "bft.handle bytes independent of client count" `Quick
      test_handle_alloc_independent_of_clients;
    Alcotest.test_case "internal request never pending" `Quick test_internal_request_not_pending;
    Alcotest.test_case "relay resend reuses the sealed pre-prepare" `Quick
      test_relay_resend_reuses_envelope;
    Alcotest.test_case "backup relays a waiting request on its status tick" `Quick
      test_backup_relays_on_status_tick;
    Alcotest.test_case "a batch holds each request once" `Quick test_batch_holds_request_once;
    Alcotest.test_case "far-off checkpoint votes stay bounded" `Quick
      test_far_checkpoints_bounded;
    Alcotest.test_case "resend reseals after a key refresh" `Quick
      test_resend_reseals_after_key_refresh;
    Alcotest.test_case "status resend reuses the sealed pre-prepare" `Quick
      test_status_resend_reuses_envelope;
    Alcotest.test_case "status reply and stalled timer resend the same slots" `Quick
      test_status_and_timer_resend_same_slots;
  ]
