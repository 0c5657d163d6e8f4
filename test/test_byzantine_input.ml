(* Byzantine-input hardening: malformed wire bytes must never crash a
   replica.  They are counted ([stats.rejected_decode], the [bft.reject.*]
   metrics) and dropped, and the system keeps serving valid requests.  A
   client that withholds its request from the primary still gets it
   ordered. *)

module M = Base_bft.Message
module Replica = Base_bft.Replica
module Runtime = Base_core.Runtime
module Metrics = Base_obs.Metrics
module Digest = Base_crypto.Digest_t

let valid_prepare_bytes () =
  M.encode_body (M.Prepare { view = 0; seq = 1; digest = Digest.of_string "d"; replica = 1 })

let test_garbage_counted_and_dropped () =
  let sys, _ = Helpers.make_system () in
  let r0 = (Runtime.replica sys 0).replica in
  let valid = valid_prepare_bytes () in
  let garbage =
    [
      "";
      "\x00";
      "\x00\x00\x00\x63";  (* unknown tag *)
      String.make 40 '\xff';
      String.sub valid 0 (String.length valid - 2);  (* truncated real message *)
      valid ^ "\x00\x00\x00\x00";  (* trailing junk *)
    ]
  in
  List.iter (fun raw -> Replica.receive_wire r0 ~sender:1 ~macs:[||] raw) garbage;
  Alcotest.(check int) "every garbage message counted" (List.length garbage)
    (Replica.stats r0).rejected_decode;
  Alcotest.(check int) "metrics counter agrees" (List.length garbage)
    (Metrics.counter_value (Metrics.counter (Runtime.metrics sys) "bft.reject.decode"));
  (* The replica stays live: the system still executes client requests. *)
  Alcotest.(check string) "set still works" "ok" (Helpers.set sys ~client:0 0 "alive");
  Alcotest.(check string) "get sees the write" "alive"
    (Helpers.value_part (Helpers.get sys ~client:0 0))

let test_wellformed_body_bad_mac () =
  (* Well-formed bytes make it past the decoder and into the normal MAC
     check, where a forged authenticator is rejected and counted. *)
  let sys, _ = Helpers.make_system () in
  let r0 = (Runtime.replica sys 0).replica in
  Replica.receive_wire r0 ~sender:1 ~macs:(Array.make 8 "00000000") (valid_prepare_bytes ());
  Alcotest.(check int) "decode accepted" 0 (Replica.stats r0).rejected_decode;
  Alcotest.(check int) "MAC rejected and counted" 1 (Replica.stats r0).rejected_macs;
  Alcotest.(check int) "mac metrics counter agrees" 1
    (Metrics.counter_value (Metrics.counter (Runtime.metrics sys) "bft.reject.mac"))

(* Only active replicas vote.  A backup holding the primary's PRE-PREPARE
   receives PREPARE, COMMIT and CHECKPOINT votes that two clients sealed in
   their own names: every MAC is valid, but clients hold no vote, so
   nothing executes and each forged vote is counted as insane.  The honest
   backups' votes then complete the slot as usual. *)
let test_client_votes_rejected () =
  let module L = Lone_replica in
  let b = L.create ~id:1 in
  let pp = L.pre_prepare ~seq:1 [ L.request ~client:4 1L ] in
  L.deliver b ~sender:0 (M.Pre_prepare pp);
  List.iter
    (fun c ->
      L.deliver b ~sender:c (M.Prepare { view = 0; seq = 1; digest = pp.digest; replica = c });
      L.deliver b ~sender:c (M.Commit { view = 0; seq = 1; digest = pp.digest; replica = c });
      L.deliver b ~sender:c (M.Checkpoint { seq = 16; digest = pp.digest; replica = c }))
    [ 5; 6 ];
  Alcotest.(check int) "nothing executed" 0 (Replica.last_executed b.replica);
  Alcotest.(check int) "forged votes counted" 6 (Replica.stats b.replica).rejected_insane;
  Alcotest.(check int) "insane metric agrees" 6 (L.insane_count b);
  Alcotest.(check bool) "no fetch target from client checkpoints" true
    (Replica.fetch_target b.replica = None);
  L.order b pp;
  Alcotest.(check int) "replica votes still execute the slot" 1
    (Replica.last_executed b.replica)

(* Only active replicas take part in a view change or in STATUS gossip.
   Clients share MAC keys with every replica, so each message below
   authenticates, and each would move an honest replica if it counted:
   - two clients' VIEW-CHANGEs are f+1 votes, enough to pull an idle
     backup into view 1;
   - three clients' VIEW-CHANGEs, each carrying a prepared proof for a
     request nobody ordered, make a quorum with view 1's primary's own,
     and it would broadcast a NEW-VIEW re-proposing that request;
   - a client's STATUS claiming nothing executed would get the log
     replayed to it, a PREPARE and a COMMIT per executed slot.
   Each is rejected as insane instead, and replica VIEW-CHANGEs still
   install view 1. *)
let test_client_view_changes_rejected () =
  let module L = Lone_replica in
  let view_change ?(prepared = []) sender =
    M.View_change
      { new_view = 1; last_stable = 0; stable_digest = L.app_digest; prepared; replica = sender }
  in
  let new_views (l : L.t) =
    List.filter (fun (_, (env : M.envelope)) -> String.equal (M.kind_label env.body) "NEW-VIEW") !(l.sent)
  in
  let idle = L.create ~id:2 in
  List.iter (fun c -> L.deliver idle ~sender:c (view_change c)) [ 4; 5 ];
  Alcotest.(check int) "idle backup stays in view 0" 0 (Replica.view idle.replica);
  Alcotest.(check bool) "and keeps working" true (Replica.status idle.replica = Replica.Normal);
  Alcotest.(check int) "client VIEW-CHANGEs counted" 2 (L.insane_count idle);
  let p = L.create ~id:1 in
  let forged = L.request ~client:6 1L in
  let proof =
    {
      M.pp_view = 0;
      pp_seq = 1;
      pp_digest = (L.pre_prepare ~seq:1 [ forged ]).digest;
      pp_requests = [ forged ];
      pp_nondet = "";
    }
  in
  List.iter (fun c -> L.deliver p ~sender:c (view_change ~prepared:[ proof ] c)) [ 4; 5; 6 ];
  Alcotest.(check int) "view 1's primary stays in view 0" 0 (Replica.view p.replica);
  Alcotest.(check int) "no NEW-VIEW sent" 0 (List.length (new_views p));
  Alcotest.(check int) "forged VIEW-CHANGEs counted" 3 (Replica.stats p.replica).rejected_insane;
  List.iter (fun r -> L.deliver p ~sender:r (view_change r)) [ 2; 3 ];
  Alcotest.(check int) "replica VIEW-CHANGEs install view 1" 1 (Replica.view p.replica);
  Alcotest.(check bool) "back to normal" true (Replica.status p.replica = Replica.Normal);
  (match new_views p with
  | [ (_, { M.body = M.New_view nv; _ }); _; _ ] ->
    Alcotest.(check bool) "O holds no client-made request" true
      (List.for_all (fun (pp : M.pre_prepare) -> pp.requests = []) nv.nv_pre_prepares)
  | _ -> Alcotest.fail "expected one NEW-VIEW broadcast to three replicas");
  let b = L.create ~id:1 in
  for seq = 1 to 20 do
    L.order b (L.pre_prepare ~seq [ L.request ~client:4 (Int64.of_int seq) ])
  done;
  Alcotest.(check int) "20 slots executed" 20 (Replica.last_executed b.replica);
  b.sent := [];
  L.deliver b ~sender:4 (M.Status { st_view = 0; st_last_exec = 0; st_h = 0; st_replica = 4 });
  Alcotest.(check int) "client STATUS gets nothing back" 0 (List.length !(b.sent));
  Alcotest.(check int) "client STATUS counted" 1 (L.insane_count b)

(* A client sends its request to the backups alone: every copy it sends
   the primary is lost.  A backup's status tick relays the request before
   its progress timer fires, so the honest primary orders it and no view
   change happens. *)
let test_request_to_backups_only () =
  let sys, _ = Helpers.make_system () in
  let client = Base_bft.Types.group_size (Runtime.config sys) in
  (match Base_sim.Faultplan.parse (Printf.sprintf "at 0us drop %d->0 p=1 for 10s" client) with
  | Ok plan -> Runtime.apply_faultplan sys plan
  | Error e -> Alcotest.fail e);
  (* The plan's events fire on the virtual clock: let the drop start. *)
  let engine = Runtime.engine sys in
  Base_sim.Engine.run
    ~until:(Base_sim.Sim_time.add (Runtime.now sys) (Base_sim.Sim_time.of_sec 0.001))
    engine;
  let lost_before = (Base_sim.Engine.node_counters engine client).dropped_msgs in
  Alcotest.(check string) "the request executes" "ok" (Helpers.set sys ~client:0 0 "relayed");
  Alcotest.(check bool) "the primary's copy was lost" true
    ((Base_sim.Engine.node_counters engine client).dropped_msgs > lost_before);
  Array.iter
    (fun (node : Runtime.replica_node) ->
      Alcotest.(check int) "still in view 0" 0 (Replica.view node.replica);
      Alcotest.(check int) "no view change" 0 (Replica.stats node.replica).view_changes)
    (Runtime.replicas sys)

let suite =
  [
    Alcotest.test_case "garbage bytes: counted, replica live" `Quick
      test_garbage_counted_and_dropped;
    Alcotest.test_case "well-formed body, bad MAC" `Quick test_wellformed_body_bad_mac;
    Alcotest.test_case "client-sealed votes rejected" `Quick test_client_votes_rejected;
    Alcotest.test_case "client-sealed view changes and status rejected" `Quick
      test_client_view_changes_rejected;
    Alcotest.test_case "request sent to the backups only executes" `Quick
      test_request_to_backups_only;
  ]
