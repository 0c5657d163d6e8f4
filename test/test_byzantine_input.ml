(* Byzantine-input hardening: malformed wire bytes must never crash a
   replica.  They are counted ([stats.rejected_decode], the [bft.reject.*]
   metrics) and dropped, and the system keeps serving valid requests. *)

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

let suite =
  [
    Alcotest.test_case "garbage bytes: counted, replica live" `Quick
      test_garbage_counted_and_dropped;
    Alcotest.test_case "well-formed body, bad MAC" `Quick test_wellformed_body_bad_mac;
    Alcotest.test_case "client-sealed votes rejected" `Quick test_client_votes_rejected;
  ]
