(* Focused tests of the proactive-recovery and catch-up machinery: STATUS
   retransmission, rollback-and-replay repair, recovery under continuous
   load, and key refresh. *)

open Helpers
module Runtime = Base_core.Runtime
module Objrepo = Base_core.Objrepo
module Replica = Base_bft.Replica
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time

let settle sys seconds =
  Engine.run ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_sec seconds))
    (Runtime.engine sys)

let drive_load sys ~ops ~gap_ms =
  for i = 0 to ops - 1 do
    ignore (set sys ~client:0 (i mod 8) (Printf.sprintf "load%d" i));
    Engine.advance_to (Runtime.engine sys)
      (Sim_time.add (Runtime.now sys) (Sim_time.of_ms gap_ms))
  done

let roots sys =
  Array.map (fun node -> Objrepo.current_root node.Runtime.repo) (Runtime.replicas sys)

let converged sys =
  let rs = roots sys in
  Array.for_all (fun r -> Base_crypto.Digest_t.equal r rs.(0)) rs

let test_status_refills_briefly_down_replica () =
  (* A replica that misses a handful of messages (no checkpoint boundary
     crossed) is refilled by STATUS retransmission, without state
     transfer. *)
  let sys, kvs = make_system ~seed:41L ~checkpoint_period:64 () in
  ignore (set sys ~client:0 0 "pre");
  Engine.set_node_up (Runtime.engine sys) 2 false;
  for i = 0 to 4 do
    ignore (set sys ~client:0 1 (Printf.sprintf "gap%d" i))
  done;
  Engine.set_node_up (Runtime.engine sys) 2 true;
  settle sys 2.0;
  let node2 = Runtime.replica sys 2 in
  Alcotest.(check int) "no state transfer needed" 0
    (Replica.stats node2.Runtime.replica).Replica.fetches;
  Alcotest.(check string) "caught up via retransmission" "gap4" kvs.(2).slots.(1)

let test_recovery_under_continuous_load () =
  let sys, _ = make_system ~seed:42L ~checkpoint_period:8 () in
  Runtime.enable_proactive_recovery ~reboot_us:80_000 ~period_us:1_200_000 sys;
  drive_load sys ~ops:60 ~gap_ms:150;
  Runtime.disable_proactive_recovery sys;
  settle sys 3.0;
  let total_recoveries =
    Array.fold_left
      (fun acc node -> acc + node.Runtime.recovery_stats.Runtime.recoveries)
      0 (Runtime.replicas sys)
  in
  Alcotest.(check bool)
    (Printf.sprintf "many recoveries happened (%d)" total_recoveries)
    true (total_recoveries >= 8);
  Alcotest.(check bool) "states converged" true (converged sys);
  (* And the service still works. *)
  Alcotest.(check string) "final op" "ok" (set sys ~client:0 0 "final")

let test_repair_of_corrupt_state () =
  (* Directly corrupt one replica's service state behind the wrapper's
     back; its digests still claim health (cached), but the recovery
     traversal recomputes them and state transfer repairs the damage. *)
  let sys, kvs = make_system ~seed:43L ~checkpoint_period:8 () in
  drive_load sys ~ops:20 ~gap_ms:50;
  kvs.(1).slots.(3) <- "CORRUPTED";
  (* The group is still fine (one faulty replica), reads are right. *)
  Alcotest.(check bool) "corruption invisible to clients" true
    (value_part (get sys ~client:0 3) <> "CORRUPTED");
  (* Keep load flowing and run replica 1 through recovery, then stop the
     watchdogs so the convergence check is not racing a fresh reboot. *)
  Runtime.enable_proactive_recovery ~reboot_us:50_000 ~period_us:800_000 sys;
  drive_load sys ~ops:30 ~gap_ms:120;
  Runtime.disable_proactive_recovery sys;
  drive_load sys ~ops:8 ~gap_ms:120;
  settle sys 3.0;
  Alcotest.(check bool) "corruption repaired" true (kvs.(1).slots.(3) <> "CORRUPTED");
  Alcotest.(check bool) "states converged" true (converged sys)

let test_recovery_refreshes_keys () =
  (* After recovery the replica has fresh MAC keys and still interoperates:
     operations keep completing after every replica recovered. *)
  let sys, _ = make_system ~seed:44L ~checkpoint_period:8 () in
  Runtime.enable_proactive_recovery ~reboot_us:50_000 ~period_us:600_000 sys;
  drive_load sys ~ops:25 ~gap_ms:120;
  Runtime.disable_proactive_recovery sys;
  Array.iter
    (fun node ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d recovered" node.Runtime.rid)
        true
        (node.Runtime.recovery_stats.Runtime.recoveries >= 1))
    (Runtime.replicas sys);
  Alcotest.(check string) "system alive with refreshed keys" "ok" (set sys ~client:0 5 "alive")

let test_rollback_replay_exact () =
  (* Force a rollback-and-replay: recover a replica right after it executed
     past the latest certified checkpoint; afterwards all replicas agree
     and the service state reflects every executed op exactly once. *)
  let sys, kvs = make_system ~seed:45L ~checkpoint_period:8 () in
  drive_load sys ~ops:12 ~gap_ms:20;
  Runtime.recover_now ~reboot_us:100_000 sys 2;
  settle sys 1.5;
  drive_load sys ~ops:4 ~gap_ms:20;
  settle sys 3.0;
  Alcotest.(check bool) "converged after rollback+replay" true (converged sys);
  (* Slot 7 was last written by op 7 of the first batch; the replay must
     reproduce it exactly once, not lose or duplicate it. *)
  Alcotest.(check string) "replayed value correct" "load7" kvs.(2).slots.(7);
  Alcotest.(check string) "post-recovery value correct" "load3" kvs.(2).slots.(3)

let test_staggering_limits_concurrent_recoveries () =
  let sys, _ = make_system ~seed:46L ~checkpoint_period:8 () in
  (* Watchdogs fire at period/4 offsets; with an 80 ms reboot and 1 s
     period, at most one replica is ever down. *)
  Runtime.enable_proactive_recovery ~reboot_us:80_000 ~period_us:1_000_000 sys;
  let max_down = ref 0 in
  for _ = 1 to 40 do
    Engine.advance_to (Runtime.engine sys)
      (Sim_time.add (Runtime.now sys) (Sim_time.of_ms 100));
    let down = ref 0 in
    for r = 0 to 3 do
      if not (Engine.node_is_up (Runtime.engine sys) r) then incr down
    done;
    max_down := max !max_down !down
  done;
  Alcotest.(check bool)
    (Printf.sprintf "at most 1 replica down at once (saw %d)" !max_down)
    true (!max_down <= 1)

(* The system-wide state-transfer totals are folded in call by call from
   every fetcher, the per-node recovery stats likewise; both must count the
   same objects and bytes, over in-place recovery and over migration (where
   standbys fetch too). *)
let test_st_totals_add_up () =
  let check ~what sys =
    let nodes = Array.append (Runtime.replicas sys) (Runtime.standbys sys) in
    let sum f = Array.fold_left (fun acc n -> acc + f n.Runtime.recovery_stats) 0 nodes in
    let tot = Runtime.st_totals sys in
    Alcotest.(check bool) (what ^ ": something was fetched") true
      (tot.Base_core.State_transfer.objects_fetched > 0);
    Alcotest.(check int) (what ^ ": objects") tot.Base_core.State_transfer.objects_fetched
      (sum (fun s -> s.Runtime.total_objects_fetched));
    Alcotest.(check int) (what ^ ": bytes") tot.Base_core.State_transfer.bytes_fetched
      (sum (fun s -> s.Runtime.total_bytes_fetched))
  in
  let sys, kvs = make_system ~seed:44L ~checkpoint_period:8 () in
  Runtime.enable_proactive_recovery ~reboot_us:80_000 ~period_us:1_200_000 sys;
  drive_load sys ~ops:10 ~gap_ms:50;
  (* Corrupt a replica so its recovery has objects to fetch. *)
  kvs.(1).slots.(2) <- "garbage";
  drive_load sys ~ops:30 ~gap_ms:100;
  Runtime.disable_proactive_recovery sys;
  settle sys 2.0;
  check ~what:"in place" sys;
  let sys, _ = make_system ~seed:45L ~checkpoint_period:8 ~standbys:1 () in
  Runtime.enable_proactive_recovery ~migrate:true ~reboot_us:200_000 ~period_us:1_000_000 sys;
  drive_load sys ~ops:40 ~gap_ms:120;
  Runtime.disable_proactive_recovery sys;
  settle sys 2.0;
  check ~what:"migration" sys

let suite =
  [
    Alcotest.test_case "status refills a briefly-down replica" `Quick
      test_status_refills_briefly_down_replica;
    Alcotest.test_case "recovery under continuous load" `Quick
      test_recovery_under_continuous_load;
    Alcotest.test_case "repair of corrupt state" `Quick test_repair_of_corrupt_state;
    Alcotest.test_case "recovery refreshes keys" `Quick test_recovery_refreshes_keys;
    Alcotest.test_case "rollback and replay exact" `Quick test_rollback_replay_exact;
    Alcotest.test_case "state-transfer totals add up" `Quick test_st_totals_add_up;
    Alcotest.test_case "staggering limits concurrent recoveries" `Quick
      test_staggering_limits_concurrent_recoveries;
  ]
