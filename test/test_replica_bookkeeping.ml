(* The replica's per-message bookkeeping: the live count of clients with a
   pending request, observed through the view-change timer it drives, and
   the gate that keeps that bookkeeping independent of the client
   population. *)

module M = Base_bft.Message
module Replica = Base_bft.Replica
module L = Lone_replica

let executed = Alcotest.(list (pair int int64))

(* A backup relays a client's request to the primary and arms its progress
   timer; executing the request leaves nothing pending, so the timer is
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

let suite =
  [
    Alcotest.test_case "relayed request arms, execution disarms" `Quick
      test_relay_arms_execute_disarms;
    Alcotest.test_case "superseding pre-prepare counts once" `Quick test_superseding_pre_prepare;
    Alcotest.test_case "state transfer resets the pending count" `Quick
      test_fetch_resets_pending;
    Alcotest.test_case "bft.handle bytes independent of client count" `Quick
      test_handle_alloc_independent_of_clients;
  ]
