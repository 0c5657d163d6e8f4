(* Engine event-queue determinism: the flat array-backed [Event_heap] must
   dequeue {e identically} to the generic [Heap] it replaced
   (comparator on time, insertion-order tie-break) on fuzzed schedules —
   heavy ties, interleaved pushes, pops and filters, bursts — and the
   engine built on it must keep timer semantics exact: FIFO among equal
   deadlines, cancelled timers never fire (nor stay queued in bulk),
   timers for down nodes are dropped.  Every blessed experiment seed rides
   on this equivalence. *)

module Event_heap = Base_sim.Event_heap
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time
module Prng = Base_util.Prng

(* Mirror of the pre-overhaul event queue: a generic heap of (time, id)
   ordered by time, relying on insertion order to break ties — verbatim the
   engine's old configuration. *)
let old_heap () = Heap.create ~cmp:(fun (t1, _) (t2, _) -> compare (t1 : int64) t2)

(* The oracle's [filter]: drain in pop order and re-push the survivors,
   which keeps ties in insertion order. *)
let oracle_filter q keep =
  let rec drain acc = match Heap.pop q with Some x -> drain (x :: acc) | None -> List.rev acc in
  List.iter (fun ((_, id) as x) -> if keep id then Heap.push q x) (drain [])

let test_differential_fuzz () =
  let rng = Prng.create 0xCAFEL in
  for round = 1 to 50 do
    let new_q = Event_heap.create () in
    let old_q = old_heap () in
    let id = ref 0 in
    (* A clustered time range forces many exact ties; interleaved pops
       exercise sift-down on partially drained heaps, and an occasional
       [filter] drops a pseudo-random subset and re-heapifies. *)
    let n_ops = 200 + Prng.int rng 400 in
    for _ = 1 to n_ops do
      let op = Prng.int rng 20 in
      if op = 0 then begin
        let m = 2 + Prng.int rng 3 and r = Prng.int rng 2 in
        let keep id = id mod m <> r in
        Event_heap.filter new_q keep;
        oracle_filter old_q keep;
        Alcotest.(check int)
          (Printf.sprintf "round %d: length after filter" round)
          (Heap.length old_q) (Event_heap.length new_q)
      end
      else if op < 15 || Event_heap.is_empty new_q then begin
        let time = Int64.of_int (Prng.int rng 16) in
        incr id;
        Event_heap.push new_q ~time !id;
        Heap.push old_q (time, !id)
      end
      else begin
        let got = Event_heap.pop_exn new_q in
        let got_time = Event_heap.last_time new_q in
        match Heap.pop old_q with
        | None -> Alcotest.failf "round %d: old heap empty, new was not" round
        | Some (want_time, want) ->
          if got <> want || got_time <> want_time then
            Alcotest.failf "round %d: popped (%Ld,%d), old heap says (%Ld,%d)" round
              got_time got want_time want
      end
    done;
    (* Drain both: the tails must agree element by element too. *)
    while not (Event_heap.is_empty new_q) do
      let got = Event_heap.pop_exn new_q in
      match Heap.pop old_q with
      | None -> Alcotest.failf "round %d: drain length mismatch" round
      | Some (_, want) ->
        if got <> want then
          Alcotest.failf "round %d: drain popped %d, old heap says %d" round got want
    done;
    Alcotest.(check bool)
      (Printf.sprintf "round %d: old heap drained too" round)
      true (Heap.is_empty old_q)
  done

let test_min_time_and_length () =
  let q = Event_heap.create () in
  Alcotest.(check (option int64)) "empty min_time" None (Event_heap.min_time q);
  Event_heap.push q ~time:5L "b";
  Event_heap.push q ~time:3L "a";
  Event_heap.push q ~time:5L "c";
  Alcotest.(check (option int64)) "min_time peeks" (Some 3L) (Event_heap.min_time q);
  Alcotest.(check int) "length" 3 (Event_heap.length q);
  Alcotest.(check string) "earliest first" "a" (Event_heap.pop_exn q);
  Alcotest.(check string) "FIFO among ties" "b" (Event_heap.pop_exn q);
  Alcotest.(check string) "FIFO among ties (2)" "c" (Event_heap.pop_exn q);
  Alcotest.(check bool) "drained" true (Event_heap.is_empty q)

let test_rejects_out_of_range_times () =
  let q = Event_heap.create () in
  List.iter
    (fun t ->
      match Event_heap.push q ~time:t () with
      | () -> Alcotest.failf "time %Ld accepted" t
      | exception Base_util.Invariant.Violation _ -> ())
    [ -1L; Int64.min_int; Int64.max_int ]

(* Engine-level schedule fuzz: fuzzed timer schedules with exact-tie
   deadlines, cancellations and timers armed on nodes that then go down.
   Two engines given the identical schedule must dispatch the identical
   event sequence; cancelled and orphaned timers must not appear. *)
let test_engine_timer_schedules () =
  let rng = Prng.create 0xD1CEL in
  for round = 1 to 20 do
    let n_timers = 30 + Prng.int rng 50 in
    (* Pre-draw the schedule so both engines see the same one. *)
    let schedule =
      Array.init n_timers (fun i ->
          let node = Prng.int rng 3 in
          let after = Int64.of_int (10 * (1 + Prng.int rng 8)) in
          let cancelled = Prng.int rng 5 = 0 in
          (i, node, after, cancelled))
    in
    let down_node = Prng.int rng 3 in
    let run () =
      let config =
        Engine.default_config ~size_of:(fun () -> 0) ~label_of:(fun () -> "NONE")
      in
      let engine = Engine.create config in
      let fired = ref [] in
      for node = 0 to 2 do
        Engine.add_node engine ~id:node (fun _ event ->
            match event with
            | Engine.Timer { tag = _; payload } -> fired := (node, payload) :: !fired
            | Engine.Deliver _ -> ())
      done;
      let cancels =
        Array.to_list schedule
        |> List.filter_map (fun (i, node, after, cancelled) ->
               let tid =
                 Engine.set_timer engine ~node ~after ~tag:"t" ~payload:i
               in
               if cancelled then Some tid else None)
      in
      List.iter (Engine.cancel_timer engine) cancels;
      Engine.set_node_up engine down_node false;
      Engine.run engine;
      List.rev !fired
    in
    let a = run () and b = run () in
    if a <> b then Alcotest.failf "round %d: identical schedules diverged" round;
    (* Semantic checks on one of the (identical) runs. *)
    List.iter
      (fun (node, payload) ->
        let _, snode, _, cancelled = schedule.(payload) in
        if cancelled then Alcotest.failf "round %d: cancelled timer %d fired" round payload;
        if node <> snode then Alcotest.failf "round %d: timer %d fired on wrong node" round payload;
        if node = down_node then
          Alcotest.failf "round %d: timer %d fired on down node %d" round payload node)
      a;
    (* Equal deadlines dispatch in arming order per the (time, seq) key:
       the fired sequence must be sorted by (deadline, arming index). *)
    let key (_, payload) =
      let _, _, after, _ = schedule.(payload) in
      (after, payload)
    in
    let rec sorted = function
      | x :: y :: rest ->
        if key x > key y then
          Alcotest.failf "round %d: dispatch order violates (deadline, seq)" round
        else sorted (y :: rest)
      | _ -> ()
    in
    sorted a
  done

(* Mass cancellation purges the queue: cancelling most of 1 000 armed
   timers drops them from the queue long before their deadlines, the live
   ones fire in (deadline, arming) order, and no cancelled one fires. *)
let test_engine_purges_cancelled_timers () =
  let rng = Prng.create 0x9F3EL in
  let config = Engine.default_config ~size_of:(fun () -> 0) ~label_of:(fun () -> "NONE") in
  let engine = Engine.create config in
  let fired = ref [] in
  Engine.add_node engine ~id:0 (fun _ event ->
      match event with
      | Engine.Timer { tag = _; payload } -> fired := payload :: !fired
      | Engine.Deliver _ -> ());
  let n = 1_000 in
  let deadline = Array.init n (fun _ -> Int64.of_int (10 * (1 + Prng.int rng 50))) in
  let ids =
    Array.init n (fun i ->
        Engine.set_timer engine ~node:0 ~after:deadline.(i) ~tag:"t" ~payload:i)
  in
  let live i = i mod 10 = 0 in
  Array.iteri (fun i id -> if not (live i) then Engine.cancel_timer engine id) ids;
  let n_live = n / 10 in
  let depth = Engine.queue_depth engine in
  if depth - n_live > max 63 n_live then
    Alcotest.failf "%d cancelled timers still queued beside %d live ones" (depth - n_live) n_live;
  Engine.run engine;
  let expected =
    List.init n Fun.id |> List.filter live
    |> List.stable_sort (fun a b -> Int64.compare deadline.(a) deadline.(b))
  in
  Alcotest.(check (list int)) "live timers fire in (deadline, seq) order" expected
    (List.rev !fired)

let suite =
  [
    Alcotest.test_case "differential fuzz vs generic heap" `Quick test_differential_fuzz;
    Alcotest.test_case "min_time / tie FIFO basics" `Quick test_min_time_and_length;
    Alcotest.test_case "out-of-range times rejected" `Quick
      test_rejects_out_of_range_times;
    Alcotest.test_case "engine timer schedules: deterministic, cancels honoured" `Quick
      test_engine_timer_schedules;
    Alcotest.test_case "engine purges mass-cancelled timers" `Quick
      test_engine_purges_cancelled_timers;
  ]
