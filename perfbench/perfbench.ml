(* The repository benchmark: one seeded workload per invocation.

     perfbench.exe --workload kv-read-mostly --seed 3 --seconds 10 --trace 0

   With [--trace 0] it repeats fresh instances of the workload until
   [--seconds] of host time have passed, times set-up and the measured
   section of each, checks every instance's outputs and prints the
   end-to-end metrics.  With [--trace 1] it runs untraced instances for the
   baseline, then one traced instance whose spans, profile probes and
   library counters give the per-layer metrics.  Human-readable lines come
   first; the last line of standard output is one JSON object.  The exit
   code is 1 if any correctness check failed. *)

module W = Workloads
module Runtime = Base_core.Runtime
module Objrepo = Base_core.Objrepo
module Engine = Base_sim.Engine
module Types = Base_bft.Types
module Replica = Base_bft.Replica
module Client = Base_bft.Client
module St = Base_core.State_transfer
module Metrics = Base_obs.Metrics
module Profile = Base_obs.Profile

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  W.quantile a 0.5

(* Bytes allocated so far: minor-heap words, which [Gc.minor_words] counts
   exactly, plus words allocated directly in the major heap.  Unlike
   [Gc.allocated_bytes] it does not move with when minor collections
   happen, so it repeats exactly for a repeated code path. *)
let alloc_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* --- one instance ---------------------------------------------------------------- *)

type sample = {
  setups : float list;  (* reference seconds, see [Clock] *)
  run_s : float;
  raw_run_s : float;  (* plain host seconds *)
  alloc_b : float;
  out : W.outcome;
}

(* Host time in reference seconds.  The speed of a shared machine drifts by
   up to 2x within seconds, mostly through contention for caches and memory
   (a pure-arithmetic loop barely moves).  So timed work is cut into blocks
   of about 50 ms, each bracketed by a fixed computation of about 2 ms that
   touches no library code (hashing, hash-table churn).  A block's host time
   is scaled by (nominal / measured)^[sensitivity], the measured time being
   the computation's mean on either side of the block.  The workloads slow
   down more than the computation does: over about 200 instances of three
   workloads on a 2-core machine, log(raw req/s) against log(1 / kernel
   time) had slopes of 1.39, 1.41 and 1.46 (correlation 0.92 to 0.97), hence
   1.4. *)
module Clock = struct
  let block_s = 0.05

  let kernel_ref_s = 0.002

  let sensitivity = 1.4

  let kernel () =
    let t0 = now_s () in
    let h = Hashtbl.create 512 in
    let acc = ref "" in
    for i = 0 to 6_000 do
      acc := Digest.string (!acc ^ string_of_int i);
      Hashtbl.replace h (i land 511) !acc
    done;
    ignore (Sys.opaque_identity (Hashtbl.length h));
    now_s () -. t0

  type t = {
    mutable on : bool;
    mutable raw : float;
    mutable norm : float;
    mutable block_start : float;
    mutable last_k : float;
    mutable own_alloc : float;  (* bytes the clock itself allocated *)
  }

  (* Bytes a block closure allocates outside its own accounting window,
     calibrated once at start-up. *)
  let untracked = ref 0.0

  let c = { on = false; raw = 0.0; norm = 0.0; block_start = 0.0; last_k = 0.0; own_alloc = 0.0 }

  let close_block () =
    let a0 = alloc_bytes () in
    let raw = now_s () -. c.block_start in
    let k = kernel () in
    c.raw <- c.raw +. raw;
    c.norm <- c.norm +. (raw *. ((kernel_ref_s /. ((c.last_k +. k) /. 2.0)) ** sensitivity));
    c.last_k <- k;
    c.block_start <- now_s ();
    c.own_alloc <- c.own_alloc +. (alloc_bytes () -. a0) +. !untracked

  let tick () = if c.on && now_s () -. c.block_start >= block_s then close_block ()

  (* Time [f ()]: (reference seconds, raw seconds, result).  [c.own_alloc]
     then holds what the clock's own blocks allocated meanwhile. *)
  let time f =
    c.raw <- 0.0;
    c.norm <- 0.0;
    let a0 = alloc_bytes () in
    c.last_k <- kernel ();
    c.own_alloc <- alloc_bytes () -. a0;
    c.on <- true;
    c.block_start <- now_s ();
    let v = f () in
    close_block ();
    c.on <- false;
    (c.norm, c.raw, v)

  let () =
    W.between_events := tick;
    (* Two runs of different lengths, so the measuring brackets cancel. *)
    let gap n =
      let own0 = c.own_alloc and a0 = alloc_bytes () in
      for _ = 1 to n do
        close_block ()
      done;
      alloc_bytes () -. a0 -. (c.own_alloc -. own0)
    in
    let word = float_of_int (Sys.word_size / 8) in
    untracked := word *. Float.round ((gap 32 -. gap 16) /. 16.0 /. word)
end

let setup_reps = 3

(* [snap] reads the library's counters just before and just after the
   timed section. *)
let run_instance ?tracer ?profile (w : W.spec) ~seed ~snap =
  Gc.compact ();
  (* Set-up is short, so it is timed [setup_reps] times; the instance
     measured is the last one built. *)
  let reps = if tracer = None then setup_reps else 1 in
  let setups, inst =
    let rec build k acc =
      let t, _, inst = Clock.time (fun () -> w.W.prepare ~seed ~tracer ~profile) in
      if k = 1 then (List.rev (t :: acc), inst) else build (k - 1) (t :: acc)
    in
    build reps []
  in
  Option.iter Profile.reset profile;
  Option.iter Tracer.start tracer;
  let before = snap inst in
  let a0 = alloc_bytes () in
  let run_s, raw_run_s, () = Clock.time inst.W.run in
  let a1 = alloc_bytes () -. Clock.c.Clock.own_alloc in
  Option.iter Tracer.stop tracer;
  let after = snap inst in
  let out = inst.W.finish () in
  ({ setups; run_s; raw_run_s; alloc_b = a1 -. a0; out }, inst, (before, after))

(* The virtual-clock results of an instance: identical for every instance of
   one seed. *)
let virtual_key (o : W.outcome) =
  ( o.W.completed,
    W.grouped_quantile o.W.lat_us 0.5,
    W.grouped_quantile o.W.lat_us 0.99,
    o.W.good_per_s,
    o.W.unavail_us,
    o.W.extra )

(* --- library counters ------------------------------------------------------------- *)

let cells rt =
  let config = Runtime.config rt in
  List.concat_map
    (fun shard -> List.map (fun rid -> Runtime.shard_replica rt ~shard rid) (Types.replica_ids config))
    (List.init (Runtime.n_shards rt) Fun.id)

let kinds =
  [ "REQUEST"; "PRE-PREPARE"; "PREPARE"; "COMMIT"; "REPLY"; "CHECKPOINT"; "VIEW-CHANGE"; "NEW-VIEW" ]

(* Cumulative counters read from the library's own accounting. *)
let counters (sys : W.sys) =
  let rt = sys.W.rt in
  let sum f = List.fold_left (fun acc c -> acc +. float_of_int (f c)) 0.0 (cells rt) in
  let rstat f = sum (fun c -> f (Replica.stats c.Runtime.replica)) in
  let ostat f = sum (fun c -> f (Objrepo.stats c.Runtime.repo)) in
  let config = Runtime.config rt in
  let n_clients = config.Types.n_principals - Types.group_size config in
  let cstat f =
    let s = ref 0.0 in
    for i = 0 to n_clients - 1 do
      s := !s +. float_of_int (f (Client.stats (Runtime.client rt i)))
    done;
    !s
  in
  let tot = Engine.total_counters sys.W.engine in
  let labels = Engine.label_counters sys.W.engine in
  let sent k =
    List.fold_left
      (fun acc (l, (c : Engine.counters)) -> if l = k then acc +. float_of_int c.Engine.sent_msgs else acc)
      0.0 labels
  in
  let fetch =
    List.fold_left
      (fun acc (l, (c : Engine.counters)) ->
        if String.length l > 6 && String.sub l 0 6 = "FETCH-" then acc +. float_of_int c.Engine.sent_msgs
        else acc)
      0.0 labels
  in
  let st = Runtime.st_totals rt in
  [
    ("events", float_of_int sys.W.events);
    ("msgs", float_of_int tot.Engine.sent_msgs);
    ("bytes", float_of_int tot.Engine.sent_bytes);
    ("FETCH", fetch);
    ("executed", rstat (fun s -> s.Replica.executed));
    ("executed_requests", rstat (fun s -> s.Replica.executed_requests));
    ("checkpoints", rstat (fun s -> s.Replica.checkpoints_taken));
    ("view_changes", rstat (fun s -> s.Replica.view_changes));
    ( "rejected",
      rstat (fun s -> s.Replica.rejected_macs + s.Replica.rejected_decode + s.Replica.rejected_insane) );
    ("cow_copies", ostat (fun s -> s.Objrepo.objects_copied));
    ("digests", ostat (fun s -> s.Objrepo.digests_recomputed));
    ("retransmissions", cstat (fun s -> s.Client.retransmissions));
    ("ro_fallbacks", cstat (fun s -> s.Client.read_only_fallbacks));
    ("st.objects", float_of_int st.St.objects_fetched);
    ("st.bytes", float_of_int st.St.bytes_fetched);
    ("st.meta", float_of_int st.St.meta_fetched);
    ("st.cache_hits", float_of_int st.St.cache_hits);
    ("st.rejected", float_of_int (St.rejected st));
  ]
  @ List.map (fun k -> (k, sent k)) kinds

(* Requests executed per shard (the busiest replica cell of each). *)
let shard_imbalance rt =
  let config = Runtime.config rt in
  let per =
    List.init (Runtime.n_shards rt) (fun shard ->
        List.fold_left
          (fun m rid ->
            max m (Replica.stats (Runtime.shard_replica rt ~shard rid).Runtime.replica).Replica.executed_requests)
          0 (Types.replica_ids config))
  in
  let mean = float_of_int (List.fold_left ( + ) 0 per) /. float_of_int (List.length per) in
  if mean > 0.0 then float_of_int (List.fold_left max 0 per) /. mean else 1.0

let probes =
  [
    "bft.verify"; "bft.seal"; "bft.handle"; "bft.execute"; "client.verify"; "client.seal";
    "engine.send"; "engine.dispatch";
  ]

let profile_rows p =
  match Profile.to_json ~deterministic:false p with
  | Base_obs.Json.Obj rows ->
    List.filter_map
      (fun (name, v) ->
        match v with
        | Base_obs.Json.Obj f ->
          let num k =
            match List.assoc_opt k f with
            | Some (Base_obs.Json.Int n) -> float_of_int n
            | Some (Base_obs.Json.Float x) -> x
            | _ -> 0.0
          in
          Some (name, (num "calls", num "ns", num "alloc_bytes"))
        | _ -> None)
      rows
  | _ -> []

(* --- per-layer metrics ------------------------------------------------------------ *)

let layer_metrics ~(s : sample) ~(sys : W.sys) ~before ~after ~tracer ~profile ~untraced_run_s =
  let out = s.out in
  let rt = sys.W.rt in
  let d k = List.assoc k after -. List.assoc k before in
  let req = float_of_int (max 1 out.W.completed) in
  let per x = x /. req in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let tot = Tracer.totals tracer in
  let find name = List.assoc_opt name tot in
  let self name = match find name with Some x -> float_of_int x.Tracer.self_ns | None -> 0.0 in
  let calls name = match find name with Some x -> float_of_int x.Tracer.calls | None -> 0.0 in
  let prefixed p f =
    List.fold_left
      (fun acc (n, x) ->
        if String.length n > String.length p && String.sub n 0 (String.length p) = p then acc +. f x
        else acc)
      0.0 tot
  in
  let fs_self = prefixed "fs." (fun x -> float_of_int x.Tracer.self_ns) in
  let fs_calls = prefixed "fs." (fun x -> float_of_int x.Tracer.calls) in
  let all_self = List.fold_left (fun acc (_, x) -> acc +. float_of_int x.Tracer.self_ns) 0.0 tot in
  let root = float_of_int (Tracer.root_ns tracer) in
  let hist name q = Metrics.quantile (Metrics.histogram (Runtime.metrics rt) name) q in
  let episodes =
    List.filter (fun tl -> Runtime.timeline_window_us tl <> None) (Runtime.recovery_timelines rt)
  in
  let fetch_ms =
    List.filter_map
      (fun tl ->
        let open Runtime in
        if tl.tl_fetch_done_us >= 0L && tl.tl_reboot_done_us >= 0L then
          Some (Int64.to_float (Int64.sub tl.tl_fetch_done_us tl.tl_reboot_done_us) /. 1e3)
        else None)
      episodes
  in
  let layer = out.W.layer in
  let ro = List.assoc "client.ro_attempts" layer in
  let impls =
    List.sort_uniq compare
      (List.filter_map
         (fun (n, _) ->
           match String.split_on_char '.' n with "fs" :: impl :: _ -> Some impl | _ -> None)
         tot)
  in
  let prof = profile_rows profile in
  let n_replicas = float_of_int (List.length (Types.replica_ids (Runtime.config rt))) in
  [
    ("sim.self_ns_per_req", per (self "sim.step"));
    ("sim.events_per_req", per (d "events"));
    ("sim.queue_depth_max", float_of_int (Engine.max_queue_depth sys.W.engine));
    ("sim.msgs_per_req", per (d "msgs"));
    ("sim.bytes_per_req", per (d "bytes"));
  ]
  @ List.map (fun k -> ("sim.msgs_per_req." ^ k, per (d k))) (kinds @ [ "FETCH" ])
  @ List.concat_map
      (fun p ->
        let c, ns, a = Option.value (List.assoc_opt p prof) ~default:(0.0, 0.0, 0.0) in
        [
          ("prof." ^ p ^ ".ns_per_req.incl", per ns);
          ("prof." ^ p ^ ".calls_per_req", per c);
          ("prof." ^ p ^ ".alloc_b_per_req", per a);
        ])
      probes
  @ [
      ("bft.phase.pre_prepare_us.p50", hist "bft.phase.pre_prepare_us" 0.5);
      ("bft.phase.prepare_us.p50", hist "bft.phase.prepare_us" 0.5);
      ("bft.phase.commit_us.p50", hist "bft.phase.commit_us" 0.5);
      ("bft.phase.total_us.p50", hist "bft.phase.total_us" 0.5);
      ("bft.phase.total_us.p99", hist "bft.phase.total_us" 0.99);
      ("bft.batch_occupancy", ratio (d "executed_requests") (d "executed"));
      ("bft.checkpoints_per_kreq", 1000.0 *. per (d "checkpoints" /. n_replicas));
      ("bft.view_changes", d "view_changes");
      ("bft.rejected", d "rejected");
      ("client.retransmissions_per_req", per (d "retransmissions"));
      ("client.ro_fallback_ratio", ratio (d "ro_fallbacks") ro);
      ("client.invoke.self_ns_per_req", per (self "client.invoke"));
      ("service.execute.self_ns_per_req", per (self "service.execute"));
      ("service.modify.calls_per_req", per (calls "service.modify"));
      ("service.modify.self_ns_per_req", per (self "service.modify"));
      ("service.get_obj.calls_per_req", per (calls "service.get_obj"));
      ("service.get_obj.ns_per_req", per (self "service.get_obj"));
      ("service.get_obj.bytes_per_req", per (float_of_int (Tracer.counter tracer "service.get_obj.bytes")));
      ("service.put_objs.calls_per_req", per (calls "service.put_objs"));
      ("service.put_objs.objs_per_req", per (float_of_int (Tracer.counter tracer "service.put_objs.objs")));
      ("service.put_objs.ns_per_req", per (self "service.put_objs"));
      ( "service.other.self_ns_per_req",
        per
          (List.fold_left
             (fun acc n -> acc +. self n)
             0.0
             [ "service.restart"; "service.propose_nondet"; "service.check_nondet"; "service.oids_of_op" ]) );
      ("fs.calls_per_req", per fs_calls);
      ("fs.self_ns_per_req", per fs_self);
      ("fs.self_share", ratio fs_self root);
    ]
  @ List.map
      (fun impl -> (Printf.sprintf "fs.%s.ns_per_req" impl, per (prefixed ("fs." ^ impl ^ ".") (fun x -> float_of_int x.Tracer.self_ns))))
      impls
  @ [
      ("objrepo.cow_copies_per_checkpoint", ratio (d "cow_copies") (d "checkpoints"));
      ("objrepo.digests_per_checkpoint", ratio (d "digests") (d "checkpoints"));
      ("st.objects_fetched", d "st.objects");
      ("st.bytes_fetched", d "st.bytes");
      ("st.meta_fetched", d "st.meta");
      ("st.cache_hits", d "st.cache_hits");
      ("st.useful_ratio", ratio (d "st.objects") (d "st.objects" +. d "st.rejected"));
      ("recovery.episodes", float_of_int (List.length episodes));
      ("recovery.fetch_ms.p50", median fetch_ms);
      ("shard.imbalance", shard_imbalance rt);
    ]
  @ List.filter (fun (n, _) -> n <> "client.ro_attempts") layer
  @ [
      ("trace.spans", float_of_int (Tracer.spans tracer));
      ("trace.self_sum_ratio", ratio all_self root);
      ("trace.overhead_ratio", ratio s.run_s untraced_run_s);
    ]

(* --- output --------------------------------------------------------------------- *)

let units =
  [
    ("host_req_per_s", "req/s"); ("host_alloc_kb_per_req", "KiB/req"); ("peak_heap_mb", "MiB");
    ("setup_s", "s"); ("virt_p50_ms", "ms"); ("virt_p99_ms", "ms"); ("virt_goodput_per_s", "1/s");
    ("virt_unavail_ms", "ms"); ("failed_ratio", "ratio"); ("andrew_overhead_pct", "%");
    ("recovery_window_ms", "ms");
  ]

let unit_of name =
  match List.assoc_opt name units with
  | Some u -> u
  | None ->
    let ends s = Filename.check_suffix name s in
    if String.length name > 17 && String.sub name 0 17 = "sim.msgs_per_req." then "count/req"
    else if ends "_ns_per_req" || ends ".ns_per_req" || ends "ns_per_req.incl" then "ns/req"
    else if ends "_ms" || ends "_ms.p50" then "ms"
    else if String.length name > 10 && String.sub name 0 10 = "bft.phase." then "us"
    else if ends "bytes_per_req" || ends "alloc_b_per_req" then "B/req"
    else if ends "_ratio" || ends "_share" || ends "occupancy" || ends "imbalance" then "ratio"
    else if ends "bytes_fetched" then "B"
    else if ends "per_req" then "count/req"
    else if ends "per_kreq" then "count/kreq"
    else if ends "per_checkpoint" then "count/checkpoint"
    else "count"

let json_num x = if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) (unit_of name))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " fields)

let print_row name v n = Printf.printf "  %-44s %16.6g %-10s n=%d\n" name v (unit_of name) n

let report_failures (samples : sample list) =
  List.iteri
    (fun i s -> List.iter (fun f -> Printf.printf "  FAILED check (instance %d): %s\n" i f) s.out.W.failures)
    samples

(* --- the two modes -------------------------------------------------------------------- *)

let end_to_end (w : W.spec) ~seed ~seconds =
  let t_start = now_s () in
  let rec loop acc =
    let s, _, _ = run_instance w ~seed ~snap:ignore in
    let acc = s :: acc in
    if now_s () -. t_start < seconds then loop acc else List.rev acc
  in
  let samples = loop [] in
  let first = List.hd samples in
  let o = first.out in
  let key = virtual_key o in
  let drift = List.length (List.filter (fun s -> virtual_key s.out <> key) samples) in
  if drift > 0 then Printf.printf "  FAILED check: %d instance(s) of one seed diverged on the virtual clock\n" drift;
  report_failures samples;
  let n = List.length samples in
  let attempted = List.fold_left (fun a s -> a + s.out.W.attempted) 0 samples in
  let failed = drift + List.fold_left (fun a s -> a + s.out.W.failed) 0 samples in
  let med f = median (List.map f samples) in
  let word = float_of_int (Sys.word_size / 8) in
  let metrics =
    [
      ("host_req_per_s", med (fun s -> float_of_int s.out.W.completed /. s.run_s));
      ("host_alloc_kb_per_req", med (fun s -> s.alloc_b /. 1024.0 /. float_of_int (max 1 s.out.W.completed)));
      ("setup_s", median (List.concat_map (fun s -> s.setups) samples));
      ("virt_p50_ms", W.grouped_quantile o.W.lat_us 0.5 /. 1e3);
      ("virt_p99_ms", W.grouped_quantile o.W.lat_us 0.99 /. 1e3);
      ("virt_goodput_per_s", o.W.good_per_s);
    ]
  in
  let failed_ratio = float_of_int failed /. float_of_int (max 1 attempted) in
  let lat_n = Array.length o.W.lat_us in
  Printf.printf "workload %s  seed %Ld  instances %d  requests/instance %d  inputs %08x\n" w.W.name
    seed n o.W.completed o.W.inputs;
  Printf.printf "  per instance: raw req/s / req per reference s:%s\n"
    (String.concat ""
       (List.map
          (fun s ->
            let raw = float_of_int s.out.W.completed /. s.raw_run_s in
            Printf.sprintf " %.0f/%.0f" raw (float_of_int s.out.W.completed /. s.run_s))
          samples));
  List.iter
    (fun (name, v) ->
      let samples =
        match name with
        | "host_req_per_s" | "host_alloc_kb_per_req" -> n
        | "setup_s" -> n * setup_reps
        | _ -> lat_n
      in
      print_row name v samples)
    metrics;
  print_row "peak_heap_mb" (float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word /. 1048576.0) 1;
  print_row "virt_unavail_ms" (o.W.unavail_us /. 1e3) lat_n;
  print_row "failed_ratio" failed_ratio attempted;
  List.iter (fun (name, v) -> print_row name v 1) o.W.extra;
  print_result ~correct:(failed = 0) ~attempted:(max 1 attempted) ~failed metrics;
  failed = 0

(* The per-layer metrics of the JSON result, as BENCHMARK.json lists them:
   those defined on every workload.  The traced run prints more (per file
   system, cross-shard latency, recovery fetch time, ...); those stay in the
   human-readable lines, because on a workload without that layer they
   would be a constant zero. *)
let declared_per_layer =
  [ "sim.self_ns_per_req"; "sim.events_per_req"; "sim.queue_depth_max"; "sim.msgs_per_req"; "sim.bytes_per_req" ]
  @ List.map (fun k -> "sim.msgs_per_req." ^ k) (kinds @ [ "FETCH" ])
  @ List.concat_map
      (fun p -> [ "prof." ^ p ^ ".ns_per_req.incl"; "prof." ^ p ^ ".calls_per_req"; "prof." ^ p ^ ".alloc_b_per_req" ])
      probes
  @ [
      "bft.phase.pre_prepare_us.p50"; "bft.phase.prepare_us.p50"; "bft.phase.commit_us.p50";
      "bft.phase.total_us.p50"; "bft.phase.total_us.p99"; "bft.batch_occupancy";
      "bft.checkpoints_per_kreq"; "bft.view_changes"; "bft.rejected";
      "client.retransmissions_per_req"; "client.ro_fallback_ratio";
      "service.execute.self_ns_per_req"; "service.modify.calls_per_req"; "service.modify.self_ns_per_req";
      "service.get_obj.calls_per_req"; "service.get_obj.ns_per_req"; "service.get_obj.bytes_per_req";
      "service.put_objs.calls_per_req"; "service.put_objs.objs_per_req";
      "fs.calls_per_req"; "fs.self_share";
      "objrepo.cow_copies_per_checkpoint"; "objrepo.digests_per_checkpoint";
      "st.objects_fetched"; "st.bytes_fetched"; "st.meta_fetched"; "st.cache_hits"; "st.useful_ratio";
      "recovery.episodes"; "xshard.ops"; "xshard.failed"; "shard.imbalance";
      "load.backlog_peak"; "load.shed"; "trace.self_sum_ratio"; "trace.overhead_ratio";
    ]

let traced (w : W.spec) ~seed ~seconds =
  (* Untraced instances first, for the overhead baseline. *)
  let t_start = now_s () in
  let rec loop acc =
    let s, _, _ = run_instance w ~seed ~snap:ignore in
    let acc = s :: acc in
    if now_s () -. t_start < seconds /. 2.0 then loop acc else List.rev acc
  in
  let plain = loop [] in
  let untraced_run_s = median (List.map (fun s -> s.run_s) plain) in
  let tracer = Tracer.create () in
  let profile = Profile.create ~now_ns:Monotonic_clock.now () in
  Profile.enable profile;
  let s, inst, (before, after) =
    run_instance ~tracer ~profile w ~seed ~snap:(fun inst -> counters inst.W.sys)
  in
  let all = plain @ [ s ] in
  report_failures all;
  let metrics = layer_metrics ~s ~sys:inst.W.sys ~before ~after ~tracer ~profile ~untraced_run_s in
  let dir = Filename.concat "perfbench" "out" in
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (Printf.sprintf "spans-%s.csv" w.W.name) in
  (try Tracer.write_csv tracer path with Sys_error e -> Printf.printf "  spans not written: %s\n" e);
  Printf.printf "workload %s  seed %Ld  traced requests %d  spans %d -> %s\n" w.W.name seed
    s.out.W.completed (Tracer.spans tracer) path;
  Printf.printf "  (prof.* rows are inclusive and overlap; they are not part of the self-time sum)\n";
  List.iter (fun (name, v) -> print_row name v s.out.W.completed) metrics;
  List.iter (fun (name, v) -> print_row name v 1) s.out.W.extra;
  print_row "virt_unavail_ms" (s.out.W.unavail_us /. 1e3) (Array.length s.out.W.lat_us);
  let attempted = List.fold_left (fun a s -> a + s.out.W.attempted) 0 all in
  let failed = List.fold_left (fun a s -> a + s.out.W.failed) 0 all in
  let result =
    List.map
      (fun name ->
        match List.assoc_opt name metrics with
        | Some v -> (name, v)
        | None -> failwith ("per-layer metric not computed: " ^ name))
      declared_per_layer
  in
  print_result ~correct:(failed = 0) ~attempted:(max 1 attempted) ~failed result;
  failed = 0

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " host seconds to measure for");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--smoke", Arg.Set W.smoke, " tiny instances (self-tests)");
    ]
  in
  Arg.parse (Arg.align specs) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match W.find !workload with
  | None ->
    prerr_endline
      ("unknown workload; one of: " ^ String.concat ", " (List.map (fun w -> w.W.name) W.all));
    exit 2
  | Some w ->
    let seed = Int64.of_int !seed in
    let ok = if !trace = 0 then end_to_end w ~seed ~seconds:!seconds else traced w ~seed ~seconds:!seconds in
    exit (if ok then 0 else 1)
