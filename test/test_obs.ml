(* The observability layer: bucket-edge semantics, registry reset, JSON
   canonicalisation, and the headline property — two same-seed runs emit a
   byte-identical trace. *)

module Metrics = Base_obs.Metrics
module Trace = Base_obs.Trace
module Json = Base_obs.Json
module Runtime = Base_core.Runtime
module Engine = Base_sim.Engine
module Sim_time = Base_sim.Sim_time

let test_bucket_edges () =
  let m = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 10.0; 20.0 |] m "edges" in
  Metrics.observe h 10.0;
  (* exactly on a bound: first bucket *)
  Metrics.observe h 10.0001;
  (* just above: second bucket *)
  Metrics.observe h 25.0;
  (* above the last bound: overflow slot *)
  Alcotest.(check (array int)) "bucket placement" [| 1; 1; 1 |] (Metrics.bucket_counts h);
  Alcotest.(check int) "count" 3 (Metrics.hist_count h);
  Metrics.observe h Float.nan;
  Alcotest.(check int) "NaN ignored" 3 (Metrics.hist_count h)

let test_histogram_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 10.0; 20.0; 40.0 |] m "q" in
  List.iter (Metrics.observe h) [ 5.0; 15.0; 15.0; 30.0 ];
  (* All mass up to rank 1 sits in the first bucket; quantile estimates stay
     within the bucket that holds the target rank. *)
  Alcotest.(check bool) "p25 in first bucket" true (Metrics.quantile h 0.25 <= 10.0);
  let p99 = Metrics.quantile h 0.99 in
  Alcotest.(check bool) "p99 in last occupied bucket" true (p99 > 20.0 && p99 <= 40.0)

let test_registration_conflicts () =
  let m = Metrics.create () in
  let c = Metrics.counter m "x" in
  Metrics.incr c;
  let c' = Metrics.counter m "x" in
  Metrics.incr c';
  Alcotest.(check int) "get-or-create shares state" 2 (Metrics.counter_value c);
  Alcotest.check_raises "kind clash raises"
    (Invalid_argument "Metrics: x already registered as a counter (wanted a histogram)")
    (fun () -> ignore (Metrics.histogram m "x"))

let test_reset_keeps_registrations () =
  (* Recovery zeroes an epoch's numbers without forgetting which metrics
     exist — names must survive so the export schema is stable. *)
  let m = Metrics.create () in
  let c = Metrics.counter m "epoch.ops" in
  let h = Metrics.histogram ~buckets:[| 1.0 |] m "epoch.lat" in
  Metrics.incr ~by:5 c;
  Metrics.observe h 0.5;
  Metrics.reset m;
  Alcotest.(check int) "counter zeroed" 0 (Metrics.counter_value c);
  Alcotest.(check int) "histogram zeroed" 0 (Metrics.hist_count h);
  Alcotest.(check (list string)) "registrations kept" [ "epoch.lat"; "epoch.ops" ]
    (Metrics.names m);
  Metrics.incr c;
  Alcotest.(check int) "usable after reset" 1 (Metrics.counter_value c)

let test_json_canonical () =
  let j =
    Json.obj
      [ ("b", Json.Int 1); ("a", Json.Float 2.0); ("c", Json.Float Float.nan) ]
  in
  Alcotest.(check string) "sorted keys, canonical floats, NaN -> null"
    {|{"a":2.0,"b":1,"c":null}|} (Json.to_string j)

let test_json_parse_roundtrip () =
  let j =
    Json.obj
      [
        ("counts", Json.List [ Json.Int 0; Json.Int (-3); Json.Int max_int ]);
        ("flag", Json.Bool true);
        ("floats", Json.List [ Json.Float 2.0; Json.Float 0.015625; Json.Float (-1.5e9) ]);
        ("missing", Json.Null);
        ("nested", Json.obj [ ("s", Json.Str "quote\" slash\\ tab\t ctl\x01") ]);
      ]
  in
  (* to_string o of_string is the identity on the module's own output —
     both compact and pretty. *)
  List.iter
    (fun rendered ->
      match Json.of_string rendered with
      | Ok parsed -> Alcotest.(check string) "round trip" (Json.to_string j) (Json.to_string parsed)
      | Error e -> Alcotest.fail e)
    [ Json.to_string j; Json.to_string_pretty j ];
  (* Int/Float distinction survives: "2.0" parses as Float, "2" as Int. *)
  (match Json.of_string "[2,2.0]" with
  | Ok (Json.List [ Json.Int 2; Json.Float 2.0 ]) -> ()
  | Ok _ | Error _ -> Alcotest.fail "number type mangled");
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed %S" bad)
      | Error _ -> ())
    [ "{"; "[1,]"; "\"open"; "tru"; "{\"a\":1}x"; "" ]

let test_trace_events () =
  let tr = Trace.create () in
  (* Attribute order as given must not matter. *)
  Trace.event tr ~ts:5L ~name:"e" [ ("z", "1"); ("a", "2") ];
  Trace.event tr ~ts:6L ~name:"f" [ ("a", "2"); ("z", "1") ];
  let lines = String.split_on_char '\n' (String.trim (Trace.to_string tr)) in
  Alcotest.(check int) "two lines" 2 (List.length lines);
  Alcotest.(check string) "attrs sorted"
    {|{"attr.a":"2","attr.z":"1","event":"e","ts_us":5}|} (List.nth lines 0)

let test_trace_limit () =
  let tr = Trace.create ~limit:2 () in
  for i = 1 to 5 do
    Trace.event tr ~ts:(Int64.of_int i) ~name:"e" []
  done;
  Alcotest.(check int) "prefix kept" 2 (Trace.length tr);
  match Trace.events tr with
  | [ a; b ] ->
    Alcotest.(check int64) "first" 1L a.Trace.ts;
    Alcotest.(check int64) "second" 2L b.Trace.ts
  | _ -> Alcotest.fail "expected 2 events"

(* The property the benchmark JSON gate relies on: running the same seeded
   system twice produces byte-identical traces and reports. *)
let test_trace_determinism () =
  let run seed =
    let sys, _ = Helpers.make_system ~seed ~checkpoint_period:8 () in
    Runtime.enable_proactive_recovery ~reboot_us:50_000 ~period_us:400_000 sys;
    for i = 0 to 7 do
      ignore (Helpers.set sys ~client:0 i (Printf.sprintf "v%d" i))
    done;
    Engine.run
      ~until:(Sim_time.add (Runtime.now sys) (Sim_time.of_sec 2.0))
      (Runtime.engine sys);
    ( Trace.to_string (Runtime.trace sys),
      Json.to_string (Runtime.metrics_report sys) )
  in
  let trace1, report1 = run 42L in
  let trace2, report2 = run 42L in
  Alcotest.(check bool) "trace nonempty" true (String.length trace1 > 0);
  Alcotest.(check string) "same seed, same trace" trace1 trace2;
  Alcotest.(check string) "same seed, same report" report1 report2;
  let trace3, _ = run 43L in
  Alcotest.(check bool) "different seed, different trace" true
    (not (String.equal trace1 trace3))

let test_runtime_phase_metrics () =
  let sys, _ = Helpers.make_system ~checkpoint_period:8 () in
  for i = 0 to 7 do
    ignore (Helpers.set sys ~client:0 i "x")
  done;
  let m = Runtime.metrics sys in
  let h = Metrics.histogram m "bft.phase.total_us" in
  Alcotest.(check bool) "phase latencies recorded" true (Metrics.hist_count h > 0);
  Alcotest.(check bool) "positive mean" true (Metrics.hist_mean h > 0.0)

(* Probe allocation is exact: a span that allocates nothing records 0
   bytes, even though the probe's clock and GC reads allocate; a small
   block counts its header and fields; a block too big for the minor heap
   (allocated directly in the major heap) counts too. *)
let test_profile_alloc_exact () =
  let module Profile = Base_obs.Profile in
  let clock = ref 0L in
  let now_ns () =
    clock := Int64.add !clock 1L;
    !clock
  in
  let p = Profile.create ~now_ns () in
  Profile.enable p;
  let run name f =
    let probe = Profile.probe p name in
    for _ = 1 to 3 do
      Profile.start p probe;
      ignore (Sys.opaque_identity (f ()));
      Profile.stop p probe
    done
  in
  run "empty" (fun () -> [||]);
  run "small" (fun () -> Array.make 10 0);
  run "major" (fun () -> Array.make 1000 0);
  let entry calls words =
    Json.obj [ ("alloc_bytes", Json.Int (words * (Sys.word_size / 8))); ("calls", Json.Int calls) ]
  in
  Alcotest.(check string) "alloc bytes per probe"
    (Json.to_string
       (Json.obj [ ("empty", entry 3 0); ("major", entry 3 (3 * 1001)); ("small", entry 3 (3 * 11)) ]))
    (Json.to_string (Profile.to_json p))

let suite =
  [
    Alcotest.test_case "histogram bucket edges" `Quick test_bucket_edges;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "registration conflicts" `Quick test_registration_conflicts;
    Alcotest.test_case "reset keeps registrations" `Quick test_reset_keeps_registrations;
    Alcotest.test_case "json canonical form" `Quick test_json_canonical;
    Alcotest.test_case "json parse round-trips" `Quick test_json_parse_roundtrip;
    Alcotest.test_case "trace renders sorted attrs" `Quick test_trace_events;
    Alcotest.test_case "trace honours its limit" `Quick test_trace_limit;
    Alcotest.test_case "same-seed runs trace identically" `Quick test_trace_determinism;
    Alcotest.test_case "replica phases reach the registry" `Quick test_runtime_phase_metrics;
    Alcotest.test_case "profile allocation is exact" `Quick test_profile_alloc_exact;
  ]
