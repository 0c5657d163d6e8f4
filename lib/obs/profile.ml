(* Hot-path profiling probes.

   A probe accumulates three things per named code region: entry count,
   words allocated (exactly, see [major_direct]), and elapsed time from
   an *injected* nanosecond clock.  The clock is a constructor
   argument rather than an ambient read so this module stays inside the
   determinism discipline: the library never touches a wall clock, the
   caller (the benchmark binary) decides what "now" means.  A disabled
   profile costs two loads and a branch per probe site, so production
   paths keep their probes permanently.

   Exported JSON comes in two flavours: [~deterministic:true] drops the
   time fields, leaving only call counts and allocation deltas — both pure
   functions of the code path executed — so the [profile] section of
   BENCH_metrics.json survives the double-run byte-identity gate.  Times
   are for the human-facing table printed alongside. *)

type probe = {
  name : string;
  mutable calls : int;
  mutable ns : int64;
  mutable alloc_w : int;
  mutable depth : int;  (* re-entrant sections count outermost spans only *)
  mutable t0 : int64;
  mutable w0 : int;
}

type t = {
  mutable on : bool;
  now_ns : unit -> int64;
  mutable probes : probe list;  (* registration order; sorted at export *)
}

let create ?(now_ns = fun () -> 0L) () = { on = false; now_ns; probes = [] }

(* A shared permanently-off instance: components that were built without an
   explicit profile attach their probes here, where they stay inert. *)
let disabled = create ()

let enable t = t.on <- true

let enabled t = t.on

let probe t name =
  match List.find_opt (fun p -> String.equal p.name name) t.probes with
  | Some p -> p
  | None ->
    let p = { name; calls = 0; ns = 0L; alloc_w = 0; depth = 0; t0 = 0L; w0 = 0 } in
    t.probes <- t.probes @ [ p ];
    p

let probe_calls p = p.calls

(* Words allocated so far are minor-heap words, which [Gc.minor_words]
   counts exactly, plus words allocated directly in the major heap.  Unlike
   [Gc.allocated_bytes] this does not move with when minor collections
   happen, so it repeats exactly for a repeated code path.  Reading
   [Gc.minor_words] allocates nothing, but the clock and [Gc.counters] do,
   so [start] reads them before the minor words and [stop] after: the
   probe's own allocation never counts. *)
let major_direct () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let start t p =
  if t.on then begin
    p.depth <- p.depth + 1;
    if p.depth = 1 then begin
      p.t0 <- t.now_ns ();
      let direct = major_direct () in
      p.w0 <- int_of_float (Gc.minor_words () +. direct)
    end
  end

let stop t p =
  if t.on && p.depth > 0 then begin
    p.depth <- p.depth - 1;
    if p.depth = 0 then begin
      let minor = Gc.minor_words () in
      p.alloc_w <- p.alloc_w + int_of_float (minor +. major_direct ()) - p.w0;
      p.calls <- p.calls + 1;
      p.ns <- Int64.add p.ns (Int64.sub (t.now_ns ()) p.t0)
    end
  end

let span t p f =
  start t p;
  match f () with
  | v ->
    stop t p;
    v
  | exception e ->
    stop t p;
    raise e

let reset t =
  List.iter
    (fun p ->
      p.calls <- 0;
      p.ns <- 0L;
      p.alloc_w <- 0;
      p.depth <- 0)
    t.probes

let alloc_bytes p = p.alloc_w * (Sys.word_size / 8)

let sorted t = List.sort (fun a b -> String.compare a.name b.name) t.probes

let to_json ?(deterministic = true) t =
  Json.obj
    (List.map
       (fun p ->
         let fields =
           [ ("calls", Json.Int p.calls); ("alloc_bytes", Json.Int (alloc_bytes p)) ]
         in
         let fields =
           if deterministic then fields
           else fields @ [ ("ns", Json.Int (Int64.to_int p.ns)) ]
         in
         (p.name, Json.obj fields))
       (sorted t))

let pp ppf t =
  let total_ns =
    List.fold_left (fun acc p -> Int64.add acc p.ns) 0L t.probes |> Int64.to_float
  in
  Format.fprintf ppf "%-28s %12s %14s %12s %8s@." "probe" "calls" "alloc(B)" "time(ms)" "time%";
  List.iter
    (fun p ->
      let ns = Int64.to_float p.ns in
      Format.fprintf ppf "%-28s %12d %14d %12.2f %7.1f%%@." p.name p.calls (alloc_bytes p)
        (ns /. 1e6)
        (if total_ns > 0.0 then 100.0 *. ns /. total_ns else 0.0))
    (sorted t)
