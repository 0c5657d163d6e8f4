(** Hot-path profiling probes: per-phase call counts, allocation, and time.

    A {!probe} brackets a named code region.  Each outermost
    {!start}/{!stop} pair accumulates one call, the words allocated in
    between (minor-heap words plus words allocated directly in the major
    heap, exact and excluding the probe's own reads), and the elapsed time read from the clock injected at
    {!create} — the library itself never reads ambient time, which keeps
    the determinism lint (D2) and the byte-reproducible benchmark exports
    honest.  A disabled profile (the default, and the shared {!disabled}
    instance) makes every probe site cost a couple of loads and a branch,
    so probes stay compiled into production paths.

    Exports: {!to_json} with [~deterministic:true] (the default) emits
    only call counts and allocation bytes — pure functions of the executed
    code path, safe for the blessed [profile] section of
    [BENCH_metrics.json] — while [~deterministic:false] adds nanosecond
    totals for local inspection.  {!pp} prints the human-facing table. *)

type t

type probe

val create : ?now_ns:(unit -> int64) -> unit -> t
(** A fresh, disabled profile.  [now_ns] supplies the clock used for the
    time column; it defaults to a constant (time accumulates as zero). *)

val disabled : t
(** Shared permanently-disabled instance for components built without an
    explicit profile. *)

val enable : t -> unit

val enabled : t -> bool

val probe : t -> string -> probe
(** Get-or-register the probe with this name. *)

val probe_calls : probe -> int
(** Completed outermost spans so far (what the [calls] export reports). *)

val start : t -> probe -> unit

val stop : t -> probe -> unit
(** Re-entrant: only the outermost [start]/[stop] pair of a probe samples
    the clocks, so recursive spans count once. *)

val span : t -> probe -> (unit -> 'a) -> 'a
(** [span t p f] runs [f] bracketed by {!start}/{!stop} (exception-safe).
    Prefer explicit {!start}/{!stop} on paths where the closure allocation
    matters. *)

val reset : t -> unit

val to_json : ?deterministic:bool -> t -> Json.t
(** Probes sorted by name.  With [deterministic] (default [true]) the
    object carries [calls] and [alloc_bytes] only; otherwise an [ns] field
    is added. *)

val pp : Format.formatter -> t -> unit
