#!/usr/bin/env python3
"""Smoke-sized self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

- every workload, at a tiny size, prints exactly the metric names and units
  BENCHMARK.json lists (end-to-end with --trace 0, per-layer with --trace 1)
  and passes its correctness checks;
- the same seed reproduces every virtual metric and host_alloc_kb_per_req
  exactly;
- a different seed changes the generated inputs;
- the traced run's self times add up to its traced total;
- perfbench/spec.json describes the same workloads and metrics;
- run.py fails, without a result, where the library sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
FAILURES = []


def check(cond, what):
    if not cond:
        FAILURES.append(what)
        print("FAIL:", what)


def run(workload, seed, trace):
    p = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170)
    lines = p.stdout.strip().splitlines()
    check(p.returncode == 0, f"{workload} seed {seed} trace {trace}: exit {p.returncode}")
    inputs = next((l.split("inputs ")[1] for l in lines if " inputs " in l), None)
    return json.loads(lines[-1]), inputs


def main():
    bench = json.load(open("BENCHMARK.json"))
    spec = json.load(open(os.path.join("perfbench", "spec.json")))
    subprocess.run(["dune", "build", "--display", "quiet", "./perfbench/perfbench.exe"], check=True)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]]
    check(names == [w["name"] for w in spec["workloads"]], "spec.json workloads match BENCHMARK.json")
    known = set(e2e) | set(layer) | set(spec["report_only"])
    for name, moves in spec["per_layer_moves"].items():
        check(name in known, f"spec.json maps an unknown metric {name}")
        for m in moves:
            check(m["metric"] in known and m["workload"] in names,
                  f"spec.json: {name} moves an unknown metric or workload {m}")
    for w in names:
        a, in_a = run(w, 1, 0)
        b, in_b = run(w, 1, 0)
        c, in_c = run(w, 2, 0)
        t, _ = run(w, 1, 1)
        for r, want, what in ((a, e2e, "end-to-end"), (t, layer, "per-layer")):
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == want, f"{w}: {what} names and units match BENCHMARK.json")
            check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, f"{w}: {what} run correct")
        for k in e2e:
            if k.startswith("virt_") or k == "host_alloc_kb_per_req":
                check(a["metrics"][k]["value"] == b["metrics"][k]["value"], f"{w}: same seed repeats {k}")
        check(in_a is not None and in_a == in_b, f"{w}: same seed, same inputs")
        check(in_a != in_c, f"{w}: another seed changes the inputs")
        ratio = t["metrics"]["trace.self_sum_ratio"]["value"]
        check(abs(ratio - 1.0) <= 0.01, f"{w}: trace.self_sum_ratio {ratio} within 1% of 1")
    # Where only the benchmark's own files exist, run.py must fail without a result.
    bare = os.path.join("perfbench", "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", names[0], "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                       timeout=170)
    check(p.returncode != 0 and not p.stdout.strip(), "run.py fails without the library sources")
    shutil.rmtree(bare, ignore_errors=True)
    print("selftest:", "FAILED" if FAILURES else "ok", f"({len(FAILURES)} failures)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
