#!/usr/bin/env python3
"""Records cmd/wfbench/baseline.json.

Run from the root of a checkout (the benchmark builds itself there):

    python3 cmd/wfbench/baseline.py OUT.json

It runs BENCHMARK.json's command in two passes over every workload.
Pass A runs seeds 1..10 once each, and between them five runs at seed
1; then one traced run per workload at seed 1; then pass B runs seeds
1..10 again. Before each round a fixed CPU loop is timed, so the file
shows how the host's speed drifted while it was recorded. For each
workload and end-to-end metric it keeps the median and quartiles of the
seed-1 runs and, per pass, the median and the quartile distance over
the median of the ten seeds.
"""
import json
import os
import platform
import statistics
import subprocess
import sys
import time

out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
names = [w["name"] for w in bench["workloads"]]
e2e = [m["name"] for m in bench["end_to_end"]]
res = {"host": {}, "calibration_ms": [], "runs": []}


def calibrate():
    t = time.perf_counter()
    s = 0
    for i in range(3_000_000):
        s += i
    res["calibration_ms"].append(round((time.perf_counter() - t) * 1000, 1))


def run(w, seed, trace, tag):
    cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    r = json.loads(lines[-1]) if p.returncode == 0 else {"error": p.stderr[-2000:]}
    r.update(workload=w, seed=seed, trace=trace, tag=tag, rc=p.returncode, wall_s=round(time.time() - t, 2))
    if trace:
        r["report"] = [l for l in lines if l.startswith(("section", "traced", "portfolio:", "serve:", "rerun:",
                                                         "experiments:", "scale:", "ladder:", "FAIL"))]
    res["runs"].append(r)
    print(tag, w, seed, r["rc"], r.get("correct"), r["wall_s"], flush=True)
    json.dump(res, open(out, "w"), indent=1)


def values(tag, w, m):
    return [r["metrics"][m]["value"] for r in res["runs"]
            if r["tag"] == tag and r["workload"] == w and "metrics" in r]


res["host"] = {"nproc": os.cpu_count(), "machine": platform.machine(),
               "cpu": next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo")
                            if l.startswith("model name")), ""),
               "go": subprocess.run(["go", "env", "GOVERSION"], capture_output=True, text=True).stdout.strip(),
               "run_seconds": bench["run_seconds"]}
for seed in range(1, 11):
    calibrate()
    for w in names:
        run(w, seed, 0, "A")
        if seed % 2 == 0:
            run(w, 1, 0, "seed1")
calibrate()
for w in names:
    run(w, 1, 1, "traced")
for seed in range(1, 11):
    calibrate()
    for w in names:
        run(w, seed, 0, "B")

summary = {}
for w in names:
    s = summary[w] = {"seed1": {}, "A": {}, "B": {}}
    for m in e2e:
        v = values("seed1", w, m)
        q = statistics.quantiles(v, n=4)
        s["seed1"][m] = {"n": len(v), "median": statistics.median(v), "q1": q[0], "q3": q[2]}
        for tag in "AB":
            v = values(tag, w, m)
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            s[tag][m] = {"n": len(v), "median": med, "iqr_over_median": (q[2] - q[0]) / med}
    traced = [r for r in res["runs"] if r["tag"] == "traced" and r["workload"] == w]
    if traced and "metrics" in traced[0]:
        s["traced"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        s["traced_report"] = traced[0]["report"]
res["summary"] = summary
json.dump(res, open(out, "w"), indent=1)
