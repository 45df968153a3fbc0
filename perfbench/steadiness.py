#!/usr/bin/env python3
"""Measure the benchmark's run-to-run steadiness.

Runs the command from BENCHMARK.json once per (workload, seed), from the
repository root, and prints for every end-to-end metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the quartile spread as
a share of the median, next to the metric's bound.

    python3 perfbench/steadiness.py --runs 10 --out steadiness.json
    python3 perfbench/steadiness.py --workloads serve-mixed --runs 5
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    report = json.loads(out.stdout.strip().splitlines()[-1])
    if not report["correct"]:
        sys.exit(f"{workload} seed {seed}: report not correct\n{out.stderr}")
    return report, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if a.trace else bench["end_to_end"]
    result = {}
    for w in names:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for seed in range(1, a.runs + 1):
            report, wall = run_once(bench["command"], w, seed, bench["run_seconds"], a.trace)
            walls.append(wall)
            for m in metrics:
                values[m["name"]].append(report["metrics"][m["name"]]["value"])
        rows = {}
        print(f"{w}: {a.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": bound, "values": v}
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {m['name']:28s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {spread:7.4f}" + (f"  bound {bound}" if bound is not None else "") + flag)
        result[w] = {"runs": a.runs, "wall_s": walls, "metrics": rows}
    if a.out:
        with open(a.out, "w") as f:
            json.dump(result, f, indent=1)


if __name__ == "__main__":
    main()
