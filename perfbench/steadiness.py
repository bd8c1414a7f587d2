#!/usr/bin/env python3
"""Steadiness report: repeated runs of the benchmark, summarised.

    python3 perfbench/steadiness.py [--seeds 10] [--sets 1] [--traced]

Run from the root of a checkout. For each workload in `BENCHMARK.json`
it runs `perfbench/run.py` for `run_seconds` once per seed (seeds
`1 .. seeds`, workloads interleaved so drift lands on each alike), then
prints every end-to-end metric's median, first and third quartile (as
`statistics.quantiles(values, n=4)` gives them) and spread, the
quartile distance as a share of the median. A metric is flagged FAIL
when its spread exceeds the bound in `BENCHMARK.json` and WARN when it
exceeds a third of it.
With `--sets 2` the whole series runs twice and each metric's second
median is compared with the first: FAIL when it is worse by more than
the bound. `--traced` adds one traced run per workload and prints its
per-layer metrics, including the tracing overhead. Exits 1 on any FAIL.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steadiness: {' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"steadiness: {workload} seed {seed} reported incorrect output: {lines[-1]}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
          file=sys.stderr, flush=True)
    return values


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    failed = False
    medians = []
    for s in range(args.sets):
        runs = {w: [] for w in workloads}
        for seed in range(1, args.seeds + 1):
            for w in workloads:
                runs[w].append(run_once(w, seed, seconds, 0))
        print(f"set {s + 1}: {args.seeds} seeds x {seconds} s")
        print(f"{'workload':<12} {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        set_medians = {}
        for w in workloads:
            for m in metrics:
                name, bound = m["name"], m["bound"]
                q1, med, q3, spread = summarise([r[name] for r in runs[w]])
                set_medians[(w, name)] = med
                flag = ""
                if spread > bound:
                    flag, failed = "FAIL", True
                elif spread > bound / 3:
                    flag = "WARN"
                print(f"{w:<12} {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>8.3f} {bound:>6.2f} {flag}")
        medians.append(set_medians)

    for s in range(1, len(medians)):
        print(f"set {s + 1} against set 1 (worse by more than the bound fails)")
        for w in workloads:
            for m in metrics:
                first, later = medians[0][(w, m["name"])], medians[s][(w, m["name"])]
                change = (later - first) / first if first else 0.0
                worse = change if m["better"] == "lower" else -change
                flag = ""
                if worse > m["bound"]:
                    flag, failed = "FAIL", True
                elif worse > m["bound"] / 3:
                    flag = "WARN"
                print(f"{w:<12} {m['name']:<16} {first:>12.6g} -> {later:>12.6g} "
                      f"{change:>+8.3f} {flag}")

    if args.traced:
        for w in workloads:
            print(f"traced run: {w} seed 1")
            for name, value in run_once(w, 1, seconds, 1).items():
                print(f"  {name:<28} {value:>14.6g}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
