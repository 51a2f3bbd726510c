#!/usr/bin/env python3
"""Measures how steady the benchmark is.

Runs each workload once per seed, in two sets, and prints for every metric
its median and its spread (the distance between the first and third
quartile as a share of the median, as `statistics.quantiles(n=4)` gives
them) per set, then the second set's median against the first's. Bounds
come from BENCHMARK.json; a metric is steady when its spread is below a
third of its bound and the two medians agree within the bound, in either
direction. `setup_s` is the one exception to the first test: its spread
must stay within its whole bound (README "Steadiness" gives the reason and
the measured figures).

    python3 perfbench/steady.py --seeds 10 --sets 2
    python3 perfbench/steady.py --workloads tpcc_hot --seeds 5 --sets 1
    python3 perfbench/steady.py --seeds 5 --sets 1 --trace 1   # per-layer

Exits 1 when a run fails or a metric misses its bound.
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
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    last = done.stdout.rstrip("\n").split("\n")[-1]
    if done.returncode != 0:
        raise RuntimeError("%s seed %d exited %d: %s" %
                           (workload, seed, done.returncode, last))
    result = json.loads(last)
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    specs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in specs}
    seeds = range(1, args.seeds + 1)
    ok = True
    # results[workload][set] = list of metric dicts, one per seed
    results = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    for s in range(args.sets):
        for w in args.workloads:
            for seed in seeds:
                try:
                    results[w][s].append(
                        run_once(w, seed, bench["run_seconds"], args.trace))
                except RuntimeError as e:
                    print("FAILED", e)
                    ok = False
                    continue
                print("set %d %s seed %d done" % (s + 1, w, seed),
                      file=sys.stderr, flush=True)

    for w in args.workloads:
        print("\n== %s (%d seeds, %.0f s runs) ==" %
              (w, args.seeds, bench["run_seconds"]))
        print("%-28s %-12s %14s %8s %14s %8s %8s %6s" %
              ("metric", "bound", "median1", "iqr1", "median2", "iqr2",
               "drift", "ok"))
        for name in bounds:
            sets = [[r[name] for r in runs] for runs in results[w] if runs]
            if not sets or any(len(v) < 2 for v in sets):
                continue
            stats = [spread(v) for v in sets]
            bound = bounds[name]
            line_ok = True
            if bound is not None:
                limit = bound if name == "setup_s" else bound / 3
                for med, iqr in stats:
                    if iqr > limit:
                        line_ok = False
                if len(stats) > 1 and stats[0][0]:
                    if abs(stats[1][0] / stats[0][0] - 1) > bound:
                        line_ok = False
            ok = ok and line_ok
            m2 = "%14.6g %8.4f" % stats[1] if len(stats) > 1 else " " * 23
            drift_s = ("%8.4f" % (stats[1][0] / stats[0][0] - 1)
                       if len(stats) > 1 and stats[0][0] else " " * 8)
            print("%-28s %-12s %14.6g %8.4f %s %s %6s" %
                  (name, bound, stats[0][0], stats[0][1], m2, drift_s,
                   "yes" if line_ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
