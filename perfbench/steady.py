#!/usr/bin/env python3
"""Steadiness check: run one workload N times and report the spread.

usage: python3 perfbench/steady.py --workload W [--runs N]

Run from the repository root.  Runs the benchmark N times (default 10)
for BENCHMARK.json's run_seconds, with seeds 1, 2, ..., N, then prints
for every end-to-end metric the median, the quartiles, the quartile
spread (Q3 - Q1) and the min-max spread as shares of the median, next
to the metric's bound from BENCHMARK.json ("ok" when the quartile
spread is below a third of it).  Every run's metrics are printed with
its seed, so two invocations can be compared seed by seed: the four
quality metrics must repeat exactly.  One traced run with seed 1
follows, and its trace overhead and unattributed share are printed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("seed %d: incorrect run: %d/%d failed" % (seed, result["failed"], result["attempted"]))
    # the raw figures the normalised ones come from, printed beside them
    notes = {}
    for line in lines[:-1]:
        f = line.split()
        if len(f) == 4 and f[1] in ("raw_fns_per_s", "host_reference_ms"):
            notes[f[1]] = float(f[2])
    return result["metrics"], notes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for i in range(args.runs):
        seed = 1 + i
        metrics, notes = run(args.workload, seed, seconds, 0)
        runs.append(metrics)
        print("seed %d: %s | %s" % (seed, " ".join(
            "%s=%.17g" % (k, v["value"]) for k, v in metrics.items()),
            " ".join("%s=%.6g" % kv for kv in notes.items())), flush=True)
    print("%-18s %12s %12s %12s %8s %8s %7s" %
          ("metric", "median", "q1", "q3", "iqr%", "range%", "bound%"))
    for name, bound in bounds.items():
        values = [r[name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(values) - min(values)) / med if med else 0.0
        verdict = "ok" if iqr < bound / 3 else "WIDE"
        print("%-18s %12.6g %12.6g %12.6g %8.2f %8.2f %7.1f %s" %
              (name, med, q1, q3, 100 * iqr, 100 * rng, 100 * bound, verdict))
    t, _ = run(args.workload, 1, seconds, 1)
    total = t["trace.fn_total_ns"]["value"]
    print("trace.overhead_ratio %.4f" % t["trace.overhead_ratio"]["value"])
    print("pipeline.unattributed share %.4f" %
          (t["pipeline.unattributed_ns"]["value"] / total))
    print("trace.replay_mismatches %d" % t["trace.replay_mismatches"]["value"])


if __name__ == "__main__":
    main()
