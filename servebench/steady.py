#!/usr/bin/env python3
"""Steadiness check for the served-traffic benchmark.

Runs the benchmark command of BENCHMARK.json N times per workload, each
time with another seed, and prints for every end-to-end metric the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``), the
spread (Q3 - Q1) / median, and that spread against the metric's bound.

Usage, from the repository root:

    python3 servebench/steady.py --runs 10
    python3 servebench/steady.py --runs 5 --workloads ship_batch --save a.json
    python3 servebench/steady.py --runs 10 --save b.json --against a.json

Every run is the command of BENCHMARK.json for its ``run_seconds``, the
length the bounds were set for.

``--save`` keeps the raw values; ``--against`` compares this set's medians
with a saved set and flags a metric whose median got worse by more than
its bound. Workloads are run round-robin, so a slow spell of the machine
spreads over all of them instead of landing on one.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None, proc.returncode
    return json.loads(lines[-1]), 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--save", default="")
    parser.add_argument("--against", default="")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        names = [n for n in opts.workloads.split(",") if n]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values = {w: {m: [] for m in metrics} for w in names}
    failures = 0
    for i in range(opts.runs):
        for w in names:
            seed = opts.seed_base + i
            result, code = run_once(bench["command"], w, seed, seconds, 0)
            if result is None or not result.get("correct"):
                failures += 1
                print(f"{w} seed {seed}: run failed (exit {code})", flush=True)
                continue
            for m in metrics:
                values[w][m].append(result["metrics"][m]["value"])
            summary = "  ".join(
                f"{m}={result['metrics'][m]['value']:.4g}" for m in metrics
            )
            print(f"{w} seed {seed}: {summary}", flush=True)

    baseline = {}
    if opts.against:
        with open(opts.against) as f:
            baseline = json.load(f)

    worst = 0.0
    print()
    print(f"{'workload':<16}{'metric':<18}{'n':>3}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>7}{'spread/bound':>14}")
    for w in names:
        for m, spec in metrics.items():
            v = values[w][m]
            if len(v) < 2:
                print(f"{w:<16}{m:<18}{len(v):>3}  too few runs")
                continue
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            share = spread / spec["bound"]
            if m != "setup_s":
                worst = max(worst, share)
            note = "" if share <= 1 / 3 else ("  over 1/3 of bound" if share <= 1 else "  OVER BOUND")
            line = (f"{w:<16}{m:<18}{len(v):>3}{med:>14.5g}{q1:>14.5g}{q3:>14.5g}"
                    f"{spread:>9.3f}{spec['bound']:>7.2f}{share:>14.2f}{note}")
            if baseline.get(w, {}).get(m):
                base = statistics.median(baseline[w][m])
                worse = (med - base) / base if spec["better"] == "lower" else (base - med) / base
                line += f"  vs saved median {base:.5g}: {worse:+.3f}"
                if worse > spec["bound"]:
                    line += " WORSE THAN BOUND"
            print(line)
    print(f"\nworst spread/bound (setup_s excluded): {worst:.2f}; failed runs: {failures}")
    if opts.save:
        with open(opts.save, "w") as f:
            json.dump(values, f, indent=1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
