#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs one workload once per seed (one set of runs), or several sets of
the same seeds (or, with --fresh-seeds, of new seeds each set), and
prints for every end-to-end metric the median and
quartiles of each set, the spread (interquartile distance over the
median) against the metric's bound, the drift of each later set's
median from the first set's, and the spread of the unscaled host-time
figures for comparison.

    python3 perfbench/spread.py --workload codesign-energy --seeds 1-10 --sets 2

Run it from the root of the repository.  It prints one table per set
and a summary; it exits non-zero if a run fails or a spread (setup_s
excepted) or drift exceeds its bound.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    if out.returncode != 0 or not last.startswith("{"):
        sys.stderr.write(out.stdout)
        raise SystemExit(f"{workload} seed {seed}: run failed ({out.returncode})")
    result = json.loads(last)
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect or failed requests")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    unscaled = dict(re.findall(r"^(\S+) .*\(unscaled (\S+)\)$", out.stdout, re.M))
    return values, {k: float(v) for k, v in unscaled.items()}


def spread_of(values):
    """Interquartile distance over the median, the median, and quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median, median, q1, q3


def worse(metric, first, later):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--fresh-seeds", action="store_true",
                    help="set k adds 100*k to every seed")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seeds = seeds_of(args.seeds)
    sets = []
    for s in range(args.sets):
        runs = []
        for seed in seeds:
            seed += 100 * s if args.fresh_seeds else 0
            values, unscaled = run_once(bench, args.workload, seed)
            runs.append((values, unscaled))
            print(f"set {s + 1} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in values.items()), flush=True)
        sets.append(runs)
    ok = True
    print(f"\n{args.workload}: {len(seeds)} seeds x {args.sets} set(s)")
    print(f"{'metric':28} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'drift':>7} {'unscaled spread':>16}")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        first_median = None
        for s, runs in enumerate(sets):
            values = [r[name] for r, _ in runs]
            spread, median, q1, q3 = spread_of(values)
            raw = [u[name] for _, u in runs if name in u]
            raw_spread = f"{spread_of(raw)[0]:16.3f}" if len(raw) == len(runs) else ""
            if first_median is None:
                first_median, drift = median, 0.0
            else:
                drift = worse(metric, first_median, median)
            bad = (spread > bound and name != "setup_s") or drift > bound
            ok = ok and not bad
            print(f"{name:28} {s + 1:>3} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound:6.2f} {drift:7.3f} {raw_spread}"
                  f"{'  OVER' if bad else ''}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
