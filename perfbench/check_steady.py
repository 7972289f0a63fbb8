#!/usr/bin/env python3
"""Steadiness check for the benchmark: is each end-to-end metric steady
enough across seeds for its bound in BENCHMARK.json, and do two sets of
runs of the same code agree within the bounds?

    python3 perfbench/check_steady.py --workload cyclic-lftj,acyclic-ms \
        --seeds 1-10 [--held-out 11-20] [--seconds 25] [--out runs.json]

Runs perfbench/run.py (untraced) once per seed and workload and reports,
per workload and metric, the median, the spread across seeds (IQR over
median, with the quartiles of Python's statistics.quantiles(n=4)) and
the bound. A metric passes when its spread is below a third of its
bound; setup_s is held to the same test. With --held-out, a second set
of runs on other seeds is made, alternating with the first (seed 1 of
the first set, seed 1 of the second, seed 2 of the first, ...) so both
sets see the same periods of the host; each metric's second median must
be no worse than the first by more than its bound, and its spread in the
second set is tested too. Exits 1 when a check fails. Run from the
repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from metrics import relative_spread  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s: run failed for seed %d" % (workload, seed))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: wrong answers (%d of %d failed)" % (
            workload, seed, result["failed"], result["attempted"]))
    print("%s seed %d: %s" % (workload, seed, " ".join(
        "%s=%.5g" % (k, m["value"]) for k, m in result["metrics"].items())),
        flush=True)
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def spread_verdict(spread, bound):
    if spread < bound / 3:
        return None
    return "NOISY" if spread < bound else "TOO NOISY"


def report(workload, sets, bounds):
    """Prints one workload's table; returns False when a check fails."""
    ok = True
    print("\n%s" % workload)
    print("%-16s %11s %8s %11s %8s %8s %6s %s" % (
        "metric", "median", "spread", "median 2", "spread 2", "change",
        "bound", "verdict"))
    for name, metric in bounds.items():
        first = [run[name] for run in sets[0]]
        median, spread = statistics.median(first), relative_spread(first)
        problems = []
        verdict = spread_verdict(spread, metric["bound"])
        if verdict:
            problems.append(verdict)
        second_text = "%11s %8s %8s" % ("-", "-", "-")
        if len(sets) > 1:
            second = [run[name] for run in sets[1]]
            median2 = statistics.median(second)
            spread2 = relative_spread(second)
            drift = worse_by(metric, median, median2)
            second_text = "%11.5g %7.2f%% %+7.2f%%" % (median2, spread2 * 100,
                                                      drift * 100)
            verdict = spread_verdict(spread2, metric["bound"])
            if verdict:
                problems.append(verdict + " (set 2)")
            if drift > metric["bound"]:
                problems.append("SET 2 WORSE")
        ok = ok and not problems
        print("%-16s %11.5g %7.2f%% %s %5.0f%% %s" % (
            name, median, spread * 100, second_text, metric["bound"] * 100,
            ", ".join(problems) or "ok"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload, or several separated by commas "
                             "(their runs are interleaved)")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--held-out", type=seed_range, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None,
                        help="also write every run's metrics to this file")
    args = parser.parse_args()
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload.split(",")
    seed_sets = [args.seeds] + ([args.held_out] if args.held_out else [])
    if len({len(s) for s in seed_sets}) != 1:
        parser.error("--seeds and --held-out must name as many seeds")

    runs = {w: [[] for _ in seed_sets] for w in workloads}
    for i in range(len(args.seeds)):
        for w in workloads:
            for k, seeds in enumerate(seed_sets):
                runs[w][k].append(run_once(w, seeds[i], seconds))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": seconds, "seed_sets": seed_sets, "runs": runs},
            indent=1))
    ok = all([report(w, runs[w], bounds) for w in workloads])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
