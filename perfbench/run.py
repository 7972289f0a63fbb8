#!/usr/bin/env python3
"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload cyclic-lftj --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds the harness (perfbench/CMakeLists.txt,
on top of the repository's own libraries) into .bench_build/perfbench,
runs one workload, checks every op's answer, and prints:

- `# ...` lines: run metadata, how busy the host kept the machine, every
  metric with its unit, its spread within the run and the sample counts
  behind each percentile;
- as the last line, one JSON object with exactly the keys `correct`,
  `attempted`, `failed` and `metrics`. `--trace 0` reports the
  end-to-end metrics, `--trace 1` the per-layer ones (see metrics.py).

Exits non-zero, printing no result, when the build or the run fails.
See perfbench/README.md for the workloads and what each metric predicts.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402

WORKLOADS = ("cyclic-lftj", "acyclic-ms", "serve-mixed", "incremental-updates")
# A run must end within this many seconds; the harness's own set-up and
# reference checks sit well inside it.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
MAX_JOBS = 4


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build():
    """Configures (once) and builds the harness; returns its path."""
    out = build_dir()
    jobs = str(min(MAX_JOBS, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(configure)
    steps.append(["cmake", "--build", str(out), "--target",
                  "perfbench_harness", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return out / "perfbench_harness"


def run_harness(binary, workload, seed, seconds, trace, extra=()):
    workdir = build_dir() / "work" / ("%s-%d-%d" % (workload, seed, os.getpid()))
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--workdir", str(workdir), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise RuntimeError("harness exited with %d" % proc.returncode)
    return json.loads(proc.stdout)


def source_digest():
    """SHA-256 over the repository's src/ tree: identifies the measured
    code even where the checkout carries no git metadata."""
    root = BENCH_DIR.parent / "src"
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(BENCH_DIR.parent.parent))
    try:
        proc = subprocess.run(["git", "-C", str(BENCH_DIR.parent), "rev-parse",
                               "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def report(record, trace):
    """Prints the `#` lines and returns the final result object."""
    phases = record["phases"]
    measured = phases[-1]
    attempted = sum(len(p["ops"]) for p in phases)
    failed = sum(p["failed"] for p in phases)
    meta = dict(record["meta"], workload=record["workload"],
                seed=record["seed"], git_sha=git_sha(),
                src_sha256=source_digest(), op_mix=metrics.op_mix(measured["ops"]),
                references_s=record["references_s"])
    print("# meta " + json.dumps(meta, sort_keys=True))
    host = record["host"]
    print("# host during the ops: %.1f%% of all CPU time stolen by the "
          "hypervisor; the harness kept %.2f CPUs busy" % (
              host["steal_share"] * 100, host["process_cpus_busy"]))
    for p in phases:
        for why in p["failures"]:
            print("# FAILED op: " + why)

    if trace:
        values = metrics.per_layer(record)
        units = metrics.PER_LAYER_UNITS
        for name in units:
            print("# %-34s %14.6g %s" % (name, values[name], units[name]))
    else:
        values, samples, spread, windows = metrics.end_to_end(record,
                                                              measured)
        units = metrics.END_TO_END_UNITS
        print("# metric, value over the whole timed phase, unit, spread "
              "across %d equal-time windows of it, samples and samples "
              "beyond each percentile" % windows)
        for name in units:
            n, beyond = samples.get(name, (None, None))
            extra = "" if n is None else "  n=%d beyond=%d%s" % (
                n, beyond, "" if beyond >= metrics.MIN_BEYOND else " (FEW)")
            print("# %-20s %12.6g  %-5s %6.2f%%%s" % (
                name, values[name], units[name], spread[name] * 100, extra))
        print("# failed_ratio %.6g" % (1 - values["ok_ratio"]))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="make the first reference answer wrong "
                             "(for the benchmark's own tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    try:
        binary = build()
        extra = ["--corrupt-reference"] if args.corrupt_reference else []
        record = run_harness(binary, args.workload, args.seed, args.seconds,
                             args.trace, extra)
        result = report(record, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        log("perfbench: %s" % err)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
