"""Tests of the benchmark itself: its statistics and its answer checks.

    python3 -m unittest discover -s perfbench/tests      # from the repo root

The first group runs on hand-made inputs in milliseconds. RunChecksTest
builds the harness (as run.py does) and runs every workload for one
second with a deliberately wrong reference answer, which must fail the
run; it takes a few minutes on a cold build directory.
"""

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402


def op(start, end, cls=metrics.MAIN, exec_s=-1.0):
    return [start, end, exec_s, cls]


def span(sid, parent, name, start, end, op_id=1, thread=0):
    return [sid, parent, op_id, thread, name, start, end]


class BenchmarkSpecTest(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        for key, units in (("end_to_end", metrics.END_TO_END_UNITS),
                           ("per_layer", metrics.PER_LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in spec[key]}, units)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_and_samples_beyond(self):
        values = list(range(100, 0, -1))  # order must not matter
        self.assertEqual(metrics.percentile(values, 0.50), (50, 50))
        self.assertEqual(metrics.percentile(values, 0.95), (95, 5))
        self.assertEqual(metrics.percentile(values, 1.0), (100, 0))

    def test_p95_has_ten_beyond_at_two_hundred_samples(self):
        _, beyond = metrics.percentile(list(range(200)), 0.95)
        self.assertEqual(beyond, metrics.MIN_BEYOND)

    def test_empty_and_single(self):
        self.assertEqual(metrics.percentile([], 0.5), (0.0, 0))
        self.assertEqual(metrics.percentile([7.0], 0.95), (7.0, 0))

    def test_relative_spread_uses_statistics_quartiles(self):
        values = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(metrics.relative_spread(values),
                               (q3 - q1) / median)
        self.assertEqual(metrics.relative_spread([3.0]), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_and_clipped_children_count_once(self):
        spans = [
            span(1, 0, "bench.op", 0, 100),
            span(2, 1, "core.execute", 10, 30),
            span(3, 1, "core.execute", 20, 50, thread=1),  # overlaps 2
            span(4, 1, "core.execute", 90, 120),  # runs past its parent
            span(5, 2, "storage.seek", 12, 18),  # grandchild of 1
        ]
        selfs = metrics.self_times(spans)
        self.assertEqual(selfs[1], 100 - (40 + 10))
        self.assertEqual(selfs[2], 20 - 6)
        self.assertEqual(selfs[3], 30)
        self.assertEqual(selfs[5], 6)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(metrics.self_times([span(1, 0, "x", 5, 9)]), {1: 4})


class EndToEndTest(unittest.TestCase):
    RECORD = {"setup_s": [1.0, 3.0, 2.0], "peak_rss_mb": 12.5}

    def test_percentiles_cover_the_cheap_class_only(self):
        ops = [op(0, 0.001 * (i + 1)) for i in range(20)]
        ops += [op(0, 1.0, cls=metrics.HEAVY) for _ in range(3)]
        phase = {"ops": ops, "elapsed_s": 2.0, "failed": 1}
        values, samples, _, windows = metrics.end_to_end(self.RECORD, phase)
        self.assertEqual(windows, 1)
        self.assertAlmostEqual(values["latency_p50_ms"], 10.0)
        self.assertAlmostEqual(values["latency_p95_ms"], 19.0)
        self.assertAlmostEqual(values["heavy_p50_ms"], 1000.0)
        self.assertEqual(samples["latency_p95_ms"], (20, 1))
        self.assertEqual(values["setup_s"], 2.0)
        self.assertAlmostEqual(values["ops_per_s"], 11.5)
        self.assertAlmostEqual(values["ok_ratio"], 22 / 23)

    def test_single_class_heavy_median_is_the_median(self):
        ops = [op(0, 0.001 * (i + 1)) for i in range(9)]
        phase = {"ops": ops, "elapsed_s": 1.0, "failed": 0}
        values, _, _, _ = metrics.end_to_end(self.RECORD, phase)
        self.assertEqual(values["heavy_p50_ms"], values["latency_p50_ms"])
        self.assertEqual(values["ok_ratio"], 1.0)

    def test_op_metrics_pool_the_phase_and_windows_give_the_spread(self):
        # Three seconds of 250 ops each; the middle one is a burst of
        # interference at 10x the latency. The metrics pool all 750 ops,
        # so the burst sets the p95; the spread across windows names it.
        ops = []
        for second, ms in enumerate((1.0, 10.0, 1.2)):
            ops += [op(second + i / 250, second + i / 250 + ms / 1e3)
                    for i in range(250)]
        phase = {"ops": ops, "elapsed_s": 3.0, "failed": 0}
        values, samples, spread, windows = metrics.end_to_end(self.RECORD,
                                                              phase)
        self.assertEqual(windows, metrics.MAX_WINDOWS - 1)
        self.assertAlmostEqual(values["latency_p50_ms"], 1.2)
        self.assertAlmostEqual(values["latency_p95_ms"], 10.0)
        self.assertAlmostEqual(values["ops_per_s"], 250)
        self.assertEqual(samples["latency_p95_ms"], (750, 37))
        self.assertGreater(spread["latency_p50_ms"], 1.0)


class LayerMetricsTest(unittest.TestCase):
    def test_morsel_skew_busy_and_overhead(self):
        ms = 1_000_000
        spans = [
            span(1, 0, "parallel.partitioned_execute", 0, 10 * ms),
            span(2, 1, "core.execute", 0, 4 * ms, thread=0),
            span(3, 1, "core.execute", 4 * ms, 6 * ms, thread=0),
            span(4, 1, "core.execute", 1 * ms, 5 * ms, thread=1),
        ]
        out = metrics.parallel_metrics(spans, workers=2)
        self.assertEqual(out["parallel.morsels_per_op"], 3)
        self.assertAlmostEqual(out["parallel.morsel_ms_p50"], 4.0)
        self.assertAlmostEqual(out["parallel.worker_busy_ratio"], 10 / 20)
        self.assertAlmostEqual(out["parallel.skew_max_over_mean"], 6 / 5)
        self.assertAlmostEqual(out["parallel.sched_overhead_ms"], 4.0)

    def test_server_non_exec_is_round_trip_minus_reported_exec(self):
        ops = [op(0, 0.003, exec_s=0.001), op(0, 0.005, exec_s=0.004),
               op(0, 0.050, cls=metrics.HEAVY, exec_s=0.040)]
        counters = {"server_cache_hits": 3, "server_cache_misses": 1,
                    "server_shed": 0, "server_errors": 0}
        idle = {"server_idle_non_exec_s": [0.0003, 0.0001, 0.0002]}
        out = metrics.server_metrics(ops, defaultdict(float, counters), idle)
        self.assertAlmostEqual(out["server.cheap_non_exec_ms_p50"], 1.0)
        self.assertAlmostEqual(out["server.cheap_non_exec_ms_p95"], 2.0)
        self.assertAlmostEqual(out["server.heavy_non_exec_ms_p50"], 10.0)
        self.assertAlmostEqual(out["server.heavy_exec_ms_p50"], 40.0)
        self.assertAlmostEqual(out["server.cache_hit_ratio"], 0.75)
        self.assertAlmostEqual(out["server.idle_non_exec_us_p50"], 200.0)


def run_bench(*args, cwd=REPO):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc.returncode, proc.stdout


class RunChecksTest(unittest.TestCase):
    """End to end through run.py and the built harness."""

    def result(self, *args):
        code, out = run_bench(*args)
        self.assertEqual(code, 0, out)
        return json.loads(out.strip().splitlines()[-1])

    def test_wrong_reference_fails_every_workload(self):
        for workload in ("cyclic-lftj", "acyclic-ms", "serve-mixed",
                         "incremental-updates"):
            with self.subTest(workload=workload):
                result = self.result("--workload", workload, "--seed", "3",
                                     "--seconds", "1", "--trace", "0",
                                     "--corrupt-reference")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)

    def test_true_references_pass_and_traced_run_reports_every_layer(self):
        result = self.result("--workload", "acyclic-ms", "--seed", "3",
                             "--seconds", "1", "--trace", "1")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(metrics.PER_LAYER_UNITS))
        self.assertGreater(
            result["metrics"]["parallel.morsels_per_op"]["value"], 0)

    def test_fails_without_printing_a_result_outside_the_repository(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(REPO / "BENCHMARK.json", tmp)
            code, out = run_bench("--workload", "cyclic-lftj", "--seed", "1",
                                  "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertNotIn('"correct"', out)


if __name__ == "__main__":
    unittest.main()
