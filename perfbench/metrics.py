"""Turns a harness record into the benchmark's metrics.

The harness (harness/main.cc) only measures and checks answers; every
statistic is computed here, in plain Python, so the tests in tests/ can
exercise it on hand-made inputs:

- percentiles by nearest rank, each with the number of samples beyond it;
- self time of a span: its duration minus the part of it that its
  children cover;
- the per-layer metrics of a traced run, from spans and work counters;
- the end-to-end metrics over a run's whole timed phase, and as the
  in-run steadiness report, their spread across time windows of it.
"""

import math
import statistics
from collections import defaultdict

# Op record fields, as harness/main.cc writes them.
START, END, EXEC, CLS = range(4)
MAIN, HEAVY = 0, 1

# For the in-run steadiness report, the timed phase is cut into
# equal-time windows of about this many main-class ops (at most
# MAX_WINDOWS), and each op-derived metric's spread across them printed.
# The metrics themselves are taken over the whole phase, so the p95 of a
# run has several times MIN_BEYOND samples beyond it.
WINDOW_OPS = 100
MAX_WINDOWS = 8
# The highest percentile reported is the one with at least this many
# samples beyond it at the op counts the workloads afford.
MIN_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "heavy_p50_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "graph.generate_ms": "ms",
    "storage.seeks_per_op": "count",
    "storage.ns_per_seek": "ns",
    "storage.index_build_ms": "ms",
    "storage.catalog_hit_ratio": "ratio",
    "storage.persist_save_ms": "ms",
    "storage.persist_open_ms": "ms",
    "storage.persist_installed": "count",
    "query.prepare_us": "us",
    "core.output_per_seek": "ratio",
    "core.cds_inserts_per_op": "count",
    "core.free_tuples_per_op": "count",
    "core.output_per_free_tuple": "ratio",
    "core.gap_cache_hits_per_op": "count",
    "core.cds_nodes_allocated_per_op": "count",
    "core.incremental_insert_ms": "ms",
    "core.incremental_delete_ms": "ms",
    "core.incremental_delta_per_op": "count",
    "parallel.morsels_per_op": "count",
    "parallel.morsel_ms_p50": "ms",
    "parallel.worker_busy_ratio": "ratio",
    "parallel.skew_max_over_mean": "ratio",
    "parallel.sched_overhead_ms": "ms",
    "parallel.worker_on_cpu_ratio": "ratio",
    "server.cheap_non_exec_ms_p50": "ms",
    "server.cheap_non_exec_ms_p95": "ms",
    "server.heavy_non_exec_ms_p50": "ms",
    "server.heavy_non_exec_ms_p95": "ms",
    "server.idle_non_exec_us_p50": "us",
    "server.cache_hit_ratio": "ratio",
    "server.heavy_exec_ms_p50": "ms",
    "server.shed": "count",
    "server.errors": "count",
    "bench.self_ms_per_op": "ms",
    "core.self_ms_per_op": "ms",
    "parallel.self_ms_per_op": "ms",
    "server.self_ms_per_op": "ms",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of `values` and the number of
    samples strictly beyond its rank. Returns (0.0, 0) when empty."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def relative_spread(values):
    """Interquartile range over median, with the quartiles Python's
    statistics.quantiles(n=4) gives; 0 when it cannot be formed."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def covered_ns(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Maps span id -> self time in ns: the span's duration minus the part
    of it covered by its children (children running in parallel on other
    threads count once). Spans are [id, parent, op, thread, name, start,
    end] lists."""
    children = defaultdict(list)
    for s in spans:
        if s[1]:
            children[s[1]].append((s[5], s[6]))
    return {s[0]: (s[6] - s[5]) - covered_ns(s[5], s[6], children[s[0]])
            for s in spans}


def latencies(ops, cls=None):
    return [o[END] - o[START] for o in ops if cls is None or o[CLS] == cls]


def main_class(ops):
    """Ops of the class the latency percentiles cover: the cheap class
    where a workload has two, else every op."""
    has_heavy = any(o[CLS] == HEAVY for o in ops)
    has_main = any(o[CLS] == MAIN for o in ops)
    return MAIN if has_heavy and has_main else None


def split_windows(phase):
    """The phase's ops cut into equal-time windows by completion time,
    about WINDOW_OPS main-class ops each, and the window length in s."""
    ops = phase["ops"]
    n_main = len(latencies(ops, main_class(ops)))
    count = max(1, min(MAX_WINDOWS, n_main // WINDOW_OPS))
    length = phase["elapsed_s"] / count
    windows = [[] for _ in range(count)]
    for o in ops:
        windows[min(count - 1, int(o[END] / length))].append(o)
    return windows, length


def op_metrics(ops, length, cls):
    """Op-derived end-to-end metrics of the ops of a span of `length`
    seconds, with (samples, samples beyond) for each percentile; `cls` is
    the phase's main_class."""
    main = latencies(ops, cls)
    heavy = latencies(ops, HEAVY) if cls is not None else main
    p50, p50_beyond = percentile(main, 0.50)
    p95, p95_beyond = percentile(main, 0.95)
    h50, h50_beyond = percentile(heavy, 0.50)
    values = {
        "ops_per_s": len(ops) / length,
        "latency_p50_ms": p50 * 1e3,
        "latency_p95_ms": p95 * 1e3,
        "heavy_p50_ms": h50 * 1e3,
    }
    samples = {
        "latency_p50_ms": (len(main), p50_beyond),
        "latency_p95_ms": (len(main), p95_beyond),
        "heavy_p50_ms": (len(heavy), h50_beyond),
    }
    return values, samples


def end_to_end(record, phase):
    """Every end-to-end metric of one timed phase, op-derived ones over
    the whole phase; alongside come, per percentile, its sample count and
    samples beyond, and per metric the spread (IQR / median) across the
    phase's time windows."""
    if not phase["ops"]:
        raise ValueError("the timed phase completed no op")
    cls = main_class(phase["ops"])
    values, samples = op_metrics(phase["ops"], phase["elapsed_s"], cls)
    windows, length = split_windows(phase)
    per_window = [op_metrics(w, length, cls)[0] for w in windows if w]
    spread = {name: relative_spread([v[name] for v in per_window])
              for name in values}
    attempted = len(phase["ops"])
    values["setup_s"] = statistics.median(record["setup_s"])
    spread["setup_s"] = relative_spread(record["setup_s"])
    values["ok_ratio"] = ((attempted - phase["failed"]) / attempted
                          if attempted else 0.0)
    spread["ok_ratio"] = 0.0
    values["peak_rss_mb"] = record["peak_rss_mb"]
    spread["peak_rss_mb"] = 0.0  # one reading per run
    return ({name: values[name] for name in END_TO_END_UNITS}, samples,
            spread, len(windows))


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(record):
    """Every per-layer metric of a traced record. Metrics of a layer the
    workload bypasses read 0."""
    untraced, traced = record["phases"][0], record["phases"][-1]
    ops = traced["ops"]
    n_ops = len(ops)
    counters = defaultdict(float, traced["counters"])
    spans = record["spans"]
    by_id = {s[0]: s for s in spans}
    timed = [s for s in spans if s[2] != 0]

    def dur_ms(s):
        return (s[6] - s[5]) * 1e-6

    # Set-up spans, attributed to the bench.setup repetition they nest in.
    def setup_rep(s):
        while s[1]:
            s = by_id[s[1]]
        return s[0] if s[4] == "bench.setup" else None

    per_rep = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s[2] == 0 and s[4] != "bench.setup":
            rep = setup_rep(s)
            if rep is not None:
                per_rep[s[4]][rep] += dur_ms(s)

    def setup_ms(*names):
        reps = defaultdict(float)
        for name in names:
            for rep, ms in per_rep[name].items():
                reps[rep] += ms
        return _median(list(reps.values()))

    def durations_ms(name):
        return [dur_ms(s) for s in timed if s[4] == name]

    out = {
        "graph.generate_ms": setup_ms("graph.generate", "graph.relations"),
        "storage.index_build_ms": setup_ms("storage.index_build"),
        "storage.persist_save_ms": setup_ms("storage.persist_save"),
        "storage.persist_open_ms": setup_ms("storage.persist_open"),
        "storage.persist_installed":
            record["setup_counters"].get("persist_installed", 0.0),
        "query.prepare_us": _median(
            [(s[6] - s[5]) * 1e-3 for s in spans
             if s[4] == "query.prepare"]),
    }

    seeks = counters["seeks"]
    exec_ms = sum(durations_ms("core.execute"))
    out["storage.seeks_per_op"] = _ratio(seeks, n_ops)
    out["storage.ns_per_seek"] = _ratio(exec_ms * 1e6, seeks)
    out["storage.catalog_hit_ratio"] = _ratio(
        counters["catalog_hits"],
        counters["catalog_hits"] + counters["catalog_builds"])

    out["core.output_per_seek"] = _ratio(counters["output"], seeks)
    out["core.cds_inserts_per_op"] = _ratio(counters["cds_inserts"], n_ops)
    out["core.free_tuples_per_op"] = _ratio(counters["free_tuples"], n_ops)
    out["core.output_per_free_tuple"] = _ratio(counters["output"],
                                               counters["free_tuples"])
    out["core.gap_cache_hits_per_op"] = _ratio(counters["gap_cache_hits"],
                                               n_ops)
    out["core.cds_nodes_allocated_per_op"] = _ratio(
        counters["cds_nodes_allocated"], n_ops)
    out["core.incremental_insert_ms"] = _median(
        durations_ms("core.incremental_insert"))
    out["core.incremental_delete_ms"] = _median(
        durations_ms("core.incremental_delete"))
    out["core.incremental_delta_per_op"] = _ratio(
        counters["incremental_delta_abs"], n_ops)

    out.update(parallel_metrics(timed, int(counters["workers"]) or 1))
    # Share of the morsels' wall time their worker threads spent on a
    # CPU; below 1 when the host or the scheduler kept a worker waiting.
    out["parallel.worker_on_cpu_ratio"] = _ratio(counters["morsel_cpu_ns"],
                                                 counters["morsel_wall_ns"])
    out.update(server_metrics(ops, counters, traced.get("samples", {})))

    selfs = self_times(timed)
    per_layer_self = defaultdict(float)
    for s in timed:
        per_layer_self[s[4].split(".")[0]] += selfs[s[0]] * 1e-6
    for layer in ("bench", "core", "parallel", "server"):
        out[layer + ".self_ms_per_op"] = _ratio(per_layer_self[layer], n_ops)

    untraced_rate = _ratio(len(untraced["ops"]), untraced["elapsed_s"])
    traced_rate = _ratio(n_ops, traced["elapsed_s"])
    out["trace.untraced_ops_per_s"] = untraced_rate
    out["trace.traced_ops_per_s"] = traced_rate
    out["trace.overhead_pct"] = (
        (1 - traced_rate / untraced_rate) * 100 if untraced_rate else 0.0)
    return out


def parallel_metrics(timed, workers):
    """Morsel metrics: core.execute spans whose parent is a
    parallel.partitioned_execute span, one per morsel, tagged with the
    worker that ran it."""
    runs = {s[0]: s for s in timed if s[4] == "parallel.partitioned_execute"}
    morsels = defaultdict(list)
    for s in timed:
        if s[4] == "core.execute" and s[1] in runs:
            morsels[s[1]].append(s)
    if not runs:
        return {"parallel.morsels_per_op": 0.0,
                "parallel.morsel_ms_p50": 0.0,
                "parallel.worker_busy_ratio": 0.0,
                "parallel.skew_max_over_mean": 0.0,
                "parallel.sched_overhead_ms": 0.0,
                "parallel.worker_on_cpu_ratio": 0.0}
    busy_total = wall_total = 0.0
    skews, overheads, morsel_ms = [], [], []
    for run_id, run in runs.items():
        wall = (run[6] - run[5]) * 1e-6
        busy = [0.0] * workers
        for m in morsels[run_id]:
            ms = (m[6] - m[5]) * 1e-6
            busy[min(m[3], workers - 1)] += ms
            morsel_ms.append(ms)
        busy_total += sum(busy)
        wall_total += wall * workers
        mean = sum(busy) / workers
        skews.append(_ratio(max(busy), mean))
        overheads.append(wall - max(busy))
    return {
        "parallel.morsels_per_op": _ratio(len(morsel_ms), len(runs)),
        "parallel.morsel_ms_p50": _median(morsel_ms),
        "parallel.worker_busy_ratio": _ratio(busy_total, wall_total),
        "parallel.skew_max_over_mean": _median(skews),
        "parallel.sched_overhead_ms": _median(overheads),
    }


def server_metrics(ops, counters, samples):
    """Server-side split of each served op: non-exec time is the client
    round trip minus the engine seconds the reply reports, i.e. protocol
    plus admission wait. The idle probe (`samples`) gives the same split
    for cheap requests sent while no heavy request runs: the server's own
    path without the wait."""
    out = {}
    served = [o for o in ops if o[EXEC] >= 0]
    for name, cls in (("cheap", MAIN), ("heavy", HEAVY)):
        non_exec = [(o[END] - o[START] - o[EXEC]) * 1e3
                    for o in served if o[CLS] == cls]
        out["server.%s_non_exec_ms_p50" % name] = percentile(non_exec, 0.5)[0]
        out["server.%s_non_exec_ms_p95" % name] = percentile(non_exec,
                                                             0.95)[0]
    out["server.heavy_exec_ms_p50"] = percentile(
        [o[EXEC] * 1e3 for o in served if o[CLS] == HEAVY], 0.5)[0]
    out["server.cache_hit_ratio"] = _ratio(
        counters["server_cache_hits"],
        counters["server_cache_hits"] + counters["server_cache_misses"])
    out["server.idle_non_exec_us_p50"] = percentile(
        [s * 1e6 for s in samples.get("server_idle_non_exec_s", [])],
        0.5)[0]
    out["server.shed"] = counters["server_shed"]
    out["server.errors"] = counters["server_errors"]
    return out


def op_mix(ops):
    """Op count and share of each class, for the run metadata."""
    counts = defaultdict(int)
    for o in ops:
        counts["heavy" if o[CLS] == HEAVY else "main"] += 1
    total = sum(counts.values()) or 1
    return {cls: {"ops": n, "share": n / total} for cls, n in counts.items()}
