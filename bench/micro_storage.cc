// Microbenchmarks (google-benchmark) for the storage and intersection
// primitives both join algorithms are built from: trie seeks, gap probes,
// unary leapfrog intersection, span intersection counting, CDS interval
// inserts, and the shared IndexCatalog. These are the constants behind
// every table in the paper.
//
// The deep-trie SeekGap, the leapfrog and the intersection-count
// benchmarks also run under each key tier (raw-only vs force-packed);
// the label names the tier policy that ran.
//
// After the registered benchmarks run, main() writes one
// machine-readable report, BENCH_governor.json: the memory-budget and
// disabled-failpoint overhead (see EmitGovernorReport). Run with
// --benchmark_filter='^$' to write only the report.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/atom_index.h"
#include "core/cds.h"
#include "core/cds_arena.h"
#include "core/engine.h"
#include "core/leapfrog.h"
#include "graph/generators.h"
#include "query/parser.h"
#include "storage/catalog.h"
#include "storage/intersect.h"
#include "storage/level_keys.h"
#include "storage/trie.h"
#include "tests/cds_reference.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace wcoj {
namespace {

// Random rows whose first column draws from [0, 4n); any further
// columns draw from [0, 4), so each first-column key heads a small
// subtree (and the relation's tries are eligible for packed tiers,
// which arity-1 tries never are).
Relation RandomRows(int64_t n, uint64_t seed, int arity = 1) {
  Rng rng(seed);
  Relation r(arity);
  Tuple t(arity);
  for (int64_t i = 0; i < n; ++i) {
    t[0] = static_cast<Value>(rng.NextBounded(n * 4));
    for (int c = 1; c < arity; ++c) {
      t[c] = static_cast<Value>(rng.NextBounded(4));
    }
    r.Add(t);
  }
  r.Build();
  return r;
}

// The tier axis: a benchmark registered with ArgsProduct({n, kTierArgs})
// reads its tier policy from arg 1, and the run is labelled with it.
const std::vector<int64_t> kTierArgs = {0, 1};  // raw-only, force-packed

TierPolicy TierArg(benchmark::State& state) {
  const TierPolicy tier =
      state.range(1) == 0 ? TierPolicy::kRawOnly : TierPolicy::kForcePacked;
  state.SetLabel(TierPolicyName(tier));
  return tier;
}

void BM_TrieSeek(benchmark::State& state) {
  const Relation rel = RandomRows(state.range(0), 1);
  const TrieIndex index(rel);
  Rng rng(2);
  for (auto _ : state) {
    TrieIterator it(&index);
    it.Open();
    for (int i = 0; i < 64; ++i) {
      it.Seek(static_cast<Value>(rng.NextBounded(state.range(0) * 4)));
      if (it.AtEnd()) break;
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_TrieSeek)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_SeekGap(benchmark::State& state) {
  Graph g = ErdosRenyi(state.range(0), state.range(0) * 8, 3);
  const Relation edge = g.EdgeRelationSymmetric();
  const TrieIndex index(edge);
  Rng rng(4);
  Tuple t(2);
  for (auto _ : state) {
    t[0] = static_cast<Value>(rng.NextBounded(state.range(0)));
    t[1] = static_cast<Value>(rng.NextBounded(state.range(0)));
    benchmark::DoNotOptimize(index.SeekGap(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SeekGap)->Arg(1 << 10)->Arg(1 << 14);

// Three-way leapfrog intersection at depth 0 — LFTJ's per-variable
// primitive — over two dense sides and one 8x sparser one, so the
// intersection mixes catch-up seeks with match advances. Items are
// leapfrog steps: every Seek plus every Next.
void BM_LeapfrogIntersect(benchmark::State& state) {
  const TierPolicy tier = TierArg(state);
  const Relation a = RandomRows(state.range(0), 5, 2);
  const Relation b = RandomRows(state.range(0), 6, 2);
  const Relation c = RandomRows(state.range(0) / 8, 7, 2);
  const TrieIndex ia(a, {}, tier), ib(b, {}, tier), ic(c, {}, tier);
  uint64_t steps = 0;
  for (auto _ : state) {
    TrieIterator ta(&ia), tb(&ib), tc(&ic);
    ta.Open();
    tb.Open();
    tc.Open();
    LeapfrogJoin join({&ta, &tb, &tc});
    join.Init();
    uint64_t hits = 0;
    while (!join.AtEnd()) {
      ++hits;
      join.Next();
    }
    steps += hits + ta.seeks() + tb.seeks() + tc.seeks();
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_LeapfrogIntersect)
    ->ArgsProduct({{1 << 10, 1 << 14}, kTierArgs});

// LFTJ's count-only last variable: one SpanIntersector call over two
// sibling groups of one trie level (the self-join shape, so packed
// tiers merge in native lanes). The short group draws 1024 keys and the
// long one range(0) times as many; after duplicates collapse, ratios 1
// and 4 merge and 64 gallops.
// Items are span keys, so rows compare across ratios as throughput.
void BM_IntersectCount(benchmark::State& state) {
  const TierPolicy tier = TierArg(state);
  const int64_t short_len = 1 << 10;
  const int64_t long_len = short_len * state.range(0);
  Rng rng(9);
  Relation rel(2);
  for (int64_t i = 0; i < long_len; ++i) {
    rel.Add({0, static_cast<Value>(rng.NextBounded(long_len * 4))});
  }
  for (int64_t i = 0; i < short_len; ++i) {
    rel.Add({1, static_cast<Value>(rng.NextBounded(long_len * 4))});
  }
  rel.Build();
  const TrieIndex index(rel, {}, tier);
  const KeySpan groups[] = {
      {&index.Keys(1), index.ChildBegin(0, 0), index.ChildEnd(0, 0)},
      {&index.Keys(1), index.ChildBegin(0, 1), index.ChildEnd(0, 1)}};
  SpanIntersector intersector;
  IntersectWork work;
  for (auto _ : state) {
    KeySpan spans[] = {groups[0], groups[1]};
    benchmark::DoNotOptimize(
        intersector.Count(spans, kNegInf, kPosInf, &work));
  }
  state.SetItemsProcessed(static_cast<int64_t>(
      state.iterations() * (groups[0].size() + groups[1].size())));
}
BENCHMARK(BM_IntersectCount)
    ->ArgsProduct({{1, 4, 64}, kTierArgs});

void BM_CdsInsertAndNext(benchmark::State& state) {
  Rng rng(8);
  CdsArena arena;
  for (auto _ : state) {
    arena.Reset();  // warm-arena steady state: the regime engines run in
    CdsNode* node = arena.node(arena.AllocNode(kCdsNull, kWildcard, 1));
    for (int i = 0; i < state.range(0); ++i) {
      const Value l = static_cast<Value>(rng.NextBounded(1 << 20));
      node->InsertInterval(&arena, l,
                           l + 1 + static_cast<Value>(rng.NextBounded(64)));
    }
    benchmark::DoNotOptimize(node->Next(1 << 19));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CdsInsertAndNext)->Arg(256)->Arg(4096);

// Full Cds on deep skewed constraint streams: the pattern walk creates
// and merges child branches, so inserts exercise node allocation,
// subtree deletion, and pointList growth together.
void BM_CdsConstraintStream(benchmark::State& state) {
  const int num_vars = 4;
  CdsArena arena;
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(17);
    state.ResumeTiming();
    Cds cds(num_vars, Cds::Options{}, &arena);
    for (int i = 0; i < state.range(0); ++i) {
      Constraint c;
      const int depth = static_cast<int>(rng.NextBounded(num_vars));
      c.pattern.assign(depth, kWildcard);
      for (int d = 0; d < depth; ++d) {
        if (rng.NextBounded(2) == 0) {
          c.pattern[d] = static_cast<Value>(
              rng.NextBounded(rng.NextBounded(64) + 1));  // skewed
        }
      }
      const Value l = static_cast<Value>(rng.NextBounded(1 << 12));
      c.lo = l;
      c.hi = l + 1 + static_cast<Value>(rng.NextBounded(256));
      cds.InsertConstraint(c);
    }
    benchmark::DoNotOptimize(cds.constraints_inserted());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CdsConstraintStream)->Arg(1024)->Arg(8192);

// The engine-shaped insert / ComputeFreeTuple / drain loop (the shared
// DriveCdsWorkload harness) on a warm arena + warm Cds shell.
void BM_CdsComputeFreeTuple(benchmark::State& state) {
  const bool chain = state.range(0) != 0;
  CdsArena arena;
  Cds cds(4, Cds::Options{}, &arena);
  uint64_t free_tuples = 0;
  for (auto _ : state) {
    cds.Reset();
    const CdsWorkloadResult r =
        DriveCdsWorkload(&cds, 4, 29, /*max_free_tuples=*/512, chain, 64,
                         /*collect_frontiers=*/false);
    free_tuples += r.num_frontiers;
    benchmark::DoNotOptimize(r.inserted);
  }
  state.SetItemsProcessed(static_cast<int64_t>(free_tuples));
}
BENCHMARK(BM_CdsComputeFreeTuple)->Arg(0)->Arg(1);

void BM_CatalogGetOrBuildHit(benchmark::State& state) {
  Graph g = ErdosRenyi(state.range(0), state.range(0) * 8, 3);
  const Relation edge = g.EdgeRelationSymmetric();
  IndexCatalog catalog;
  catalog.GetOrBuild(edge, {0, 1});  // resident before the timed loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(catalog.GetOrBuild(edge, {0, 1}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CatalogGetOrBuildHit)->Arg(1 << 10)->Arg(1 << 14);

void BM_CatalogColdBuild(benchmark::State& state) {
  Graph g = ErdosRenyi(state.range(0), state.range(0) * 8, 3);
  const Relation edge = g.EdgeRelationSymmetric();
  for (auto _ : state) {
    IndexCatalog catalog;
    benchmark::DoNotOptimize(catalog.GetOrBuild(edge, {1, 0}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CatalogColdBuild)->Arg(1 << 10)->Arg(1 << 14);

// --- Deep-trie workloads over skewed key runs (arity 3-5) ---

// Per-level key domains for the deep-trie workloads: shallow levels
// draw from tiny domains, so each shallow key spans a long duplicate
// run in row space (the degree-skew shape of real edge relations),
// while the leaf level draws from a wide domain, giving each group a
// large sorted adjacency-style key set.
std::vector<Value> DeepDomains(int arity) {
  std::vector<Value> domain(arity, 64);
  domain[0] = 4;
  domain[arity - 1] = 1 << 17;
  return domain;
}

Relation DeepSkewed(int arity, size_t rows, uint64_t seed) {
  Rng rng(seed);
  const std::vector<Value> domain = DeepDomains(arity);
  Relation r(arity);
  r.Reserve(rows);
  Tuple t(arity);
  for (size_t i = 0; i < rows; ++i) {
    for (int c = 0; c < arity; ++c) {
      t[c] = static_cast<Value>(rng.NextBounded(domain[c]));
    }
    r.Add(t);
  }
  r.Build();
  return r;
}

// Probe mix: half near-misses of resident tuples at the deepest level,
// half random tuples over the per-level domains.
void BM_DeepTrieSeekGap(benchmark::State& state) {
  const int arity = static_cast<int>(state.range(0));
  const TierPolicy tier = TierArg(state);
  const Relation rel = DeepSkewed(arity, 1 << 15, 11);
  const std::vector<Value> domain = DeepDomains(arity);
  const TrieIndex index(rel, {}, tier);
  Rng rng(12);
  Tuple t(arity);
  for (auto _ : state) {
    if (rng.NextBounded(2) == 0) {
      t = rel.RowTuple(rng.NextBounded(rel.size()));
      t[arity - 1] += 1;  // near-miss at the deepest level
    } else {
      for (int c = 0; c < arity; ++c) {
        t[c] = static_cast<Value>(rng.NextBounded(domain[c]));
      }
    }
    benchmark::DoNotOptimize(index.SeekGap(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeepTrieSeekGap)->ArgsProduct({{3, 4, 5}, kTierArgs});

// Full depth-first sweep; returns the number of leaves visited.
uint64_t SweepTrie(TrieIterator* it, int arity, int depth = 0) {
  uint64_t rows = 0;
  it->Open();
  while (!it->AtEnd()) {
    if (depth + 1 == arity) {
      ++rows;
    } else {
      rows += SweepTrie(it, arity, depth + 1);
    }
    it->Next();
  }
  it->Up();
  return rows;
}

void BM_DeepTrieSweep(benchmark::State& state) {
  const int arity = static_cast<int>(state.range(0));
  const Relation rel = DeepSkewed(arity, 1 << 15, 13);
  const TrieIndex index(rel);
  for (auto _ : state) {
    TrieIterator it(&index);
    benchmark::DoNotOptimize(SweepTrie(&it, arity));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 15));
}
BENCHMARK(BM_DeepTrieSweep)->Arg(3)->Arg(4)->Arg(5);

// --- Resource governor overhead (BENCH_governor.json) ---

double MedianSeconds(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// The no-query-can-kill-the-process layer must be free when idle: a
// per-query MemoryBudget on the warm path (every CDS slab, index build,
// and intermediate charges one relaxed atomic) is allowed <= 2%
// overhead against the ungoverned run, and the disabled failpoint gate
// (one relaxed load) must cost on the order of a nanosecond. Both warm
// engines are measured on the triangle workload over a resident
// catalog and warm scratch, with counts cross-checked so the report
// proves the governed run computes the same answer.
void EmitGovernorReport(const char* path) {
  constexpr int kReps = 7;
  Graph g = Rmat(/*scale=*/12, /*num_edges=*/120000, 0.57, 0.19, 0.19,
                 /*seed=*/9);
  Database db;
  db.Put("edge_lt", g.EdgeRelationOriented());
  const BoundQuery bq =
      Bind(MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)"), db,
           {"a", "b", "c"});

  struct GovernorCell {
    std::string engine;
    double ungoverned_seconds = 0.0, governed_seconds = 0.0;
    uint64_t count = 0, peak_budget_bytes = 0;
    bool counts_equal = false;
  };
  std::vector<GovernorCell> cells;
  for (const char* engine_name : {"lftj", "ms"}) {
    auto engine = CreateEngine(engine_name);
    GovernorCell cell;
    cell.engine = engine_name;
    ExecScratch scratch;
    ExecOptions base;
    base.scratch = &scratch;
    WarmQueryIndexes(bq);
    (void)engine->Execute(bq, base);  // warm scratch before timing
    std::vector<double> plain, governed;
    uint64_t plain_count = 0, governed_count = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      {
        const ExecResult r = RunTimed(*engine, bq, base);
        plain.push_back(r.seconds);
        plain_count = r.count;
      }
      {
        // Fresh budget per run: exceeded() is sticky by design. A limit
        // far above the workload's peak keeps the run on the charge
        // path without ever refusing.
        MemoryBudget budget(uint64_t{4} * 1024 * 1024 * 1024);
        ExecOptions opts = base;
        opts.budget = &budget;
        const ExecResult r = RunTimed(*engine, bq, opts);
        governed.push_back(r.seconds);
        governed_count = r.count;
        cell.peak_budget_bytes = r.stats.peak_budget_bytes;
      }
    }
    cell.ungoverned_seconds = MedianSeconds(plain);
    cell.governed_seconds = MedianSeconds(governed);
    cell.count = governed_count;
    cell.counts_equal = plain_count == governed_count;
    cells.push_back(cell);
  }

  // Disabled failpoint gate: one relaxed atomic load per evaluation.
  static FailPoint& bench_fp = FailPoints::Register("bench.governor.gate");
  FailPoints::DisarmAll();
  constexpr uint64_t kEvals = 100 * 1000 * 1000;
  uint64_t fired = 0;
  Stopwatch gate_watch;
  for (uint64_t i = 0; i < kEvals; ++i) {
    fired += WCOJ_FAILPOINT(bench_fp) ? 1 : 0;
  }
  benchmark::DoNotOptimize(fired);
  const double gate_ns = gate_watch.ElapsedSeconds() * 1e9 / kEvals;

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"governor\",\n");
  std::fprintf(f, "  \"reps\": %d,\n  \"results\": [\n", kReps);
  for (size_t i = 0; i < cells.size(); ++i) {
    const GovernorCell& c = cells[i];
    const double overhead_pct =
        c.ungoverned_seconds > 0
            ? (c.governed_seconds / c.ungoverned_seconds - 1.0) * 100.0
            : 0.0;
    std::fprintf(
        f,
        "    {\"engine\": \"%s\", \"workload\": \"3-clique-rmat-warm\", "
        "\"ungoverned_seconds\": %.6f, \"governed_seconds\": %.6f, "
        "\"overhead_pct\": %.2f, \"overhead_ok\": %s, "
        "\"count\": %llu, \"counts_equal\": %s, "
        "\"peak_budget_bytes\": %llu}%s\n",
        c.engine.c_str(), c.ungoverned_seconds, c.governed_seconds,
        overhead_pct, overhead_pct <= 2.0 ? "true" : "false",
        static_cast<unsigned long long>(c.count),
        c.counts_equal ? "true" : "false",
        static_cast<unsigned long long>(c.peak_budget_bytes),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"failpoint_gate\": {\"evaluations\": %llu, "
               "\"disabled_ns_per_eval\": %.3f, \"fired\": %llu}\n",
               static_cast<unsigned long long>(kEvals), gate_ns,
               static_cast<unsigned long long>(fired));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace
}  // namespace wcoj

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  wcoj::EmitGovernorReport("BENCH_governor.json");
  return 0;
}
