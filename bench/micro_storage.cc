// Microbenchmarks (google-benchmark) for the storage and intersection
// primitives both join algorithms are built from: trie seeks, gap probes,
// unary leapfrog intersection, CDS interval inserts, and the shared
// IndexCatalog. These are the constants behind every table in the paper.
//
// After the registered benchmarks run, main() writes four
// machine-readable reports: BENCH_trie_layout.json (CSR layout vs the
// pre-change row-major layout on deep skewed tries; see
// EmitTrieLayoutReport), BENCH_index_catalog.json (cold-build vs
// warm-catalog end-to-end query timings; see EmitCatalogReport),
// BENCH_cds_arena.json (arena-backed CDS vs the pre-change pointer
// implementation on insert/merge and ComputeFreeTuple-heavy workloads;
// see EmitCdsArenaReport), BENCH_morsel_sched.json (morsel-driven
// work-stealing scheduling on skewed Rmat cells, with and without the
// cross-morsel CDS retention; see EmitMorselSchedReport), and
// BENCH_persist.json (cold index
// build vs mmap open of the persistent catalog, per tier policy, plus
// the end-to-end warm-start query; see EmitPersistReport).

#include <benchmark/benchmark.h>
#include <sys/stat.h>

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
#include "parallel/partitioned_run.h"
#include "parallel/worker_pool.h"
#include "query/parser.h"
#include "storage/catalog.h"
#include "storage/level_keys.h"
#include "util/thread_annotations.h"
#include "storage/persist.h"
#include "storage/search_kernels.h"
#include "storage/trie.h"
#include "tests/cds_reference.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace wcoj {
namespace {

Relation RandomUnary(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Relation r(1);
  for (int64_t i = 0; i < n; ++i) {
    r.Add({static_cast<Value>(rng.NextBounded(n * 4))});
  }
  r.Build();
  return r;
}

void BM_TrieSeek(benchmark::State& state) {
  const Relation rel = RandomUnary(state.range(0), 1);
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

void BM_LeapfrogIntersect(benchmark::State& state) {
  const Relation a = RandomUnary(state.range(0), 5);
  const Relation b = RandomUnary(state.range(0), 6);
  const Relation c = RandomUnary(state.range(0), 7);
  const TrieIndex ia(a), ib(b), ic(c);
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
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_LeapfrogIntersect)->Arg(1 << 10)->Arg(1 << 14);

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

double MedianSeconds(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// --- Deep-trie workloads over skewed key runs (arity 3-5) ---

// Per-level key domains for the deep-trie workloads: shallow levels
// draw from tiny domains, so each shallow key spans a long duplicate
// run in row space (the degree-skew shape of real edge relations),
// while the leaf level draws from a wide domain, giving each group a
// large sorted adjacency-style key set. A row-major layout gallops
// through the runs with stride `arity`; the CSR layout sees one packed
// distinct key per node.
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

void BM_DeepTrieSeekGap(benchmark::State& state) {
  const int arity = static_cast<int>(state.range(0));
  const Relation rel = DeepSkewed(arity, 1 << 15, 11);
  const std::vector<Value> domain = DeepDomains(arity);
  const TrieIndex index(rel);
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
BENCHMARK(BM_DeepTrieSeekGap)->Arg(3)->Arg(4)->Arg(5);

// Full depth-first sweep; returns the number of leaves visited.
template <class It>
uint64_t SweepTrie(It* it, int arity, int depth = 0) {
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

// --- CSR vs pre-change row-major layout (BENCH_trie_layout.json) ---

// Faithful port of the layout TrieIndex used before the CSR change: a
// row-major permuted Relation copy, seeks galloping over rows with
// stride `arity`, iterator runs delimited by UpperBound (FixRun). Kept
// here only as the baseline the BENCH_trie_layout.json speedups are
// measured against.
class RowMajorTrie {
 public:
  RowMajorTrie(const Relation& rel, std::vector<int> perm = {})
      : data_(rel.arity()) {
    if (perm.empty()) {
      data_ = rel;
    } else {
      data_ = rel.Permuted(perm);
    }
  }

  int arity() const { return data_.arity(); }
  size_t size() const { return data_.size(); }
  const Relation& data() const { return data_; }

  size_t LowerBound(size_t lo, size_t hi, int col, Value v) const {
    return Gallop(lo, hi, col, v, /*upper=*/false);
  }
  size_t UpperBound(size_t lo, size_t hi, int col, Value v) const {
    return Gallop(lo, hi, col, v, /*upper=*/true);
  }

  TrieIndex::GapProbe SeekGap(const Tuple& t) const {
    TrieIndex::GapProbe probe;
    size_t lo = 0, hi = data_.size();
    for (int d = 0; d < arity(); ++d) {
      const size_t run_lo = LowerBound(lo, hi, d, t[d]);
      const size_t run_hi = UpperBound(run_lo, hi, d, t[d]);
      if (run_lo == run_hi) {
        probe.found = false;
        probe.fail_pos = d;
        probe.glb = run_lo > lo ? data_.At(run_lo - 1, d) : kNegInf;
        probe.lub = run_lo < hi ? data_.At(run_lo, d) : kPosInf;
        return probe;
      }
      lo = run_lo;
      hi = run_hi;
    }
    probe.found = true;
    probe.fail_pos = arity();
    return probe;
  }

 private:
  size_t Gallop(size_t lo, size_t hi, int col, Value v, bool upper) const {
    auto before = [&](size_t row) {
      const Value x = data_.At(row, col);
      return upper ? x <= v : x < v;
    };
    size_t step = 1;
    size_t b = lo;
    while (b < hi && before(b)) {
      b = lo + step;
      step <<= 1;
    }
    b = std::min(b, hi);
    size_t a = lo;
    while (a < b) {
      const size_t mid = a + (b - a) / 2;
      if (before(mid)) {
        a = mid + 1;
      } else {
        b = mid;
      }
    }
    return a;
  }

  Relation data_;
};

// The pre-change TrieIterator, ported against RowMajorTrie.
class RowMajorIterator {
 public:
  explicit RowMajorIterator(const RowMajorTrie* index)
      : index_(index), depth_(-1) {
    levels_.reserve(index->arity());
  }

  bool AtEnd() const {
    const Level& lv = levels_[depth_];
    return lv.pos >= lv.group_hi;
  }
  Value Key() const { return index_->data().At(levels_[depth_].pos, depth_); }

  void Open() {
    size_t lo, hi;
    if (depth_ < 0) {
      lo = 0;
      hi = index_->size();
    } else {
      lo = levels_[depth_].pos;
      hi = levels_[depth_].run_hi;
    }
    ++depth_;
    if (static_cast<size_t>(depth_) >= levels_.size()) levels_.emplace_back();
    Level& lv = levels_[depth_];
    lv.group_lo = lo;
    lv.group_hi = hi;
    lv.pos = lo;
    FixRun(&lv);
  }
  void Up() { --depth_; }
  void Next() {
    Level& lv = levels_[depth_];
    lv.pos = lv.run_hi;
    FixRun(&lv);
  }
  void Seek(Value v) {
    Level& lv = levels_[depth_];
    lv.pos = index_->LowerBound(lv.pos, lv.group_hi, depth_, v);
    FixRun(&lv);
  }

 private:
  struct Level {
    size_t group_lo, group_hi;
    size_t pos;
    size_t run_hi;
  };
  void FixRun(Level* lv) {
    if (lv->pos >= lv->group_hi) {
      lv->run_hi = lv->group_hi;
      return;
    }
    const Value v = index_->data().At(lv->pos, depth_);
    lv->run_hi = index_->UpperBound(lv->pos, lv->group_hi, depth_, v);
  }

  const RowMajorTrie* index_;
  int depth_;
  std::vector<Level> levels_;
};

// A relation shaped like one side of an LFTJ per-variable
// intersection: a wide level-0 key domain (the join variable) over a
// deep subtree per key, so every level-0 key spans a run of `rows /
// distinct` tuples in row space — a vertex-degree profile.
Relation IntersectSide(int arity, size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> domain(arity, 4);
  domain[0] = 4096;
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

// Three-way unary leapfrog intersection at depth 0 — LFTJ's
// per-variable primitive (leapfrog.cc's algorithm, templated so both
// layouts run the identical control flow). Counts every Seek/Next as
// one op into *ops; returns the number of matches.
template <class It>
uint64_t UnaryLeapfrogCount(It* i0, It* i1, It* i2, uint64_t* ops) {
  It* its[3] = {i0, i1, i2};
  for (It* it : its) {
    it->Open();
    if (it->AtEnd()) return 0;
  }
  std::sort(std::begin(its), std::end(its),
            [](It* x, It* y) { return x->Key() < y->Key(); });
  uint64_t matches = 0;
  int p = 0;
  Value max_key = its[2]->Key();
  for (;;) {
    It* it = its[p];
    if (it->Key() == max_key) {
      ++matches;
      it->Next();
    } else {
      it->Seek(max_key);
    }
    ++*ops;
    if (it->AtEnd()) break;
    max_key = it->Key();
    p = (p + 1) % 3;
  }
  return matches;
}

struct LayoutCell {
  std::string workload;
  int arity = 0;
  size_t rows = 0;
  double csr_seconds = 0.0, rowmajor_seconds = 0.0;
  double csr_items_per_sec = 0.0;
  const char* items = "rows";
};

// One row of the kernel/tier A-B axes: a baseline and a variant
// configuration timed on the identical workload, with the workload's
// result count captured on both sides so the report itself proves the
// configurations agree.
struct KernelTierCell {
  const char* axis;      // "simd_vs_scalar" | "packed_vs_raw"
  const char* workload;  // "seekgap" | "leapfrog_intersect"
  int arity = 0;
  std::string kernel;  // variant kernel name
  std::string tier;    // variant tier policy name
  double baseline_seconds = 0.0, variant_seconds = 0.0;
  uint64_t baseline_results = 0, variant_results = 0;
  size_t baseline_bytes = 0, variant_bytes = 0;  // level-key storage
};

size_t TotalKeyBytes(const TrieIndex& index) {
  size_t bytes = 0;
  for (int d = 0; d < index.arity(); ++d) bytes += index.LevelKeyBytes(d);
  return bytes;
}

// The two axes the SIMD/tier change is accountable to, on the same
// deep-skewed workloads as the layout cells:
//  - simd_vs_scalar: one raw-tier index, dispatched best kernel vs the
//    forced scalar kernel (isolates the block-search kernels);
//  - packed_vs_raw: best kernel on both sides, compressed-tier index vs
//    raw-tier index (isolates the key tier, and reports the bytes the
//    tier saves).
std::vector<KernelTierCell> BuildKernelTierCells() {
  constexpr int kReps = 5;
  constexpr size_t kRows = 1 << 16;
  constexpr size_t kProbes = 1 << 15;
  const KernelKind best = ForceSearchKernel(KernelKind::kAuto);
  std::vector<KernelTierCell> cells;
  for (int arity = 3; arity <= 5; ++arity) {
    const Relation rel = DeepSkewed(arity, kRows, 17 + arity);
    const Relation lf_a = IntersectSide(arity, kRows, 91 + arity);
    const Relation lf_b = IntersectSide(arity, kRows, 57 + arity);
    const Relation lf_c = IntersectSide(arity, kRows / 8, 33 + arity);
    const std::vector<Value> domain = DeepDomains(arity);
    std::vector<Tuple> probes;
    probes.reserve(kProbes);
    Rng rng(29 + arity);
    for (size_t i = 0; i < kProbes; ++i) {
      Tuple t(arity);
      if (rng.NextBounded(2) == 0) {
        t = rel.RowTuple(rng.NextBounded(rel.size()));
        t[arity - 1] += 1;
      } else {
        for (int c = 0; c < arity; ++c) {
          t[c] = static_cast<Value>(rng.NextBounded(domain[c]));
        }
      }
      probes.push_back(std::move(t));
    }

    const TrieIndex raw(rel, {}, TierPolicy::kRawOnly);
    const TrieIndex packed(rel, {}, TierPolicy::kForcePacked);
    const TrieIndex raw_a(lf_a, {}, TierPolicy::kRawOnly);
    const TrieIndex raw_b(lf_b, {}, TierPolicy::kRawOnly);
    const TrieIndex raw_c(lf_c, {}, TierPolicy::kRawOnly);
    const TrieIndex pk_a(lf_a, {}, TierPolicy::kForcePacked);
    const TrieIndex pk_b(lf_b, {}, TierPolicy::kForcePacked);
    const TrieIndex pk_c(lf_c, {}, TierPolicy::kForcePacked);

    auto time_seekgap = [&](const TrieIndex& index, uint64_t* results) {
      std::vector<double> xs;
      for (int rep = 0; rep < kReps; ++rep) {
        Stopwatch w;
        uint64_t found = 0;
        for (const Tuple& t : probes) found += index.SeekGap(t).found;
        xs.push_back(w.ElapsedSeconds());
        *results = found;
      }
      return MedianSeconds(std::move(xs));
    };
    auto time_leapfrog = [&](const TrieIndex& a, const TrieIndex& b,
                             const TrieIndex& c, uint64_t* results) {
      std::vector<double> xs;
      for (int rep = 0; rep < kReps; ++rep) {
        Stopwatch w;
        uint64_t ops = 0, n = 0;
        for (int pass = 0; pass < 16; ++pass) {
          TrieIterator x(&a), y(&b), z(&c);
          n += UnaryLeapfrogCount(&x, &y, &z, &ops);
        }
        xs.push_back(w.ElapsedSeconds());
        *results = n;
      }
      return MedianSeconds(std::move(xs));
    };

    // Axis 1: kernels, raw tier held fixed.
    {
      KernelTierCell cell{"simd_vs_scalar", "seekgap", arity,
                          KernelName(best), TierPolicyName(TierPolicy::kRawOnly)};
      ForceSearchKernel(KernelKind::kScalar);
      cell.baseline_seconds = time_seekgap(raw, &cell.baseline_results);
      ForceSearchKernel(best);
      cell.variant_seconds = time_seekgap(raw, &cell.variant_results);
      cell.baseline_bytes = cell.variant_bytes = TotalKeyBytes(raw);
      cells.push_back(cell);
    }
    {
      KernelTierCell cell{"simd_vs_scalar", "leapfrog_intersect", arity,
                          KernelName(best), TierPolicyName(TierPolicy::kRawOnly)};
      ForceSearchKernel(KernelKind::kScalar);
      cell.baseline_seconds =
          time_leapfrog(raw_a, raw_b, raw_c, &cell.baseline_results);
      ForceSearchKernel(best);
      cell.variant_seconds =
          time_leapfrog(raw_a, raw_b, raw_c, &cell.variant_results);
      cell.baseline_bytes = cell.variant_bytes =
          TotalKeyBytes(raw_a) + TotalKeyBytes(raw_b) + TotalKeyBytes(raw_c);
      cells.push_back(cell);
    }
    // Axis 2: tiers, best kernel held fixed.
    ForceSearchKernel(best);
    {
      KernelTierCell cell{"packed_vs_raw", "seekgap", arity, KernelName(best),
                          TierPolicyName(TierPolicy::kForcePacked)};
      cell.baseline_seconds = time_seekgap(raw, &cell.baseline_results);
      cell.variant_seconds = time_seekgap(packed, &cell.variant_results);
      cell.baseline_bytes = TotalKeyBytes(raw);
      cell.variant_bytes = TotalKeyBytes(packed);
      cells.push_back(cell);
    }
    {
      KernelTierCell cell{"packed_vs_raw", "leapfrog_intersect", arity,
                          KernelName(best),
                          TierPolicyName(TierPolicy::kForcePacked)};
      cell.baseline_seconds =
          time_leapfrog(raw_a, raw_b, raw_c, &cell.baseline_results);
      cell.variant_seconds =
          time_leapfrog(pk_a, pk_b, pk_c, &cell.variant_results);
      cell.baseline_bytes =
          TotalKeyBytes(raw_a) + TotalKeyBytes(raw_b) + TotalKeyBytes(raw_c);
      cell.variant_bytes =
          TotalKeyBytes(pk_a) + TotalKeyBytes(pk_b) + TotalKeyBytes(pk_c);
      cells.push_back(cell);
    }
  }
  ForceSearchKernel(KernelKind::kAuto);
  return cells;
}

// Medians over `reps` timed runs of both layouts on identical inputs.
void EmitTrieLayoutReport(const char* path) {
  constexpr int kReps = 5;
  constexpr size_t kRows = 1 << 16;
  constexpr size_t kProbes = 1 << 15;
  std::vector<LayoutCell> cells;
  for (int arity = 3; arity <= 5; ++arity) {
    const Relation rel = DeepSkewed(arity, kRows, 17 + arity);
    // Leapfrog sides: two dense tries and one 8x-sparser one (a small
    // adjacency set against large ones), so the intersection mixes
    // catch-up seeks with match advances, all over run-heavy keys.
    const Relation lf_a = IntersectSide(arity, kRows, 91 + arity);
    const Relation lf_b = IntersectSide(arity, kRows, 57 + arity);
    const Relation lf_c = IntersectSide(arity, kRows / 8, 33 + arity);
    // Reversed permutation: both builds must reorder columns, which is
    // where the old layout materializes its permuted Relation copy.
    std::vector<int> perm(arity);
    for (int i = 0; i < arity; ++i) perm[i] = arity - 1 - i;

    LayoutCell build{"build", arity, rel.size()};
    LayoutCell sweep{"iterator_sweep", arity, rel.size()};
    LayoutCell leapfrog{"leapfrog_intersect", arity, rel.size()};
    leapfrog.items = "seeks";
    LayoutCell seekgap{"seekgap", arity, rel.size()};
    seekgap.items = "seeks";

    // Probe mix: half near-misses of resident tuples, half random.
    const std::vector<Value> domain = DeepDomains(arity);
    std::vector<Tuple> probes;
    probes.reserve(kProbes);
    Rng rng(23 + arity);
    for (size_t i = 0; i < kProbes; ++i) {
      Tuple t(arity);
      if (rng.NextBounded(2) == 0) {
        t = rel.RowTuple(rng.NextBounded(rel.size()));
        t[arity - 1] += 1;
      } else {
        for (int c = 0; c < arity; ++c) {
          t[c] = static_cast<Value>(rng.NextBounded(domain[c]));
        }
      }
      probes.push_back(std::move(t));
    }

    std::vector<double> b_csr, b_row, s_csr, s_row, l_csr, l_row, g_csr,
        g_row;
    uint64_t leapfrog_ops = 0;
    constexpr int kLeapfrogPasses = 16;
    for (int rep = 0; rep < kReps; ++rep) {
      {
        Stopwatch w;
        const TrieIndex index(rel, perm);
        b_csr.push_back(w.ElapsedSeconds());
        benchmark::DoNotOptimize(index.size());
      }
      {
        Stopwatch w;
        const RowMajorTrie index(rel, perm);
        b_row.push_back(w.ElapsedSeconds());
        benchmark::DoNotOptimize(index.size());
      }
      const TrieIndex csr(rel), csr_a(lf_a), csr_b(lf_b), csr_c(lf_c);
      const RowMajorTrie row(rel), row_a(lf_a), row_b(lf_b), row_c(lf_c);
      {
        TrieIterator it(&csr);
        Stopwatch w;
        const uint64_t n = SweepTrie(&it, arity);
        s_csr.push_back(w.ElapsedSeconds());
        benchmark::DoNotOptimize(n);
      }
      {
        RowMajorIterator it(&row);
        Stopwatch w;
        const uint64_t n = SweepTrie(&it, arity);
        s_row.push_back(w.ElapsedSeconds());
        benchmark::DoNotOptimize(n);
      }
      {
        Stopwatch w;
        uint64_t ops = 0, n = 0;
        for (int pass = 0; pass < kLeapfrogPasses; ++pass) {
          TrieIterator x(&csr_a), y(&csr_b), z(&csr_c);
          n += UnaryLeapfrogCount(&x, &y, &z, &ops);
        }
        l_csr.push_back(w.ElapsedSeconds());
        leapfrog_ops = ops;
        benchmark::DoNotOptimize(n);
      }
      {
        Stopwatch w;
        uint64_t ops = 0, n = 0;
        for (int pass = 0; pass < kLeapfrogPasses; ++pass) {
          RowMajorIterator x(&row_a), y(&row_b), z(&row_c);
          n += UnaryLeapfrogCount(&x, &y, &z, &ops);
        }
        l_row.push_back(w.ElapsedSeconds());
        benchmark::DoNotOptimize(n);
      }
      {
        Stopwatch w;
        uint64_t found = 0;
        for (const Tuple& t : probes) found += csr.SeekGap(t).found;
        g_csr.push_back(w.ElapsedSeconds());
        benchmark::DoNotOptimize(found);
      }
      {
        Stopwatch w;
        uint64_t found = 0;
        for (const Tuple& t : probes) found += row.SeekGap(t).found;
        g_row.push_back(w.ElapsedSeconds());
        benchmark::DoNotOptimize(found);
      }
    }
    build.csr_seconds = MedianSeconds(b_csr);
    build.rowmajor_seconds = MedianSeconds(b_row);
    build.csr_items_per_sec = rel.size() / build.csr_seconds;
    sweep.csr_seconds = MedianSeconds(s_csr);
    sweep.rowmajor_seconds = MedianSeconds(s_row);
    sweep.csr_items_per_sec = rel.size() / sweep.csr_seconds;
    leapfrog.csr_seconds = MedianSeconds(l_csr);
    leapfrog.rowmajor_seconds = MedianSeconds(l_row);
    leapfrog.csr_items_per_sec = leapfrog_ops / leapfrog.csr_seconds;
    seekgap.csr_seconds = MedianSeconds(g_csr);
    seekgap.rowmajor_seconds = MedianSeconds(g_row);
    seekgap.csr_items_per_sec =
        kProbes * static_cast<double>(arity) / seekgap.csr_seconds;
    cells.push_back(build);
    cells.push_back(sweep);
    cells.push_back(leapfrog);
    cells.push_back(seekgap);
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"trie_layout\",\n");
  std::fprintf(f, "  \"reps\": %d,\n  \"results\": [\n", kReps);
  for (size_t i = 0; i < cells.size(); ++i) {
    const LayoutCell& c = cells[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"arity\": %d, \"rows\": %zu, "
        "\"csr_seconds\": %.6f, \"rowmajor_seconds\": %.6f, "
        "\"speedup\": %.3f, \"csr_%s_per_sec\": %.0f}%s\n",
        c.workload.c_str(), c.arity, c.rows, c.csr_seconds,
        c.rowmajor_seconds,
        c.csr_seconds > 0 ? c.rowmajor_seconds / c.csr_seconds : 0.0,
        c.items, c.csr_items_per_sec, i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"kernel_tier_results\": [\n");
  const std::vector<KernelTierCell> kt = BuildKernelTierCells();
  for (size_t i = 0; i < kt.size(); ++i) {
    const KernelTierCell& c = kt[i];
    std::fprintf(
        f,
        "    {\"axis\": \"%s\", \"workload\": \"%s\", \"arity\": %d, "
        "\"kernel\": \"%s\", \"tier\": \"%s\", "
        "\"baseline_seconds\": %.6f, \"variant_seconds\": %.6f, "
        "\"speedup\": %.3f, \"baseline_results\": %llu, "
        "\"variant_results\": %llu, \"results_equal\": %s, "
        "\"baseline_key_bytes\": %zu, \"variant_key_bytes\": %zu}%s\n",
        c.axis, c.workload, c.arity, c.kernel.c_str(), c.tier.c_str(),
        c.baseline_seconds, c.variant_seconds,
        c.variant_seconds > 0 ? c.baseline_seconds / c.variant_seconds : 0.0,
        static_cast<unsigned long long>(c.baseline_results),
        static_cast<unsigned long long>(c.variant_results),
        c.baseline_results == c.variant_results ? "true" : "false",
        c.baseline_bytes, c.variant_bytes, i + 1 < kt.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

// --- Cold vs warm end-to-end report (BENCH_index_catalog.json) ---

struct CatalogCell {
  std::string engine, query;
  double cold_seconds = 0.0, warm_seconds = 0.0;
  uint64_t count = 0, index_builds = 0, index_cache_hits = 0;
};

// Cold = fresh catalog per run (timing includes every index build);
// warm = resident catalog (the LogicBlox regime the paper measures in).
void EmitCatalogReport(const char* path) {
  Graph g = ErdosRenyi(/*num_nodes=*/1500, /*num_edges=*/6000, /*seed=*/7);
  const Relation edge = g.EdgeRelationSymmetric();
  const Relation edge_lt = g.EdgeRelationOriented();
  const struct {
    const char* name;
    const char* text;
    std::vector<std::string> gao;
  } queries[] = {
      {"3-clique", "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)",
       {"a", "b", "c"}},
      {"3-path", "edge(a,b), edge(b,c), edge(c,d)", {"a", "b", "c", "d"}},
  };
  constexpr int kReps = 5;
  std::vector<CatalogCell> cells;
  for (const auto& spec : queries) {
    Database db;
    db.Put("edge", edge);
    db.Put("edge_lt", edge_lt);
    const Query q = MustParseQuery(spec.text);
    const BoundQuery warm_q = Bind(q, db, spec.gao);
    BoundQuery cold_q = warm_q;
    for (const char* engine_name : {"lftj", "ms"}) {
      auto engine = CreateEngine(engine_name);
      CatalogCell cell;
      cell.engine = engine_name;
      cell.query = spec.name;
      std::vector<double> cold, warm;
      for (int rep = 0; rep < kReps; ++rep) {
        IndexCatalog fresh;
        cold_q.catalog = &fresh;
        ExecResult r = RunTimed(*engine, cold_q, ExecOptions{});
        cold.push_back(r.seconds);
        cell.count = r.count;
        cell.index_builds = r.stats.index_builds;
      }
      ExecResult warmup = engine->Execute(warm_q, ExecOptions{});
      (void)warmup;  // populate db's catalog before the timed warm runs
      for (int rep = 0; rep < kReps; ++rep) {
        ExecResult r = RunTimed(*engine, warm_q, ExecOptions{});
        warm.push_back(r.seconds);
        cell.index_cache_hits = r.stats.index_cache_hits;
      }
      cell.cold_seconds = MedianSeconds(cold);
      cell.warm_seconds = MedianSeconds(warm);
      cells.push_back(cell);
    }
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"index_catalog\",\n");
  std::fprintf(f, "  \"reps\": %d,\n  \"results\": [\n", kReps);
  for (size_t i = 0; i < cells.size(); ++i) {
    const CatalogCell& c = cells[i];
    std::fprintf(
        f,
        "    {\"engine\": \"%s\", \"query\": \"%s\", "
        "\"cold_seconds\": %.6f, \"warm_seconds\": %.6f, "
        "\"speedup\": %.3f, \"count\": %llu, "
        "\"index_builds_cold\": %llu, \"index_cache_hits_warm\": %llu}%s\n",
        c.engine.c_str(), c.query.c_str(), c.cold_seconds, c.warm_seconds,
        c.warm_seconds > 0 ? c.cold_seconds / c.warm_seconds : 0.0,
        static_cast<unsigned long long>(c.count),
        static_cast<unsigned long long>(c.index_builds),
        static_cast<unsigned long long>(c.index_cache_hits),
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

// --- Arena vs pointer CDS (BENCH_cds_arena.json) ---

struct CdsArenaCell {
  std::string workload;
  int num_vars = 0;
  uint64_t items = 0;  // inserts or free tuples, identical across impls
  const char* items_name = "inserts";
  double arena_seconds = 0.0, pointer_seconds = 0.0;
};

// Times the arena-backed Cds against the pre-refactor pointer
// implementation (tests/cds_reference.h) on identical deterministic
// workloads:
//  - insert_merge: deep skewed constraint streams (pattern walks create
//    and merge branches; merges delete subtrees);
//  - cyclic_compute_free_tuple: the engine-shaped
//    insert/ComputeFreeTuple/drain loop with incomparable equality
//    patterns — the §4.8 poset regime cyclic queries produce, where
//    exact-prefix specialization nodes churn hardest;
//  - acyclic_compute_free_tuple: the same loop with nested (chain)
//    patterns;
//  - warm_repeat: whole cyclic runs repeated back to back — the arena
//    impl reuses one warm arena (the ExecScratch regime), the pointer
//    impl rebuilds from the heap each time, exactly like the
//    pre-refactor engines did per partition job.
void EmitCdsArenaReport(const char* path) {
  constexpr int kReps = 5;
  std::vector<CdsArenaCell> cells;

  auto median_of = [&](auto&& run) {
    std::vector<double> xs;
    for (int rep = 0; rep < kReps; ++rep) xs.push_back(run());
    return MedianSeconds(std::move(xs));
  };

  // Deep skewed constraint stream, shared by both implementations.
  const int kStreamVars = 5;
  const int kStreamLen = 1 << 14;
  std::vector<Constraint> stream;
  {
    Rng rng(41);
    stream.reserve(kStreamLen);
    for (int i = 0; i < kStreamLen; ++i) {
      Constraint c;
      const int depth = static_cast<int>(rng.NextBounded(kStreamVars));
      c.pattern.assign(depth, kWildcard);
      for (int d = 0; d < depth; ++d) {
        if (rng.NextBounded(2) == 0) {
          c.pattern[d] = static_cast<Value>(
              rng.NextBounded(rng.NextBounded(96) + 1));  // degree skew
        }
      }
      const Value l = static_cast<Value>(rng.NextBounded(1 << 12));
      c.lo = l;
      c.hi = l + 1 + static_cast<Value>(rng.NextBounded(512));
      stream.push_back(std::move(c));
    }
  }
  {
    CdsArenaCell cell{"insert_merge", kStreamVars,
                      static_cast<uint64_t>(kStreamLen)};
    CdsArena arena;
    Cds warm_cds(kStreamVars, Cds::Options{}, &arena);
    cell.arena_seconds = median_of([&] {
      warm_cds.Reset();
      Cds& cds = warm_cds;
      Stopwatch w;
      for (const Constraint& c : stream) cds.InsertConstraint(c);
      const double s = w.ElapsedSeconds();
      benchmark::DoNotOptimize(cds.constraints_inserted());
      return s;
    });
    cell.pointer_seconds = median_of([&] {
      cdsref::Cds cds(kStreamVars, cdsref::Cds::Options{});
      Stopwatch w;
      for (const Constraint& c : stream) cds.InsertConstraint(c);
      const double s = w.ElapsedSeconds();
      benchmark::DoNotOptimize(cds.constraints_inserted());
      return s;
    });
    cells.push_back(cell);
  }

  // Engine-shaped ComputeFreeTuple workloads (DriveCdsWorkload), in the
  // regime the arena was built for: a stream of partition-job-sized runs
  // over one warm per-worker scratch (Cds shell + arena, Reset between
  // jobs) against the pre-refactor behaviour of building and tearing
  // down a fresh pointer tree per job. The cyclic (poset-regime) cell is
  // the acceptance-bar cell.
  const struct {
    const char* name;
    bool chain_only;
    int num_vars;
    int runs;
    int free_tuples_per_run;
    Value domain;
  } loops[] = {
      {"cyclic_compute_free_tuple", false, 7, 1024, 16, 48},
      {"acyclic_compute_free_tuple", true, 7, 1024, 16, 48},
      {"warm_repeat", false, 5, 16, 1024, 96},
  };
  for (const auto& spec : loops) {
    CdsArenaCell cell{spec.name, spec.num_vars, 0};
    cell.items_name = "free_tuples";
    CdsArena arena;
    Cds warm_cds(spec.num_vars, Cds::Options{}, &arena);
    // Prime the scratch so the timed region is pure steady state.
    DriveCdsWorkload(&warm_cds, spec.num_vars, 57, spec.free_tuples_per_run,
                     spec.chain_only, spec.domain,
                     /*collect_frontiers=*/false);
    cell.arena_seconds = median_of([&] {
      Stopwatch w;
      uint64_t tuples = 0;
      for (int run = 0; run < spec.runs; ++run) {
        warm_cds.Reset();
        tuples += DriveCdsWorkload(&warm_cds, spec.num_vars, 57 + (run & 7),
                                   spec.free_tuples_per_run, spec.chain_only,
                                   spec.domain, /*collect_frontiers=*/false)
                      .num_frontiers;
      }
      const double s = w.ElapsedSeconds();
      cell.items = tuples;
      return s;
    });
    cell.pointer_seconds = median_of([&] {
      Stopwatch w;
      uint64_t tuples = 0;
      for (int run = 0; run < spec.runs; ++run) {
        cdsref::Cds cds(spec.num_vars, cdsref::Cds::Options{});
        tuples += DriveCdsWorkload(&cds, spec.num_vars, 57 + (run & 7),
                                   spec.free_tuples_per_run, spec.chain_only,
                                   spec.domain, /*collect_frontiers=*/false)
                      .num_frontiers;
      }
      const double s = w.ElapsedSeconds();
      benchmark::DoNotOptimize(tuples);
      return s;
    });
    cells.push_back(cell);
  }

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"cds_arena\",\n");
  std::fprintf(f, "  \"reps\": %d,\n  \"results\": [\n", kReps);
  for (size_t i = 0; i < cells.size(); ++i) {
    const CdsArenaCell& c = cells[i];
    std::fprintf(
        f,
        "    {\"workload\": \"%s\", \"num_vars\": %d, \"%s\": %llu, "
        "\"arena_seconds\": %.6f, \"pointer_seconds\": %.6f, "
        "\"speedup\": %.3f}%s\n",
        c.workload.c_str(), c.num_vars, c.items_name,
        static_cast<unsigned long long>(c.items), c.arena_seconds,
        c.pointer_seconds,
        c.arena_seconds > 0 ? c.pointer_seconds / c.arena_seconds : 0.0,
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

// --- Morsel scheduling (BENCH_morsel_sched.json) ---

struct MorselCell {
  std::string engine;
  std::string query;
  uint64_t count = 0;
  bool counts_equal = false;
  double morsel_seconds = 0.0;
  // Morsel scheduler with per-morsel CDS Reconfigure (the pre-change
  // behavior, morsel_cds_reuse=false): the baseline the cross-morsel
  // CDS retention win is pinned against. Only Minesweeper-family
  // engines have a CDS, so for lftj the two columns coincide.
  double morsel_noreuse_seconds = 0.0;
};

// Skewed cell: the triangle on an Rmat graph whose hub vertices sit
// at the low end of the id space, where the quantile splits spread
// resident keys evenly and stealing mops up the rest. Both variants run
// the same engine, catalog, pool, threads, and granularity; medians
// over kReps runs.
void EmitMorselSchedReport(const char* path) {
  constexpr int kReps = 3;
  constexpr int kThreads = 8;
  constexpr int kGranularity = 8;
  Graph g = Rmat(/*scale=*/12, /*num_edges=*/120000, 0.57, 0.19, 0.19,
                 /*seed=*/9);
  Database db;
  db.Put("edge", g.EdgeRelationSymmetric());
  db.Put("edge_lt", g.EdgeRelationOriented());
  const struct {
    const char* name;
    const char* text;
    std::vector<std::string> gao;
  } queries[] = {
      {"3-clique-rmat", "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)",
       {"a", "b", "c"}},
  };
  std::vector<MorselCell> cells;
  WorkerPool pool(kThreads);  // persistent threads across all morsel runs
  for (const auto& spec : queries) {
    const BoundQuery bq = Bind(MustParseQuery(spec.text), db, spec.gao);
    for (const char* engine_name : {"lftj", "ms"}) {
      auto engine = CreateEngine(engine_name);
      MorselCell cell;
      cell.engine = engine_name;
      cell.query = spec.name;
      // Resident indexes before the clock starts: the report measures
      // scheduling, not index builds.
      WarmQueryIndexes(bq);
      ExecScratchPool morsel_scratch, noreuse_scratch;
      uint64_t morsel_count = 0, noreuse_count = 0;
      std::vector<double> morsel, noreuse;
      for (int rep = 0; rep < kReps; ++rep) {
        {
          Stopwatch w;
          const ExecResult r =
              PartitionedExecute(*engine, bq, ExecOptions{}, kThreads,
                                 kGranularity, &morsel_scratch, &pool);
          morsel.push_back(w.ElapsedSeconds());
          morsel_count = r.count;
        }
        {
          ExecOptions off;
          off.morsel_cds_reuse = false;
          Stopwatch w;
          const ExecResult r =
              PartitionedExecute(*engine, bq, off, kThreads, kGranularity,
                                 &noreuse_scratch, &pool);
          noreuse.push_back(w.ElapsedSeconds());
          noreuse_count = r.count;
        }
      }
      cell.count = morsel_count;
      cell.counts_equal = noreuse_count == morsel_count;
      cell.morsel_seconds = MedianSeconds(morsel);
      cell.morsel_noreuse_seconds = MedianSeconds(noreuse);
      cells.push_back(cell);
    }
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"morsel_sched\",\n");
  std::fprintf(f, "  \"threads\": %d,\n  \"granularity\": %d,\n", kThreads,
               kGranularity);
  std::fprintf(f, "  \"reps\": %d,\n  \"results\": [\n", kReps);
  for (size_t i = 0; i < cells.size(); ++i) {
    const MorselCell& c = cells[i];
    std::fprintf(
        f,
        "    {\"engine\": \"%s\", \"query\": \"%s\", "
        "\"morsel_seconds\": %.6f, "
        "\"morsel_noreuse_seconds\": %.6f, \"cds_reuse_speedup\": %.3f, "
        "\"count\": %llu, \"counts_equal\": %s}%s\n",
        c.engine.c_str(), c.query.c_str(), c.morsel_seconds,
        c.morsel_noreuse_seconds,
        c.morsel_seconds > 0 ? c.morsel_noreuse_seconds / c.morsel_seconds
                             : 0.0,
        static_cast<unsigned long long>(c.count),
        c.counts_equal ? "true" : "false", i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

// --- Persistent catalog warm start (BENCH_persist.json) ---

// What the persistent catalog buys and what it costs, per key tier
// policy: cold TrieIndex build vs OpenIndex mmap (the headline — open
// only maps and validates the header, so it must be >= 50x faster than
// sorting and encoding the relation), the on-disk footprint, and a
// probe-parity check between the built and the mapped index. Then the
// end-to-end story on a triangle query: cold first query (pays the
// index builds) vs first query after Database::LoadCatalog in a fresh
// database (pays page faults only) vs the fully warm second query.
void EmitPersistReport(const char* path) {
  constexpr int kReps = 5;
  constexpr int kProbes = 512;
  Graph g = Rmat(/*scale=*/13, /*num_edges=*/300000, 0.57, 0.19, 0.19,
                 /*seed=*/11);
  const Relation edge_lt = g.EdgeRelationOriented();
  const uint64_t fp = RelationFingerprint(edge_lt);

  struct PolicyRow {
    const char* policy;
    double build_seconds = 0.0, open_seconds = 0.0;
    uint64_t file_bytes = 0;
    bool probes_equal = false, payload_ok = false;
  };
  std::vector<PolicyRow> rows;
  const TierPolicy policies[] = {TierPolicy::kAuto, TierPolicy::kRawOnly,
                                 TierPolicy::kForcePacked,
                                 TierPolicy::kForceDelta};
  const std::string file = "BENCH_persist_index.wct";
  for (const TierPolicy policy : policies) {
    PolicyRow row;
    row.policy = TierPolicyName(policy);
    std::vector<double> build, open;
    for (int rep = 0; rep < kReps; ++rep) {
      Stopwatch w;
      const TrieIndex cold(edge_lt, {}, policy);
      build.push_back(w.ElapsedSeconds());
      benchmark::DoNotOptimize(cold.size());
    }
    const TrieIndex cold(edge_lt, {}, policy);
    const Status save_status = SaveIndex(cold, fp, file);
    if (!save_status.ok()) {
      std::fprintf(stderr, "persist bench: save failed: %s\n",
                   save_status.ToString().c_str());
      return;
    }
    std::unique_ptr<TrieIndex> mapped;
    for (int rep = 0; rep < kReps; ++rep) {
      Status open_status;
      Stopwatch w;
      mapped = OpenIndex(file, fp, &open_status);
      open.push_back(w.ElapsedSeconds());
      if (mapped == nullptr) {
        std::fprintf(stderr, "persist bench: open failed: %s\n",
                     open_status.ToString().c_str());
        return;
      }
    }
    row.build_seconds = MedianSeconds(build);
    row.open_seconds = MedianSeconds(open);
    row.payload_ok = VerifyIndexFile(file).ok();
    struct stat st;
    row.file_bytes = ::stat(file.c_str(), &st) == 0
                         ? static_cast<uint64_t>(st.st_size)
                         : 0;
    // Probe parity: identical galloping seeks against both instances.
    row.probes_equal = cold.size() == mapped->size();
    Rng rng(17);
    const Value span = cold.ColMax(0) - cold.ColMin(0) + 1;
    for (int p = 0; p < kProbes && row.probes_equal; ++p) {
      const Value v =
          cold.ColMin(0) + static_cast<Value>(rng.NextBounded(span));
      row.probes_equal = cold.LowerBound(0, 0, cold.LevelSize(0), v) ==
                         mapped->LowerBound(0, 0, mapped->LevelSize(0), v);
    }
    rows.push_back(row);
  }
  std::remove(file.c_str());

  // End-to-end warm start: same graph registered in two databases; the
  // second one never builds, it maps what the first one saved. A small
  // graph and the fast engine keep the query itself cheap, so the first
  // query's latency is dominated by exactly what this row measures —
  // index builds (cold) vs payload page faults (mmap).
  const std::string dir = "BENCH_persist_catalog";
  Graph qg = Rmat(/*scale=*/12, /*num_edges=*/60000, 0.57, 0.19, 0.19,
                  /*seed=*/12);
  const Query q =
      MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  const std::vector<std::string> gao = {"a", "b", "c"};
  Database db;
  db.Put("edge_lt", qg.EdgeRelationOriented());
  double cold_query;
  uint64_t cold_count;
  {
    const BoundQuery bq = Bind(q, db, gao);
    auto engine = CreateEngine("lftj");
    const ExecResult r = RunTimed(*engine, bq, ExecOptions{});
    cold_query = r.seconds;
    cold_count = r.count;
  }
  Status save_status;
  const size_t saved = db.SaveCatalog(dir, &save_status);
  Database db2;
  db2.Put("edge_lt", qg.EdgeRelationOriented());
  CatalogOpenStats open_stats;
  const size_t loaded = db2.LoadCatalog(dir, &open_stats);
  double mmap_first_query, warm_query;
  uint64_t mmap_count, builds_after_load;
  {
    const BoundQuery bq = Bind(q, db2, gao);
    auto engine = CreateEngine("lftj");
    const ExecResult first = RunTimed(*engine, bq, ExecOptions{});
    mmap_first_query = first.seconds;
    mmap_count = first.count;
    builds_after_load = first.stats.index_builds;
    const ExecResult second = RunTimed(*engine, bq, ExecOptions{});
    warm_query = second.seconds;
  }

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"persist\",\n  \"reps\": %d,\n",
               kReps);
  std::fprintf(f, "  \"rows\": %llu,\n",
               static_cast<unsigned long long>(edge_lt.size()));
  std::fprintf(f, "  \"policies\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const PolicyRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"policy\": \"%s\", \"build_seconds\": %.6f, "
        "\"open_seconds\": %.6f, \"open_speedup\": %.1f, "
        "\"open_speedup_ok\": %s, \"file_bytes\": %llu, "
        "\"probes_equal\": %s, \"payload_checksum_ok\": %s}%s\n",
        r.policy, r.build_seconds, r.open_seconds,
        r.open_seconds > 0 ? r.build_seconds / r.open_seconds : 0.0,
        r.build_seconds >= 50.0 * r.open_seconds ? "true" : "false",
        static_cast<unsigned long long>(r.file_bytes),
        r.probes_equal ? "true" : "false", r.payload_ok ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"warm_start\": {\"indexes_saved\": %llu, \"indexes_loaded\": "
      "%llu, \"cold_first_query_seconds\": %.6f, "
      "\"mmap_first_query_seconds\": %.6f, \"warm_query_seconds\": %.6f, "
      "\"index_builds_after_load\": %llu, \"counts_equal\": %s, "
      "\"count\": %llu}\n",
      static_cast<unsigned long long>(saved),
      static_cast<unsigned long long>(loaded), cold_query, mmap_first_query,
      warm_query, static_cast<unsigned long long>(builds_after_load),
      cold_count == mmap_count ? "true" : "false",
      static_cast<unsigned long long>(cold_count));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

// --- Resource governor overhead (BENCH_governor.json) ---

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
  wcoj::EmitTrieLayoutReport("BENCH_trie_layout.json");
  wcoj::EmitCatalogReport("BENCH_index_catalog.json");
  wcoj::EmitCdsArenaReport("BENCH_cds_arena.json");
  wcoj::EmitMorselSchedReport("BENCH_morsel_sched.json");
  wcoj::EmitPersistReport("BENCH_persist.json");
  wcoj::EmitGovernorReport("BENCH_governor.json");
  return 0;
}
