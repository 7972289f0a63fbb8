// A warm Minesweeper run allocates nothing per free tuple.
//
// This binary replaces the global operator new with a counting one, so
// it holds only tests that read the counter. Each case runs `ms` three
// times on one warm ExecScratch and one warm catalog and counts the heap
// allocations of the third run. Over two samples whose free tuples differ
// by at least 2x, that count must stay the same (within a small fixed
// slack) and far below the free-tuple count: the run's allocations are a
// fixed setup cost, not a cost per free tuple.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/engine.h"
#include "graph/generators.h"
#include "graph/sampling.h"
#include "query/parser.h"
#include "storage/catalog.h"
#include "tests/test_util.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// The replacements are kept out of line: inlined into a call site, GCC
// would pair one side's malloc/free with the other side's new/delete
// and warn -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// The nothrow form too (std::stable_sort's temporary buffer uses it):
// left to the runtime, its blocks would be freed by the replacement
// delete below, an allocator mismatch under AddressSanitizer.
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace wcoj {
namespace {

struct WarmRun {
  uint64_t allocations = 0;
  uint64_t free_tuples = 0;
  uint64_t count = 0;
};

// Third of three `ms` runs of the 3-path between samples of `sample`
// nodes, on one scratch and one catalog.
WarmRun ThirdWarmRun(const Graph& g, int64_t sample) {
  Relation edge = g.EdgeRelationSymmetric();
  Relation v1 = SampleNodesExact(g, sample, 1);
  Relation v2 = SampleNodesExact(g, sample, 2);
  const Query q =
      MustParseQuery("v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)");
  BoundQuery bq = Bind(q, {{"edge", &edge}, {"v1", &v1}, {"v2", &v2}},
                       {"a", "b", "c", "d"});
  IndexCatalog catalog;
  bq.catalog = &catalog;
  ExecScratch scratch;
  ExecOptions opts;
  opts.scratch = &scratch;
  const auto engine = CreateEngine("ms");
  WarmRun run;
  for (int i = 0; i < 3; ++i) {
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const ExecResult r = engine->Execute(bq, opts);
    run.allocations = g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_TRUE(r.ok()) << r.status.ToString();
    run.free_tuples = r.stats.free_tuples;
    run.count = r.count;
    if (i == 2) {
      EXPECT_EQ(r.stats.cds_nodes_allocated, 0u);  // warm arena
    }
  }
  return run;
}

TEST(MsAllocTest, WarmRunAllocatesNothingPerFreeTuple) {
  const Graph g = ErdosRenyi(20000, 100000, /*seed=*/5);
  const WarmRun small = ThirdWarmRun(g, 100);
  const WarmRun large = ThirdWarmRun(g, 400);
  ASSERT_GE(large.free_tuples, 2 * small.free_tuples)
      << "the two samples must differ in work for the pin to mean anything";
  // Fixed per-run setup (index set, GAO vectors, result) may differ by a
  // few vectors' growth steps, never by the free-tuple difference.
  constexpr uint64_t kSlack = 16;
  const uint64_t lo = std::min(small.allocations, large.allocations);
  const uint64_t hi = std::max(small.allocations, large.allocations);
  EXPECT_LE(hi - lo, kSlack) << "small: " << small.allocations
                             << " allocations, " << small.free_tuples
                             << " free tuples; large: " << large.allocations
                             << " allocations, " << large.free_tuples
                             << " free tuples";
  EXPECT_LT(small.allocations, small.free_tuples / 100);
  EXPECT_LT(large.allocations, large.free_tuples / 100);
}

}  // namespace
}  // namespace wcoj
