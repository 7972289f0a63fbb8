#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util/workloads.h"
#include "core/atom_index.h"
#include "storage/catalog.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/sampling.h"
#include "parallel/partitioned_run.h"
#include "parallel/worker_pool.h"
#include "query/parser.h"
#include "storage/trie.h"
#include "tests/test_util.h"
#include "util/mem_budget.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace wcoj {
namespace {

// --- WorkerPool: persistent threads, per-worker deques, steal-half ---

// Steal correctness under load: every job of every batch runs exactly
// once, across several batches reusing one pool's threads, with uneven
// job durations so work actually migrates between deques.
TEST(WorkerPoolTest, StressEveryJobRunsExactlyOncePerBatch) {
  constexpr int kThreads = 8;
  constexpr int kJobs = 400;
  constexpr int kBatches = 5;
  WorkerPool pool(kThreads);
  EXPECT_EQ(pool.num_threads(), kThreads);
  for (int batch = 0; batch < kBatches; ++batch) {
    std::vector<std::atomic<int>> hits(kJobs);
    for (auto& h : hits) h = 0;
    std::atomic<int> bad_worker{0};
    std::vector<std::function<void(int)>> jobs;
    jobs.reserve(kJobs);
    for (int i = 0; i < kJobs; ++i) {
      jobs.push_back([&, i](int worker) {
        if (worker < 0 || worker >= kThreads) ++bad_worker;
        // Skew the initial deal: the first worker's contiguous share is
        // slow, so the other workers must steal it to finish.
        if (i < kJobs / kThreads) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        ++hits[i];
      });
    }
    pool.Run(jobs);
    EXPECT_EQ(bad_worker.load(), 0) << "batch " << batch;
    for (int i = 0; i < kJobs; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "batch " << batch << " job " << i;
    }
  }
}

TEST(WorkerPoolTest, DegenerateBatchesRunInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  // num_threads == 1: serial, on the calling thread, in order.
  WorkerPool serial(1);
  std::vector<int> order;
  std::vector<std::thread::id> seen;
  serial.Run(std::vector<std::function<void()>>{
      [&]() { order.push_back(0); seen.push_back(std::this_thread::get_id()); },
      [&]() { order.push_back(1); seen.push_back(std::this_thread::get_id()); },
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(seen[0], caller);
  EXPECT_EQ(seen[1], caller);
  // A single job runs inline even on a threaded pool, as worker 0.
  WorkerPool threaded(4);
  std::atomic<int> worker_seen{-1};
  threaded.Run(std::vector<std::function<void(int)>>{
      [&](int w) { worker_seen = w; }});
  EXPECT_EQ(worker_seen.load(), 0);
  threaded.Run(std::vector<std::function<void()>>{});  // empty batch: no-op
}

// Partitioned execution must produce identical counts to a direct run for
// every engine that honors var0 ranges, at any granularity.
struct PartitionCase {
  const char* engine;
  const char* query;
  std::vector<std::string> gao;
};

class PartitionedRunTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

const PartitionCase kPartitionCases[] = {
    {"lftj", "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"}},
    {"ms", "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"}},
    {"lftj", "v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)",
     {"a", "b", "c", "d"}},
    {"ms", "v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)",
     {"a", "b", "c", "d"}},
    {"psql", "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"}},
    {"clique", "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"}},
};

TEST_P(PartitionedRunTest, CountsMatchDirectExecution) {
  const auto& [case_idx, granularity] = GetParam();
  const PartitionCase& c = kPartitionCases[case_idx];
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 3.0, 4);
  rels.v2 = SampleNodes(g, 3.0, 5);
  Query q = MustParseQuery(c.query);
  BoundQuery bq = Bind(q, rels.Map(), c.gao);
  auto engine = CreateEngine(c.engine);
  const ExecResult direct = engine->Execute(bq, ExecOptions{});
  const ExecResult split =
      PartitionedExecute(*engine, bq, ExecOptions{}, /*num_threads=*/3,
                         granularity);
  EXPECT_EQ(split.count, direct.count)
      << c.engine << " granularity=" << granularity;
  EXPECT_GT(split.seconds, 0.0) << c.engine;
}

INSTANTIATE_TEST_SUITE_P(
    CasesByGranularity, PartitionedRunTest,
    ::testing::Combine(::testing::Range(0, 6), ::testing::Values(1, 2, 8)),
    [](const auto& info) {
      return "c" + std::to_string(std::get<0>(info.param)) + "_f" +
             std::to_string(std::get<1>(info.param));
    });

// Hammer GetOrBuild from the worker pool: every distinct (relation, perm)
// key must be built exactly once, and every concurrent caller must
// receive the pointer-identical resident index.
TEST(IndexCatalogTest, ConcurrentGetOrBuildBuildsOncePerKey) {
  Graph g = ErdosRenyi(200, 800, 5);
  GraphRelations rels = MakeGraphRelations(g);
  const std::vector<std::pair<const Relation*, std::vector<int>>> keys = {
      {&rels.edge, {0, 1}},    {&rels.edge, {1, 0}},
      {&rels.edge_lt, {0, 1}}, {&rels.node, {0}},
      {&rels.v1, {0}},
  };
  constexpr int kJobs = 64;
  IndexCatalog catalog;
  std::vector<std::vector<const TrieIndex*>> seen(
      kJobs, std::vector<const TrieIndex*>(keys.size()));
  std::vector<std::function<void()>> jobs;
  for (int j = 0; j < kJobs; ++j) {
    jobs.push_back([&, j]() {
      for (size_t k = 0; k < keys.size(); ++k) {
        seen[j][k] = catalog.GetOrBuild(*keys[k].first, keys[k].second);
      }
    });
  }
  WorkerPool(8).Run(jobs);
  EXPECT_EQ(catalog.builds(), keys.size());
  EXPECT_EQ(catalog.size(), keys.size());
  EXPECT_EQ(catalog.hits(), kJobs * keys.size() - keys.size());
  for (int j = 0; j < kJobs; ++j) {
    for (size_t k = 0; k < keys.size(); ++k) {
      EXPECT_EQ(seen[j][k], seen[0][k]) << "job " << j << " key " << k;
    }
  }
}

// The ISSUE acceptance bar: a partitioned run over a shared catalog
// performs exactly one index build per distinct (relation, permutation)
// pair regardless of partition count, visible in the EngineStats.
TEST(PartitionedRunTest, CatalogBuildsOncePerDistinctIndexAcrossPartitions) {
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 3.0, 4);
  rels.v2 = SampleNodes(g, 3.0, 5);
  struct Case {
    const char* engine;
    const char* query;
    std::vector<std::string> gao;
    uint64_t distinct_indexes;
  };
  const Case cases[] = {
      // Triangle: edge_lt three times under one permutation = 1 index.
      {"lftj", "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"},
       1},
      {"ms", "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"}, 1},
      // 3-path: v1, v2, and edge (three occurrences, same perm) = 3.
      {"ms", "v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)",
       {"a", "b", "c", "d"}, 3},
  };
  for (const auto& c : cases) {
    auto engine = CreateEngine(c.engine);
    BoundQuery bq = Bind(MustParseQuery(c.query), rels.Map(), c.gao);
    const ExecResult direct = engine->Execute(bq, ExecOptions{});
    for (int granularity : {1, 8}) {
      IndexCatalog catalog;
      bq.catalog = &catalog;
      const ExecResult split = PartitionedExecute(
          *engine, bq, ExecOptions{}, /*num_threads=*/3, granularity);
      EXPECT_EQ(split.count, direct.count) << c.engine << " f=" << granularity;
      EXPECT_EQ(split.stats.index_builds, c.distinct_indexes)
          << c.engine << " f=" << granularity;
      EXPECT_EQ(catalog.builds(), c.distinct_indexes)
          << c.engine << " f=" << granularity;
    }
  }
}

// The parallel pre-warm must behave exactly like the serial one: one
// catalog build per distinct (relation, permutation) pair, per-atom
// build/hit accounting, and idempotence on a warm catalog.
TEST(PartitionedRunTest, ParallelPrewarmBuildsOncePerDistinctIndex) {
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 3.0, 4);
  rels.v2 = SampleNodes(g, 3.0, 5);
  // 3-path: v1, v2, and edge three times under one permutation = 3
  // distinct indexes across 5 atoms.
  Query q = MustParseQuery("v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c", "d"});
  for (int threads : {1, 4}) {
    WorkerPool pool(threads);
    IndexCatalog catalog;
    bq.catalog = &catalog;
    const EngineStats cold = WarmQueryIndexesParallel(bq, pool);
    EXPECT_EQ(cold.index_builds, 3u) << "threads=" << threads;
    EXPECT_EQ(cold.index_cache_hits, 2u) << "threads=" << threads;
    EXPECT_EQ(catalog.builds(), 3u) << "threads=" << threads;
    EXPECT_EQ(catalog.size(), 3u) << "threads=" << threads;
    // Re-warming a resident catalog builds nothing: 5 atom hits.
    const EngineStats warm = WarmQueryIndexesParallel(bq, pool);
    EXPECT_EQ(warm.index_builds, 0u) << "threads=" << threads;
    EXPECT_EQ(warm.index_cache_hits, 5u) << "threads=" << threads;
    EXPECT_EQ(catalog.builds(), 3u) << "threads=" << threads;
  }
  // Without a catalog the pre-warm is a no-op.
  bq.catalog = nullptr;
  WorkerPool pool(4);
  const EngineStats none = WarmQueryIndexesParallel(bq, pool);
  EXPECT_EQ(none.index_builds, 0u);
  EXPECT_EQ(none.index_cache_hits, 0u);
}

// Without a catalog, a partitioned run is bound to one catalog private
// to the call: every morsel executes over the same tries, so the run
// reports exactly the builds of a serial run, not one set per morsel.
TEST(PartitionedRunTest, RunWithoutCatalogBuildsEachTrieOnce) {
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 3.0, 4);
  rels.v2 = SampleNodes(g, 3.0, 5);
  struct Case {
    const char* engine;
    const char* workload;
  };
  const Case cases[] = {
      {"lftj", "3-clique"}, {"ms", "3-path"}, {"hybrid", "2-lollipop"}};
  for (const auto& c : cases) {
    const Workload& w = WorkloadByName(c.workload);
    const BoundQuery bq = Bind(MustParseQuery(w.query_text), rels.Map(), w.gao);
    ASSERT_EQ(bq.catalog, nullptr);
    auto engine = CreateEngine(c.engine);
    const ExecResult serial = engine->Execute(bq, ExecOptions{});
    const ExecResult split = PartitionedExecute(
        *engine, bq, ExecOptions{}, /*num_threads=*/3, /*granularity=*/8);
    ASSERT_TRUE(split.ok()) << c.engine << ": " << split.status.ToString();
    EXPECT_EQ(split.count, serial.count) << c.engine;
    EXPECT_GT(serial.stats.index_builds, 0u) << c.engine;
    EXPECT_EQ(split.stats.index_builds, serial.stats.index_builds)
        << c.engine;
  }
}

// The PR 4 acceptance bar: partition jobs draw their CDS from per-worker
// scratch arenas, so a multi-partition run recycles nodes (every job
// after a worker's first reuses warm memory), and re-running over a
// caller-owned scratch pool reaches the allocation-free steady state.
TEST(PartitionedRunTest, WorkerScratchIsReusedAcrossPartitionJobs) {
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  auto engine = CreateEngine("ms");
  const ExecResult direct = engine->Execute(bq, ExecOptions{});

  // Multi-threaded, granularity 8: some worker runs >= 2 jobs, so warm
  // reuse must show up in the merged stats no matter how jobs land.
  const ExecResult split =
      PartitionedExecute(*engine, bq, ExecOptions{}, /*num_threads=*/2,
                         /*granularity=*/8);
  EXPECT_EQ(split.count, direct.count);
  EXPECT_GT(split.stats.cds_nodes_recycled, 0u);

  // Single-threaded with a caller-owned pool: deterministic job order,
  // so the second whole run performs zero fresh CDS allocations.
  ExecScratchPool pool;
  const ExecResult cold = PartitionedExecute(
      *engine, bq, ExecOptions{}, /*num_threads=*/1, /*granularity=*/8,
      &pool);
  EXPECT_EQ(cold.count, direct.count);
  EXPECT_GT(cold.stats.cds_nodes_allocated, 0u);
  EXPECT_GT(cold.stats.cds_nodes_recycled, 0u);  // jobs 2..8 reuse job 1's
  const ExecResult warm = PartitionedExecute(
      *engine, bq, ExecOptions{}, /*num_threads=*/1, /*granularity=*/8,
      &pool);
  EXPECT_EQ(warm.count, direct.count);
  EXPECT_EQ(warm.stats.cds_nodes_allocated, 0u);
  EXPECT_GT(warm.stats.cds_nodes_recycled, 0u);
}

// Morsel CDS retention: within one partitioned run a worker keeps its
// constraint tree across morsels instead of reconfiguring per morsel.
// Constraints are facts about the data — valid for any var0 range — so
// the partitioned answer must be bit-identical to the serial one. The
// mechanism itself is pinned below the scheduler: two runs over the two
// var0 halves on one ExecScratch that share a nonzero cds_run_token
// (what PartitionedExecute stamps on every morsel) must re-derive
// strictly fewer constraints than the same two runs under token 0,
// which reconfigures the CDS between them.
TEST(PartitionedRunTest, MorselCdsRetentionPreservesResults) {
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  for (const char* name : {"ms", "#ms", "hybrid"}) {
    auto engine = CreateEngine(name);
    ExecOptions serial_opts;
    serial_opts.collect_tuples = true;
    const ExecResult serial = engine->Execute(bq, serial_opts);

    ExecOptions partitioned_opts;
    partitioned_opts.collect_tuples = true;
    const ExecResult partitioned = PartitionedExecute(
        *engine, bq, partitioned_opts, /*num_threads=*/3, /*granularity=*/8);

    EXPECT_EQ(partitioned.count, serial.count) << name;
    // PartitionedExecute sorts collected tuples; sort the serial run's
    // for an order-insensitive exact comparison.
    std::vector<Tuple> expected = serial.tuples;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(partitioned.tuples, expected) << name;

    // Split var0 at the output's median so both halves do real work.
    ASSERT_FALSE(expected.empty()) << name;
    const Value mid = expected[expected.size() / 2][0];
    auto inserted_over_halves = [&](uint64_t run_token) {
      ExecScratch scratch;
      uint64_t inserted = 0, count = 0;
      for (const auto& [lo, hi] :
           {std::pair{kNegInf, mid}, std::pair{mid + 1, kPosInf}}) {
        ExecOptions opts;
        opts.scratch = &scratch;
        opts.cds_run_token = run_token;
        opts.var0_min = lo;
        opts.var0_max = hi;
        const ExecResult r = engine->Execute(bq, opts);
        EXPECT_TRUE(r.status.ok()) << name << " token " << run_token;
        inserted += r.stats.constraints_inserted;
        count += r.count;
      }
      EXPECT_EQ(count, serial.count) << name << " token " << run_token;
      return inserted;
    };
    EXPECT_LT(inserted_over_halves(1), inserted_over_halves(0)) << name;
  }
}

TEST(PartitionedRunTest, CollectedTuplesAreCompleteAndSorted) {
  Graph g = ErdosRenyi(30, 90, 8);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  auto engine = CreateEngine("lftj");
  ExecOptions opts;
  opts.collect_tuples = true;
  ExecResult direct = engine->Execute(bq, opts);
  ExecResult split = PartitionedExecute(*engine, bq, opts, 2, 4);
  std::sort(direct.tuples.begin(), direct.tuples.end());
  EXPECT_EQ(split.tuples, direct.tuples);
}

// Regression: the old static partitioner computed boundaries as
// lo + span * (p + 1) / parts with span = hi - lo + 1, which overflows
// signed 64-bit the moment a relation's var0 domain spans most of the
// Value range — partitions went missing and counts came back wrong.
// Rank-based morsel boundaries are actual domain values, so extreme
// domains must count exactly, with and without a shared catalog.
TEST(PartitionedRunTest, ExtremeDomainsDoNotOverflowPartitionMath) {
  constexpr Value kLo = std::numeric_limits<Value>::min() + 2;
  constexpr Value kHi = std::numeric_limits<Value>::max() - 2;
  Relation edge(2);
  for (Value v : {kLo, kLo + 1, kLo + 7, Value{-3}, Value{0}, Value{5},
                  Value{999}, kHi - 9, kHi - 1, kHi}) {
    edge.Add({v, v});
    edge.Add({v, Value{1}});
  }
  edge.Build();
  Query q = MustParseQuery("edge(a,b)");
  BoundQuery bq = Bind(q, {{"edge", &edge}}, {"a", "b"});
  auto engine = CreateEngine("lftj");
  const ExecResult direct = engine->Execute(bq, ExecOptions{});
  ASSERT_EQ(direct.count, edge.size());
  // No catalog: the split trie is built in a catalog private to the run.
  const ExecResult cold =
      PartitionedExecute(*engine, bq, ExecOptions{}, /*num_threads=*/3,
                         /*granularity=*/8);
  EXPECT_EQ(cold.count, direct.count);
  // Shared catalog: the split trie is the catalog's resident index.
  IndexCatalog catalog;
  bq.catalog = &catalog;
  const ExecResult warm =
      PartitionedExecute(*engine, bq, ExecOptions{}, /*num_threads=*/3,
                         /*granularity=*/8);
  EXPECT_EQ(warm.count, direct.count);
}

// Regression: PartitionedExecute used to keep grinding through every
// remaining partition after one timed out. Now the first
// timed-out morsel flips the shared stop token: queued morsels skip,
// running engines wind down at their next frontier check, and the whole
// deadline run finishes promptly.
TEST(PartitionedRunTest, TimeoutCancelsRemainingMorselsPromptly) {
  Graph g = Rmat(11, 60000, 0.57, 0.19, 0.19, 3);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery(
      "edge(a,b), edge(b,c), edge(c,d), edge(d,e)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c", "d", "e"});
  IndexCatalog catalog;
  bq.catalog = &catalog;
  auto engine = CreateEngine("lftj");
  // Make the indexes resident first so the timed region is pure
  // execution, then give the run a deadline far below its full cost
  // (the 4-path on 60k skewed edges runs for many seconds).
  WarmQueryIndexes(bq);
  ExecOptions opts;
  opts.deadline = Deadline::AfterSeconds(0.02);
  Stopwatch watch;
  const ExecResult r =
      PartitionedExecute(*engine, bq, opts, /*num_threads=*/2,
                         /*granularity=*/8);
  const double elapsed = watch.ElapsedSeconds();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
      << r.status.ToString();
  // Generous bound for slow CI: the point is seconds-not-minutes — the
  // deadline is 20ms, and without propagation the run takes the query's
  // full multi-second cost.
  EXPECT_LT(elapsed, 2.0);
}

// An externally pre-stopped token cancels before any morsel runs: no
// partial counts leak and the result reads kCancelled.
TEST(PartitionedRunTest, ExternalStopTokenSkipsAllMorsels) {
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  auto engine = CreateEngine("ms");
  StopToken stop;
  stop.RequestStop();
  ExecOptions opts;
  opts.stop = &stop;
  const ExecResult r =
      PartitionedExecute(*engine, bq, opts, /*num_threads=*/3,
                         /*granularity=*/4);
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(r.count, 0u);
}

// Yannakakis reruns its whole semijoin program per call, and the clique
// engine rebuilds its forward graph and enumerates every clique, so the
// morsel scheduler runs each as one morsel. Their range-restricted
// answers are still exact: ranges that partition var0 sum to the full
// count, and each matches lftj's.
TEST(PartitionedRunTest, RangeBlindEnginesRunAsOneMorsel) {
  Graph g = ErdosRenyi(60, 200, 12);
  GraphRelations rels = MakeGraphRelations(g);
  const PartitionCase cases[] = {
      {"yannakakis", "edge(a,b), edge(b,c), edge(c,d)", {"a", "b", "c", "d"}},
      {"clique", "edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"}},
  };
  auto lftj = CreateEngine("lftj");
  for (const PartitionCase& c : cases) {
    BoundQuery bq = Bind(MustParseQuery(c.query), rels.Map(), c.gao);
    auto engine = CreateEngine(c.engine);
    ASSERT_FALSE(engine->honors_var0_range()) << c.engine;
    const ExecResult direct = engine->Execute(bq, ExecOptions{});
    ASSERT_GT(direct.count, 0u) << c.engine;
    uint64_t range_sum = 0;
    for (const auto& [lo, hi] :
         {std::pair<Value, Value>{0, 9}, {10, 29}, {30, 59}}) {
      ExecOptions ranged;
      ranged.var0_min = lo;
      ranged.var0_max = hi;
      const ExecResult part = engine->Execute(bq, ranged);
      ASSERT_TRUE(part.ok()) << c.engine << ": " << part.status.ToString();
      EXPECT_EQ(part.count, lftj->Execute(bq, ranged).count)
          << c.engine << " [" << lo << "," << hi << "]";
      range_sum += part.count;
    }
    EXPECT_EQ(range_sum, direct.count) << c.engine;
    const ExecResult split =
        PartitionedExecute(*engine, bq, ExecOptions{}, /*num_threads=*/3,
                           /*granularity=*/8);
    EXPECT_EQ(split.count, direct.count) << c.engine;
    EXPECT_GT(split.seconds, 0.0) << c.engine;  // the one-morsel path too
  }
}

// An internal timeout must propagate through the *run's* token only:
// the caller's reset-less token stays clean for its next run.
TEST(PartitionedRunTest, InternalTimeoutDoesNotPoisonCallerToken) {
  Graph g = Rmat(11, 60000, 0.57, 0.19, 0.19, 3);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge(a,b), edge(b,c), edge(c,d), edge(d,e)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c", "d", "e"});
  IndexCatalog catalog;
  bq.catalog = &catalog;
  auto engine = CreateEngine("lftj");
  WarmQueryIndexes(bq);
  StopToken caller_token;
  ExecOptions opts;
  opts.stop = &caller_token;
  opts.deadline = Deadline::AfterSeconds(0.01);
  const ExecResult r =
      PartitionedExecute(*engine, bq, opts, /*num_threads=*/2,
                         /*granularity=*/4);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded)
      << r.status.ToString();
  EXPECT_FALSE(caller_token.stop_requested());
}

// Every registered engine honors a pre-stopped token: it winds down at
// its first frontier boundary and reports kCancelled, the contract the
// morsel scheduler's cross-partition cancellation relies on. A
// pre-latched budget ends every engine the same way, with
// kBudgetExceeded.
TEST(StopTokenTest, EveryEngineHonorsARequestedStop) {
  Graph g = Rmat(8, 900, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  StopToken stop;
  stop.RequestStop();
  ExecOptions opts;
  opts.stop = &stop;
  for (const std::string& name : EngineNames()) {
    auto engine = CreateEngine(name);
    const ExecResult r = engine->Execute(bq, opts);
    EXPECT_EQ(r.status.code(), StatusCode::kCancelled)
        << name << ": " << r.status.ToString();
  }
  // A budget latched before the run starts. Each engine first runs
  // ungoverned, so every index it reads is resident and the governed run
  // charges nothing: the poll's first check must end it before it counts
  // a single answer.
  IndexCatalog catalog;
  bq.catalog = &catalog;
  MemoryBudget latched(1);
  latched.ForceCharge(2);
  ASSERT_TRUE(latched.exceeded());
  ExecOptions budget_opts;
  budget_opts.budget = &latched;
  for (const std::string& name : EngineNames()) {
    auto engine = CreateEngine(name);
    ASSERT_TRUE(engine->Execute(bq, ExecOptions{}).ok()) << name;
    const ExecResult r = engine->Execute(bq, budget_opts);
    EXPECT_EQ(r.status.code(), StatusCode::kBudgetExceeded)
        << name << ": " << r.status.ToString();
    EXPECT_EQ(r.count, 0u) << name;
  }
}

// The serving daemon's token topology: one connection token fans out to
// N request-scoped children (StopToken parent chaining). Cancelling the
// parent must reach every child; cancelling one child must never poison
// a sibling or the parent.
TEST(StopTokenTest, ParentChainFanOutCancelsAllChildrenAndOnlyChildren) {
  StopToken connection;
  constexpr int kChildren = 32;
  std::vector<std::unique_ptr<StopToken>> requests;
  for (int i = 0; i < kChildren; ++i) {
    requests.push_back(std::make_unique<StopToken>(&connection));
  }
  for (const auto& child : requests) {
    EXPECT_FALSE(child->stop_requested());
  }
  // One child winding itself down is invisible to everyone else.
  requests[7]->RequestStop();
  EXPECT_TRUE(requests[7]->stop_requested());
  EXPECT_FALSE(connection.stop_requested());
  for (int i = 0; i < kChildren; ++i) {
    if (i == 7) continue;
    EXPECT_FALSE(requests[i]->stop_requested()) << "sibling " << i;
  }
  // The parent firing reaches every child transitively.
  connection.RequestStop();
  for (int i = 0; i < kChildren; ++i) {
    EXPECT_TRUE(requests[i]->stop_requested()) << "child " << i;
  }
}

// Three-level chain (server drain root -> connection -> request): the
// root firing is observed through two hops; an intermediate firing is
// observed below but never above.
TEST(StopTokenTest, ThreeLevelChainPropagatesDownOnly) {
  StopToken root;
  StopToken connection(&root);
  StopToken request(&connection);
  connection.RequestStop();
  EXPECT_TRUE(request.stop_requested());
  EXPECT_FALSE(root.stop_requested());

  StopToken connection2(&root);
  StopToken request2(&connection2);
  root.RequestStop();
  EXPECT_TRUE(connection2.stop_requested());
  EXPECT_TRUE(request2.stop_requested());
}

// Engine-level fan-out promptness: N concurrent partitioned runs each
// hold a request token chained off one shared parent. Firing the parent
// once must wind all of them down promptly — the drain-deadline path of
// the serving daemon.
TEST(StopTokenTest, ParentCancelWindsDownConcurrentRunsPromptly) {
  Graph g = Rmat(11, 60000, 0.57, 0.19, 0.19, 3);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge(a,b), edge(b,c), edge(c,d), edge(d,e)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c", "d", "e"});
  IndexCatalog catalog;
  bq.catalog = &catalog;
  auto engine = CreateEngine("lftj");
  WarmQueryIndexes(bq);  // timed region below is pure execution
  StopToken parent;
  constexpr int kRuns = 3;
  std::vector<ExecResult> results(kRuns);
  std::vector<std::thread> threads;
  for (int i = 0; i < kRuns; ++i) {
    threads.emplace_back([&, i] {
      StopToken request(&parent);
      ExecOptions opts;
      opts.stop = &request;
      results[i] = PartitionedExecute(*engine, bq, opts, /*num_threads=*/2,
                                      /*granularity=*/4);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  parent.RequestStop();
  Stopwatch watch;
  for (auto& t : threads) t.join();
  // The query's full cost is many seconds; a generous wind-down bound
  // still proves the cancel reached every run through the chain.
  EXPECT_LT(watch.ElapsedSeconds(), 2.0);
  for (int i = 0; i < kRuns; ++i) {
    EXPECT_EQ(results[i].status.code(), StatusCode::kCancelled)
        << "run " << i;
  }
}

// A run that is already cancelled on entry (request token fired while
// the query sat in an admission queue) must fail closed before warming
// a single index — a drain storm of queued requests should not leave a
// freshly built catalog behind.
TEST(PartitionedRunTest, PreCancelledRunPerformsNoIndexBuilds) {
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  IndexCatalog catalog;
  bq.catalog = &catalog;
  auto engine = CreateEngine("lftj");
  StopToken stop;
  stop.RequestStop();
  ExecOptions opts;
  opts.stop = &stop;
  const ExecResult r =
      PartitionedExecute(*engine, bq, opts, /*num_threads=*/3,
                         /*granularity=*/4);
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(r.count, 0u);
  EXPECT_EQ(r.stats.index_builds, 0u);
  // Contrast: the same run without the cancel builds the indexes.
  const ExecResult live =
      PartitionedExecute(*engine, bq, ExecOptions{}, /*num_threads=*/3,
                         /*granularity=*/4);
  EXPECT_TRUE(live.ok());
  EXPECT_GT(live.stats.index_builds, 0u);
}

// Cancellation storm: a timer thread fires the StopToken at a random
// point during execution, across every registered engine. Whatever the
// cut lands on, the engine must return promptly in one of the two legal
// end states (kCancelled, or the exact count if it won the
// race), and the SAME warm scratch must serve an exact clean run right
// after — no partial-run state may leak into the next query. This is
// the TSan-leg companion to chaos_test's failpoint sweeps.
TEST(StopTokenTest, RandomCancellationPointsAcrossEveryEngine) {
  Graph g = Rmat(9, 3000, 0.57, 0.19, 0.19, 17);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge(a,b), edge(b,c), edge(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  const uint64_t expected =
      CreateEngine("lftj")->Execute(bq, ExecOptions{}).count;
  ASSERT_GT(expected, 0u);
  Rng rng(4242);
  ExecScratch scratch;
  for (const std::string& name : EngineNames()) {
    auto engine = CreateEngine(name);
    // Clean per-engine reference through the shared scratch, for the
    // stat-corruption check below.
    ExecOptions clean_opts;
    clean_opts.scratch = &scratch;
    const ExecResult ref = engine->Execute(bq, clean_opts);
    ASSERT_EQ(ref.count, expected) << name;
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE(name + " trial " + std::to_string(trial));
      StopToken stop;
      const int delay_us = static_cast<int>(rng.NextBounded(3000));
      std::thread timer([&stop, delay_us] {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        stop.RequestStop();
      });
      ExecOptions opts;
      opts.stop = &stop;
      opts.scratch = &scratch;
      Stopwatch watch;
      const ExecResult r = engine->Execute(bq, opts);
      timer.join();
      // Prompt return: the full query is milliseconds; seconds would
      // mean the stop was ignored.
      EXPECT_LT(watch.ElapsedSeconds(), 5.0);
      if (!r.ok()) {
        EXPECT_EQ(r.status.code(), StatusCode::kCancelled)
            << r.status.ToString();
      } else {
        EXPECT_EQ(r.count, expected);
      }
      // Scratch reusability + stat integrity: the very next clean run
      // through the same scratch is exact and deterministic.
      const ExecResult clean = engine->Execute(bq, clean_opts);
      EXPECT_EQ(clean.status.code(), StatusCode::kOk)
          << clean.status.ToString();
      EXPECT_EQ(clean.count, expected);
      EXPECT_EQ(clean.stats.seeks, ref.stats.seeks);
      EXPECT_EQ(clean.stats.constraints_inserted,
                ref.stats.constraints_inserted);
    }
  }
}

// Skew-aware split points must yield balanced morsels on power-law
// data: on an Rmat graph (hub vertices at low ids) every morsel range
// carries tuples, the max/min morsel tuple-count ratio stays bounded,
// and the old value-uniform slicing's heaviest partition is provably
// lopsided next to the quantile split's heaviest morsel.
TEST(PartitionedRunTest, MorselSplitsBalanceSkewedRmatTupleCounts) {
  Graph g = Rmat(11, 30000, 0.57, 0.19, 0.19, 7);
  GraphRelations rels = MakeGraphRelations(g);
  const Relation& edge = rels.edge;
  const TrieIndex index(edge);
  const int parts = 8;
  const std::vector<Value> splits = index.SplitPoints(parts);
  ASSERT_GE(splits.size(), 3u);
  for (size_t i = 1; i < splits.size(); ++i) {
    EXPECT_LT(splits[i - 1], splits[i]);
  }
  const Value lo = index.ColMin(0), hi = index.ColMax(0);
  auto range_counts = [&](const std::vector<Value>& bounds) {
    std::vector<uint64_t> counts(bounds.size() + 1, 0);
    for (size_t r = 0; r < edge.size(); ++r) {
      const Value v = edge.At(r, 0);
      size_t part = 0;
      while (part < bounds.size() && v > bounds[part]) ++part;
      ++counts[part];
    }
    return counts;
  };
  const std::vector<uint64_t> morsel = range_counts(splits);
  uint64_t morsel_max = 0, morsel_min = edge.size();
  for (uint64_t c : morsel) {
    morsel_max = std::max(morsel_max, c);
    morsel_min = std::min(morsel_min, c);
  }
  EXPECT_GT(morsel_min, 0u);  // no empty morsel on resident data
  EXPECT_LE(morsel_max, morsel_min * 4)
      << "morsel tuple counts out of balance";
  // The pre-change boundaries: parts equal value-width slices of
  // [lo, hi] (domain is narrow here, so the span math cannot overflow).
  std::vector<Value> uniform;
  const Value span = hi - lo + 1;
  for (int p = 1; p < parts; ++p) uniform.push_back(lo + span * p / parts - 1);
  const std::vector<uint64_t> stat = range_counts(uniform);
  const uint64_t static_max = *std::max_element(stat.begin(), stat.end());
  EXPECT_GE(static_max, morsel_max * 2)
      << "value-uniform slicing should be visibly hub-heavy on Rmat";
}

// PartitionedExecute over a caller-owned WorkerPool: the persistent
// threads serve several queries back to back and counts stay
// serial-identical, with per-worker scratch reuse visible in the stats.
TEST(PartitionedRunTest, ReusedWorkerPoolServesRepeatedQueries) {
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  auto engine = CreateEngine("ms");
  const ExecResult direct = engine->Execute(bq, ExecOptions{});
  WorkerPool pool(3);
  ExecScratchPool scratch;
  for (int run = 0; run < 3; ++run) {
    const ExecResult r = PartitionedExecute(
        *engine, bq, ExecOptions{}, /*num_threads=*/3, /*granularity=*/4,
        &scratch, &pool);
    EXPECT_EQ(r.count, direct.count) << "run " << run;
    EXPECT_EQ(r.status.code(), StatusCode::kOk) << r.status.ToString();
    EXPECT_GT(r.stats.cds_nodes_recycled, 0u) << "run " << run;
  }
}

TEST(WorkloadsTest, RegistryCoversThePaperQueries) {
  const auto& all = PaperWorkloads();
  ASSERT_EQ(all.size(), 10u);
  int cyclic = 0;
  for (const auto& w : all) cyclic += w.cyclic;
  EXPECT_EQ(cyclic, 5);  // {3,4}-clique, 4-cycle, {2,3}-lollipop
  EXPECT_EQ(WorkloadByName("3-clique").gao.size(), 3u);
  EXPECT_EQ(WorkloadByName("3-lollipop").gao.size(), 7u);
}

TEST(WorkloadsTest, BindWorkloadRunsOnADataset) {
  Graph g = ErdosRenyi(60, 200, 12);
  DatasetRelations rels(g);
  rels.Resample(8.0, 3);
  for (const char* name : {"3-clique", "3-path", "1-tree", "2-comb"}) {
    BoundQuery bq = BindWorkload(WorkloadByName(name), rels);
    ExecResult lftj = CreateEngine("lftj")->Execute(bq, ExecOptions{});
    ExecResult ms = CreateEngine("ms")->Execute(bq, ExecOptions{});
    EXPECT_EQ(lftj.count, ms.count) << name;
  }
}

TEST(WorkloadsTest, ResampleChangesSelectivity) {
  Graph g = ErdosRenyi(800, 2000, 12);
  DatasetRelations rels(g);
  rels.Resample(10.0, 1);
  const size_t at_10 = rels.Map().at("v1")->size();
  rels.Resample(100.0, 1);
  const size_t at_100 = rels.Map().at("v1")->size();
  EXPECT_GT(at_10, at_100 * 3);
}

}  // namespace
}  // namespace wcoj
