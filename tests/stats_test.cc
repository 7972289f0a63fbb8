#include <gtest/gtest.h>

#include "core/atom_index.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "graph/sampling.h"
#include "parallel/partitioned_run.h"
#include "query/parser.h"
#include "storage/catalog.h"
#include "storage/intersect.h"
#include "tests/test_util.h"

namespace wcoj {
namespace {

// These tests pin down that the implementation ideas actually engage —
// an idea that silently never fires would still pass the correctness
// sweeps but reproduce none of the paper's Tables 1-3.

BoundQuery ThreePath(const GraphRelations& rels) {
  static Query q =
      MustParseQuery("v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)");
  return Bind(q, rels.Map(), {"a", "b", "c", "d"});
}

// A run without a catalog: the GAO-index engines resolve every atom
// through a catalog private to the run, so they build and hit exactly
// as a cold run on a fresh catalog does. The pairwise engines hash-join
// instead, and Yannakakis and the clique engine never read a catalog:
// none of them reports a hit.
void ExpectNoCatalogCountersMatchCold(const Engine& engine,
                                      const ExecResult& no_catalog,
                                      const ExecResult& cold,
                                      const std::string& what) {
  if (engine.catalog_warmup() == CatalogWarmup::kGaoIndexes) {
    EXPECT_EQ(no_catalog.stats.index_builds, cold.stats.index_builds)
        << what;
    EXPECT_EQ(no_catalog.stats.index_cache_hits, cold.stats.index_cache_hits)
        << what;
  } else {
    EXPECT_EQ(no_catalog.stats.index_cache_hits, 0u) << what;
  }
}

TEST(StatsTest, MinesweeperReportsWork) {
  Graph g = Rmat(8, 900, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 10, 1);
  rels.v2 = SampleNodes(g, 10, 2);
  ExecResult r = CreateEngine("ms")->Execute(ThreePath(rels), ExecOptions{});
  EXPECT_GT(r.stats.free_tuples, 0u);
  EXPECT_GT(r.stats.constraints_inserted, 0u);
  EXPECT_GT(r.stats.seeks, 0u);
}

TEST(StatsTest, Idea4CacheFiresAndSavesSeeks) {
  Graph g = Rmat(8, 900, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 5, 1);
  rels.v2 = SampleNodes(g, 5, 2);
  BoundQuery bq = ThreePath(rels);
  ExecResult with = CreateEngine("ms")->Execute(bq, ExecOptions{});
  ExecResult without = CreateEngine("ms-noidea4")->Execute(bq, ExecOptions{});
  EXPECT_EQ(with.count, without.count);
  EXPECT_GT(with.stats.gap_cache_hits, 0u);
  EXPECT_EQ(without.stats.gap_cache_hits, 0u);
  EXPECT_LT(with.stats.seeks, without.stats.seeks);
}

TEST(StatsTest, Idea6ReducesFreeTupleSearchWork) {
  // Low selectivity => repeated sub-path classes => complete nodes engage.
  Graph g = Rmat(8, 900, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 2, 1);
  rels.v2 = SampleNodes(g, 2, 2);
  BoundQuery bq = ThreePath(rels);
  ExecResult with = CreateEngine("ms")->Execute(bq, ExecOptions{});
  ExecResult without = CreateEngine("ms-noidea6")->Execute(bq, ExecOptions{});
  EXPECT_EQ(with.count, without.count);
  // Complete nodes skip ping-pong work; at minimum they never add seeks.
  EXPECT_LE(with.stats.seeks, without.stats.seeks);
}

TEST(StatsTest, Idea7KeepsCliqueConstraintCountLinearish) {
  // With the skeleton, constraints come only from the two skeleton atoms
  // (plus domain bounds); without it, the poset regime caches exact-prefix
  // specializations and inserts far more.
  Graph g = ErdosRenyi(300, 1200, 21);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  ExecResult with = CreateEngine("ms")->Execute(bq, ExecOptions{});
  ExecResult without = CreateEngine("ms-noidea7")->Execute(bq, ExecOptions{});
  EXPECT_EQ(with.count, without.count);
  EXPECT_LT(with.stats.constraints_inserted,
            without.stats.constraints_inserted);
}

TEST(StatsTest, CountingMinesweeperDrainsClasses) {
  // #ms must produce the same count while reporting fewer free tuples
  // than plain ms once classes repeat (selectivity 2 on a small graph).
  Graph g = Rmat(7, 500, 0.57, 0.19, 0.19, 29);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 2, 1);
  rels.v2 = SampleNodes(g, 2, 2);
  BoundQuery bq = ThreePath(rels);
  ExecResult ms = CreateEngine("ms")->Execute(bq, ExecOptions{});
  ExecResult cms = CreateEngine("#ms")->Execute(bq, ExecOptions{});
  EXPECT_EQ(ms.count, cms.count);
  EXPECT_LE(cms.stats.free_tuples, ms.stats.free_tuples);
}

TEST(StatsTest, LftjSeeksScaleWithWork) {
  Graph small = ErdosRenyi(100, 300, 31);
  Graph large = ErdosRenyi(1000, 3000, 31);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  GraphRelations rs = MakeGraphRelations(small);
  GraphRelations rl = MakeGraphRelations(large);
  ExecResult s = CreateEngine("lftj")->Execute(
      Bind(q, rs.Map(), {"a", "b", "c"}), ExecOptions{});
  ExecResult l = CreateEngine("lftj")->Execute(
      Bind(q, rl.Map(), {"a", "b", "c"}), ExecOptions{});
  EXPECT_GT(l.stats.seeks, s.stats.seeks);
}

// Count-only LFTJ counts the last variable with one span intersection
// per binding of the others instead of leapfrogging it: the answer is
// the same and the seek counter — iterator seeks plus the intersection's
// bound searches — drops.
TEST(StatsTest, LftjCountOnlyRunSeeksLessThanCollecting) {
  Graph g = ErdosRenyi(1000, 6000, 31);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  GraphRelations rels = MakeGraphRelations(g);
  const BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  ExecOptions collect;
  collect.collect_tuples = true;
  const ExecResult full = CreateEngine("lftj")->Execute(bq, collect);
  const ExecResult counted = CreateEngine("lftj")->Execute(bq, ExecOptions{});
  ASSERT_GT(full.count, 0u);
  EXPECT_EQ(counted.count, full.count);
  EXPECT_EQ(full.tuples.size(), full.count);
  EXPECT_LT(counted.stats.seeks, full.stats.seeks);
}

// The intersection's seek accounting: a window clamp or a gallop step
// is a bound search and counts as a probe (reported as a seek); keys a
// linear merge steps over are work, not probes.
TEST(StatsTest, IntersectCountsGallopProbesNotMergedKeys) {
  auto level = [](Value n, Value step) {
    std::vector<Value> keys;
    for (Value v = 0; v < n; ++v) keys.push_back(v * step);
    LevelKeys k;
    k.Build(std::move(keys), /*compressible=*/false);
    return k;
  };
  const LevelKeys short_keys = level(10, 3);  // 0, 3, ..., 27
  const LevelKeys long_keys = level(100, 1);  // 0..99: 10x longer
  const LevelKeys mid_keys = level(20, 1);    // 0..19: 2x longer
  SpanIntersector intersector;
  {
    // Skewed pair: each of the short span's 10 keys gallops once.
    KeySpan spans[] = {{&short_keys, 0, 10}, {&long_keys, 0, 100}};
    IntersectWork work;
    EXPECT_EQ(intersector.Count(spans, kNegInf, kPosInf, &work), 10u);
    EXPECT_EQ(work.probes, 10u);
    EXPECT_EQ(work.merged, 0u);
  }
  {
    // Comparable pair: one merge, no probes.
    KeySpan spans[] = {{&short_keys, 0, 10}, {&mid_keys, 0, 20}};
    IntersectWork work;
    EXPECT_EQ(intersector.Count(spans, kNegInf, kPosInf, &work), 7u);
    EXPECT_EQ(work.probes, 0u);
    EXPECT_GT(work.merged, 0u);
  }
  {
    // Window [4, 15]: one clamp search per span end that lies outside
    // (short's both ends, mid's both ends), then a merge of 4 vs 12.
    KeySpan spans[] = {{&short_keys, 0, 10}, {&mid_keys, 0, 20}};
    IntersectWork work;
    EXPECT_EQ(intersector.Count(spans, 4, 15, &work), 4u);  // 6 9 12 15
    EXPECT_EQ(work.probes, 4u);
  }
}

TEST(StatsTest, PairwiseIntermediatesExplodeOnCliques) {
  // The asymptotic story of the whole paper, as a stats assertion: the
  // pairwise engine's intermediate volume grows superlinearly in edges on
  // the triangle query while LFTJ's seek count stays near-linear.
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  Graph g1 = ErdosRenyi(400, 1600, 37);
  Graph g2 = ErdosRenyi(1600, 6400, 37);
  GraphRelations r1 = MakeGraphRelations(g1);
  GraphRelations r2 = MakeGraphRelations(g2);
  ExecResult p1 = CreateEngine("psql")->Execute(
      Bind(q, r1.Map(), {"a", "b", "c"}), ExecOptions{});
  ExecResult p2 = CreateEngine("psql")->Execute(
      Bind(q, r2.Map(), {"a", "b", "c"}), ExecOptions{});
  const double edge_ratio = static_cast<double>(g2.num_edges()) /
                            static_cast<double>(g1.num_edges());
  const double inter_ratio =
      static_cast<double>(p2.stats.intermediate_tuples) /
      static_cast<double>(std::max<uint64_t>(p1.stats.intermediate_tuples, 1));
  EXPECT_GT(inter_ratio, edge_ratio);  // superlinear blowup
}

// A query without a catalog resolves its atoms through a catalog
// private to the run: the three `edge` atoms share one trie, and the
// counters equal those of a cold run on a fresh catalog.
TEST(StatsTest, NoCatalogRunCountsLikeAColdCatalogRun) {
  Graph g = Rmat(7, 400, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 5, 1);
  rels.v2 = SampleNodes(g, 5, 2);
  const BoundQuery bq = ThreePath(rels);  // v1, v2, edge, edge, edge
  for (const char* name : {"lftj", "ms"}) {
    const ExecResult r = CreateEngine(name)->Execute(bq, ExecOptions{});
    EXPECT_EQ(r.stats.index_builds, 3u) << name;
    EXPECT_EQ(r.stats.index_cache_hits, 2u) << name;
    IndexCatalog catalog;
    BoundQuery cold_q = bq;
    cold_q.catalog = &catalog;
    const ExecResult cold = CreateEngine(name)->Execute(cold_q, ExecOptions{});
    EXPECT_EQ(r.count, cold.count) << name;
    EXPECT_EQ(r.stats.index_builds, cold.stats.index_builds) << name;
    EXPECT_EQ(r.stats.index_cache_hits, cold.stats.index_cache_hits) << name;
  }
}

TEST(StatsTest, WarmCatalogRunBuildsNothing) {
  Graph g = Rmat(7, 400, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 5, 1);
  rels.v2 = SampleNodes(g, 5, 2);
  for (const char* name : {"lftj", "ms", "hybrid"}) {
    IndexCatalog catalog;
    BoundQuery bq = ThreePath(rels);
    bq.catalog = &catalog;
    // Cold: `edge` appears three times under the same permutation, so
    // only 3 of the 5 atom indexes are distinct (v1, v2, edge).
    ExecResult cold = CreateEngine(name)->Execute(bq, ExecOptions{});
    EXPECT_GT(cold.stats.index_builds, 0u) << name;
    EXPECT_EQ(catalog.size(), cold.stats.index_builds) << name;
    // Warm: every index is resident — zero builds, all hits.
    ExecResult warm = CreateEngine(name)->Execute(bq, ExecOptions{});
    EXPECT_EQ(warm.count, cold.count) << name;
    EXPECT_EQ(warm.stats.index_builds, 0u) << name;
    EXPECT_GT(warm.stats.index_cache_hits, 0u) << name;
  }
}

TEST(StatsTest, CatalogPathMatchesNoCatalogRunForEveryEngine) {
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 3.0, 4);
  rels.v2 = SampleNodes(g, 3.0, 5);
  const std::pair<const char*, std::vector<std::string>> queries[] = {
      {"edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"}},
      {"v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)",
       {"a", "b", "c", "d"}},
  };
  for (const auto& [text, gao] : queries) {
    BoundQuery no_catalog_q = Bind(MustParseQuery(text), rels.Map(), gao);
    for (const std::string& name : EngineNames()) {
      auto engine = CreateEngine(name);
      const ExecResult no_catalog =
          engine->Execute(no_catalog_q, ExecOptions{});
      IndexCatalog catalog;
      BoundQuery catalog_q = no_catalog_q;
      catalog_q.catalog = &catalog;
      // Twice: cold (building through the catalog) and warm (resident).
      const ExecResult cold = engine->Execute(catalog_q, ExecOptions{});
      const ExecResult warm = engine->Execute(catalog_q, ExecOptions{});
      EXPECT_EQ(cold.status.code(), no_catalog.status.code())
          << name << " " << text;
      EXPECT_EQ(cold.count, no_catalog.count) << name << " " << text;
      EXPECT_EQ(warm.count, no_catalog.count) << name << " " << text;
      ExpectNoCatalogCountersMatchCold(*engine, no_catalog, cold,
                                       name + " " + text);
    }
  }
}

TEST(StatsTest, CdsArenaCountersEngagePerEngine) {
  // The cds_* counters are a CDS property: every Minesweeper flavor
  // must report arena traffic, every CDS-free engine must report zeros.
  Graph g = Rmat(7, 400, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 5, 1);
  rels.v2 = SampleNodes(g, 5, 2);
  BoundQuery bq = ThreePath(rels);
  for (const std::string& name : EngineNames()) {
    const ExecResult r = CreateEngine(name)->Execute(bq, ExecOptions{});
    const bool uses_cds = name.find("ms") != std::string::npos ||
                          name == "hybrid";
    if (uses_cds) {
      EXPECT_GT(r.stats.cds_nodes_allocated, 0u) << name;
      EXPECT_GT(r.stats.cds_peak_arena_bytes, 0u) << name;
    } else {
      EXPECT_EQ(r.stats.cds_nodes_allocated, 0u) << name;
      EXPECT_EQ(r.stats.cds_nodes_recycled, 0u) << name;
      EXPECT_EQ(r.stats.cds_peak_arena_bytes, 0u) << name;
    }
  }
}

TEST(StatsTest, WarmScratchRunPerformsZeroCdsHeapAllocation) {
  // The PR 4 acceptance bar: re-running on a warm ExecScratch serves
  // every CDS node from recycled arena memory — cds_nodes_allocated is
  // exactly zero and the arena footprint stops growing.
  Graph g = Rmat(7, 400, 0.57, 0.19, 0.19, 13);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 5, 1);
  rels.v2 = SampleNodes(g, 5, 2);
  BoundQuery bq = ThreePath(rels);
  for (const char* name : {"ms", "#ms", "ms-noidea7"}) {
    auto engine = CreateEngine(name);
    ExecScratch scratch;
    ExecOptions opts;
    opts.scratch = &scratch;
    const ExecResult cold = engine->Execute(bq, opts);
    EXPECT_GT(cold.stats.cds_nodes_allocated, 0u) << name;
    const ExecResult warm = engine->Execute(bq, opts);
    EXPECT_EQ(warm.count, cold.count) << name;
    EXPECT_EQ(warm.stats.cds_nodes_allocated, 0u) << name;
    EXPECT_GT(warm.stats.cds_nodes_recycled, 0u) << name;
    EXPECT_EQ(warm.stats.cds_peak_arena_bytes,
              cold.stats.cds_peak_arena_bytes)
        << name;
  }
}

TEST(StatsTest, ScratchDoesNotChangeResultsOrWorkCounters) {
  // The arena is storage only: with and without a scratch, every
  // engine-visible behaviour (counts, seeks, inserts, free tuples) must
  // be identical, cold and warm.
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  Query q = MustParseQuery("edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)");
  BoundQuery bq = Bind(q, rels.Map(), {"a", "b", "c"});
  for (const char* name : {"ms", "ms-noidea7", "hybrid"}) {
    auto engine = CreateEngine(name);
    const ExecResult plain = engine->Execute(bq, ExecOptions{});
    ExecScratch scratch;
    ExecOptions opts;
    opts.scratch = &scratch;
    for (int run = 0; run < 2; ++run) {
      const ExecResult r = engine->Execute(bq, opts);
      EXPECT_EQ(r.count, plain.count) << name << " run=" << run;
      EXPECT_EQ(r.stats.seeks, plain.stats.seeks) << name << " run=" << run;
      EXPECT_EQ(r.stats.constraints_inserted,
                plain.stats.constraints_inserted)
          << name << " run=" << run;
      EXPECT_EQ(r.stats.free_tuples, plain.stats.free_tuples)
          << name << " run=" << run;
    }
  }
}

TEST(StatsTest, IndexCounterAccountingIsLayoutInvariant) {
  // Catalog behavior must be invariant under the index's internal
  // layout: for every registered engine, repeated cold runs report
  // identical output counts and identical index_builds /
  // index_cache_hits (the counters are a function of the query plan,
  // not of how an index stores its keys), and a warm run resolves
  // every index from cache.
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 3.0, 4);
  rels.v2 = SampleNodes(g, 3.0, 5);
  const std::pair<const char*, std::vector<std::string>> queries[] = {
      {"edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"}},
      {"v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)",
       {"a", "b", "c", "d"}},
  };
  for (const auto& [text, gao] : queries) {
    BoundQuery no_catalog_q = Bind(MustParseQuery(text), rels.Map(), gao);
    for (const std::string& name : EngineNames()) {
      auto engine = CreateEngine(name);
      const ExecResult no_catalog =
          engine->Execute(no_catalog_q, ExecOptions{});
      IndexCatalog catalog_a, catalog_b;
      BoundQuery qa = no_catalog_q, qb = no_catalog_q;
      qa.catalog = &catalog_a;
      qb.catalog = &catalog_b;
      const ExecResult cold_a = engine->Execute(qa, ExecOptions{});
      const ExecResult cold_b = engine->Execute(qb, ExecOptions{});
      EXPECT_EQ(cold_a.count, no_catalog.count) << name << " " << text;
      EXPECT_EQ(cold_b.count, no_catalog.count) << name << " " << text;
      EXPECT_EQ(cold_a.stats.index_builds, cold_b.stats.index_builds)
          << name << " " << text;
      EXPECT_EQ(cold_a.stats.index_cache_hits, cold_b.stats.index_cache_hits)
          << name << " " << text;
      ExpectNoCatalogCountersMatchCold(*engine, no_catalog, cold_a,
                                       name + " " + text);
      // Warm rerun on catalog_a: every resolution is a cache hit.
      const ExecResult warm = engine->Execute(qa, ExecOptions{});
      EXPECT_EQ(warm.count, no_catalog.count) << name << " " << text;
      if (engine->catalog_warmup() != CatalogWarmup::kNone) {
        EXPECT_EQ(warm.stats.index_builds, 0u) << name << " " << text;
        EXPECT_EQ(warm.stats.index_cache_hits,
                  cold_a.stats.index_builds + cold_a.stats.index_cache_hits)
            << name << " " << text;
      }
    }
  }
}

TEST(StatsTest, ParallelWarmAccountingMatchesSerialWarm) {
  // WarmQueryIndexesParallel's concurrent per-atom jobs, which rely on
  // the catalog reporting each key's build to exactly one caller, must
  // keep the per-atom build/hit accounting bit-identical to the serial
  // WarmQueryIndexes, cold and warm, on queries mixing repeated and
  // distinct (relation, permutation) keys.
  Graph g = Rmat(7, 420, 0.57, 0.19, 0.19, 31);
  GraphRelations rels = MakeGraphRelations(g);
  rels.v1 = SampleNodes(g, 3.0, 4);
  rels.v2 = SampleNodes(g, 3.0, 5);
  const std::pair<const char*, std::vector<std::string>> queries[] = {
      {"edge_lt(a,b), edge_lt(b,c), edge_lt(a,c)", {"a", "b", "c"}},
      {"v1(a), v2(d), edge(a,b), edge(b,c), edge(c,d)",
       {"a", "b", "c", "d"}},
      {"edge(a,b), edge(b,c), edge(c,a), edge(a,c)", {"a", "b", "c"}},
  };
  for (const auto& [text, gao] : queries) {
    BoundQuery bq = Bind(MustParseQuery(text), rels.Map(), gao);
    IndexCatalog serial_catalog, parallel_catalog;
    bq.catalog = &serial_catalog;
    const EngineStats serial_cold = WarmQueryIndexes(bq);
    const EngineStats serial_warm = WarmQueryIndexes(bq);
    bq.catalog = &parallel_catalog;
    WorkerPool pool(4);
    const EngineStats parallel_cold = WarmQueryIndexesParallel(bq, pool);
    const EngineStats parallel_warm = WarmQueryIndexesParallel(bq, pool);
    EXPECT_EQ(parallel_cold.index_builds, serial_cold.index_builds) << text;
    EXPECT_EQ(parallel_cold.index_cache_hits, serial_cold.index_cache_hits)
        << text;
    EXPECT_EQ(parallel_warm.index_builds, serial_warm.index_builds) << text;
    EXPECT_EQ(parallel_warm.index_cache_hits, serial_warm.index_cache_hits)
        << text;
    EXPECT_EQ(parallel_catalog.builds(), serial_catalog.builds()) << text;
    EXPECT_EQ(parallel_catalog.size(), serial_catalog.size()) << text;
  }
}

}  // namespace
}  // namespace wcoj
