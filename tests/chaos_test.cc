// Randomized fault-injection ("chaos") suite for the resource governor
// and failpoint layer. The contract under test: *no query can kill the
// process*. For every fault schedule — an armed failpoint, a starved
// memory budget, or both — an execution must end in exactly one of two
// states:
//
//   1. clean success: status OK, bit-identical count;
//   2. clean failure: status non-OK, and the process, the scratch
//      arenas, and any on-disk catalog all reusable.
//
// Sweeps use counting mode to measure n = the number of failpoint
// evaluations on the fault-free path, then re-run injecting at every
// k in [1, n], so every reachable injection point is exercised (the
// technique SQLite's test harness uses for OOM/IO fault coverage).
// A global schedule counter asserts the whole file runs >= 200 fault
// schedules. The ASan/UBSan CI leg runs this binary, so "no leaks
// under injected faults" is checked for real, not by inspection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/workloads.h"
#include "core/atom_index.h"
#include "core/engine.h"
#include "parallel/partitioned_run.h"
#include "query/parser.h"
#include "storage/catalog.h"
#include "storage/persist.h"
#include "storage/relation.h"
#include "util/failpoint.h"
#include "util/mem_budget.h"
#include "util/rng.h"
#include "util/status.h"

namespace wcoj {
namespace {

// Fault schedules executed across the whole file; the last test asserts
// the >= 200 floor promised by the CI chaos leg. gtest runs tests in
// declaration order unless shuffled, and the floor test is declared
// last.
int g_schedules = 0;

std::string TestDir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "wcoj_chaos_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Relation TriangleEdges(uint64_t seed) {
  Relation edge(2);
  Rng rng(seed);
  for (int i = 0; i < 400; ++i) {
    const Value a = static_cast<Value>(rng.NextBounded(60));
    const Value b = static_cast<Value>(rng.NextBounded(60));
    if (a == b) continue;
    edge.Add({a, b});
    edge.Add({b, a});
  }
  edge.Build();
  return edge;
}

// Fixture owning one triangle query and its fault-free answer. Every
// run gets a fresh catalog (a failed build erases its slot, but a fresh
// catalog keeps schedules independent) and fresh scratch unless a test
// deliberately reuses one.
class ChaosTest : public testing::Test {
 protected:
  void SetUp() override {
    FailPoints::DisarmAll();
    FailPoints::SetCounting(false);
    FailPoints::ResetCounters();
    edge_ = TriangleEdges(7);
    q_ = MustParseQuery("edge(a,b), edge(b,c), edge(a,c)");
    bq_ = Bind(q_, {{"edge", &edge_}}, {"a", "b", "c"});
    expected_ = CreateEngine("lftj")->Execute(bq_, ExecOptions{}).count;
    ASSERT_GT(expected_, 0u);
  }
  void TearDown() override {
    FailPoints::DisarmAll();
    FailPoints::SetCounting(false);
  }

  ExecResult Run(const std::string& engine, const ExecOptions& opts = {},
                 IndexCatalog* catalog = nullptr) {
    BoundQuery q = bq_;
    q.catalog = catalog;
    return CreateEngine(engine)->Execute(q, opts);
  }

  // A run that claims success must be bit-identical.
  void CheckOutcome(const ExecResult& r, const std::string& what) {
    if (r.ok()) {
      EXPECT_EQ(r.count, expected_) << what;
    } else {
      EXPECT_EQ(r.count, 0u) << what << ": a failed run carries no answer";
    }
    ++g_schedules;
  }

  // Measures n = evaluations of `name` during `body` on the fault-free
  // path (counting mode: tallied, never fired).
  template <typename Body>
  uint64_t CountHits(const std::string& name, Body&& body) {
    FailPoints::DisarmAll();
    FailPoints::ResetCounters();
    FailPoints::SetCounting(true);
    body();
    FailPoints::SetCounting(false);
    return FailPoints::Hits(name);
  }

  Relation edge_{2};
  Query q_;
  BoundQuery bq_;
  uint64_t expected_ = 0;
};

// --- CDS arena slab faults -------------------------------------------------

// Every slab-growth point of a minesweeper run is swept: the injected
// allocation failure must surface as kResourceExhausted, never a crash
// or a wrong count, and a clean re-run right after must be exact.
TEST_F(ChaosTest, ArenaSlabFaultSweepMs) {
  const uint64_t n = CountHits("arena.slab", [&] {
    const ExecResult r = Run("ms");
    ASSERT_EQ(r.count, expected_);
  });
  ASSERT_GE(n, 1u) << "ms never grew a CDS slab; sweep is vacuous";
  for (uint64_t k = 1; k <= n; ++k) {
    SCOPED_TRACE("arena.slab k=" + std::to_string(k));
    FailPoints::Arm("arena.slab", k);
    const ExecResult r = Run("ms");
    EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted)
        << r.status.ToString();
    ++g_schedules;
    FailPoints::Disarm("arena.slab");
    const ExecResult clean = Run("ms");
    CheckOutcome(clean, "clean rerun after arena fault");
    EXPECT_EQ(clean.status.code(), StatusCode::kOk) << clean.status.ToString();
  }
}

// Same sweep through warm pooled scratch: an injected fault must not
// poison the pooled arena for the next query (the latch is cleared and
// the budget detached on every engine exit).
TEST_F(ChaosTest, ArenaFaultDoesNotPoisonPooledScratch) {
  ExecScratch scratch;
  ExecOptions opts;
  opts.scratch = &scratch;
  const ExecResult warmup = Run("ms", opts);
  ASSERT_EQ(warmup.count, expected_);
  // The warm arena may or may not grow again; arm unbounded so whatever
  // growth happens fires.
  FailPoints::Arm("arena.slab", 1, /*times=*/-1);
  const ExecResult faulted = Run("ms", opts);
  ++g_schedules;
  FailPoints::Disarm("arena.slab");
  if (!faulted.ok()) {
    EXPECT_EQ(faulted.status.code(), StatusCode::kResourceExhausted);
  } else {
    EXPECT_EQ(faulted.count, expected_);  // warm arena never grew: fine
  }
  const ExecResult clean = Run("ms", opts);
  CheckOutcome(clean, "pooled scratch after arena fault");
  EXPECT_EQ(clean.status.code(), StatusCode::kOk) << clean.status.ToString();
}

// --- Trie build faults -----------------------------------------------------

// Sweep every index build of a cold lftj run. A failed build must
// propagate as a non-OK result; because a failed build's catalog slot
// is erased, the immediate disarmed re-run on the SAME catalog must
// rebuild and answer exactly.
TEST_F(ChaosTest, TrieBuildFaultSweepLftjCatalog) {
  uint64_t n = 0;
  {
    IndexCatalog count_catalog;
    n = CountHits("trie.build", [&] {
      const ExecResult r = Run("lftj", ExecOptions{}, &count_catalog);
      ASSERT_EQ(r.count, expected_);
    });
  }
  ASSERT_GE(n, 1u);
  for (uint64_t k = 1; k <= n; ++k) {
    SCOPED_TRACE("trie.build k=" + std::to_string(k));
    IndexCatalog catalog;
    FailPoints::Arm("trie.build", k);
    const ExecResult r = Run("lftj", ExecOptions{}, &catalog);
    EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted)
        << r.status.ToString();
    ++g_schedules;
    FailPoints::Disarm("trie.build");
    const ExecResult retry = Run("lftj", ExecOptions{}, &catalog);
    CheckOutcome(retry, "same-catalog retry after build fault");
    EXPECT_EQ(retry.status.code(), StatusCode::kOk) << retry.status.ToString();
  }
}

// --- Memory budget sweep ---------------------------------------------------

// Budgets from "nothing fits" to "everything fits", across the engines
// with materially different allocation profiles. Every refusal must be
// kBudgetExceeded; every success must be exact; a generous budget must
// succeed and report a nonzero peak.
TEST_F(ChaosTest, BudgetLimitSweepAllProfiles) {
  const char* engines[] = {"lftj", "ms", "hybrid", "psql", "yannakakis"};
  bool saw_refusal = false;
  for (const char* engine : engines) {
    for (uint64_t limit = 1u << 12; limit <= (1ull << 32); limit <<= 2) {
      SCOPED_TRACE(std::string(engine) + " limit=" + std::to_string(limit));
      MemoryBudget budget(limit);
      ExecOptions opts;
      opts.budget = &budget;
      IndexCatalog catalog;
      const ExecResult r = Run(engine, opts, &catalog);
      if (!r.ok()) {
        saw_refusal = true;
        EXPECT_EQ(r.status.code(), StatusCode::kBudgetExceeded)
            << r.status.ToString();
      } else {
        EXPECT_EQ(r.count, expected_);
        EXPECT_GT(r.stats.peak_budget_bytes, 0u);
        EXPECT_LE(r.stats.peak_budget_bytes, limit);
      }
      ++g_schedules;
    }
    // Unlimited-but-accounted: must succeed whatever the profile.
    MemoryBudget unlimited(0);
    ExecOptions opts;
    opts.budget = &unlimited;
    IndexCatalog catalog;
    const ExecResult r = Run(engine, opts, &catalog);
    CheckOutcome(r, std::string(engine) + " unlimited budget");
    EXPECT_EQ(r.status.code(), StatusCode::kOk) << r.status.ToString();
  }
  EXPECT_TRUE(saw_refusal) << "no budget ever refused; sweep is vacuous";
}

// --- Persist faults: the catalog is never half-written ---------------------

class PersistChaosTest : public ChaosTest {
 protected:
  // Builds a Database over edge_ and warms its catalog (one query per
  // engine family so several permutations are resident).
  std::unique_ptr<Database> WarmDb() {
    auto db = std::make_unique<Database>();
    db->Put("edge", edge_.Permuted({0, 1}));
    BoundQuery bq = Bind(q_, *db, {"a", "b", "c"});
    const ExecResult r = CreateEngine("lftj")->Execute(bq, ExecOptions{});
    EXPECT_EQ(r.count, expected_);
    return db;
  }

  // The fail-closed oracle for a directory a faulted SaveTo touched:
  // no stray tmp files, every published index file verifies, and a
  // fresh process either warm-starts cleanly or falls back to building
  // — in both cases answering exactly.
  void CheckDirNeverHalfWritten(const std::string& dir,
                                bool expect_manifest) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      EXPECT_EQ(name.find(".tmp"), std::string::npos)
          << "stray tmp file: " << name;
      if (entry.path().extension() == ".wct") {
        const Status v = VerifyIndexFile(entry.path().string());
        EXPECT_TRUE(v.ok()) << name << ": " << v.ToString();
      }
    }
    Database fresh;
    fresh.Put("edge", edge_.Permuted({0, 1}));
    CatalogOpenStats stats;
    fresh.LoadCatalog(dir, &stats);
    if (expect_manifest) {
      EXPECT_TRUE(stats.status.ok()) << stats.status.ToString();
      EXPECT_EQ(stats.skipped, 0u);
      EXPECT_GT(stats.installed, 0u);
    } else {
      EXPECT_FALSE(stats.status.ok());
      EXPECT_EQ(stats.installed, 0u);
    }
    BoundQuery bq = Bind(q_, fresh, {"a", "b", "c"});
    const ExecResult r = CreateEngine("lftj")->Execute(bq, ExecOptions{});
    EXPECT_EQ(r.status.code(), StatusCode::kOk) << r.status.ToString();
    EXPECT_EQ(r.count, expected_);
  }
};

// Sweep every IO point of a cold SaveTo: whatever step fails, the fresh
// directory must never publish a manifest (fail-closed), and a prior
// COMPLETE catalog in the directory must survive a faulted re-save
// untouched (the manifest is replaced only by atomic rename).
TEST_F(PersistChaosTest, SaveFaultSweepNeverPublishesPartialCatalog) {
  const char* points[] = {"persist.write", "persist.rename",
                          "persist.manifest.write",
                          "persist.manifest.commit"};
  for (const char* point : points) {
    uint64_t n = 0;
    {
      const std::string dir = TestDir("save_count");
      auto db = WarmDb();
      n = CountHits(point, [&] {
        Status st;
        ASSERT_GT(db->SaveCatalog(dir, &st), 0u) << st.ToString();
      });
    }
    ASSERT_GE(n, 1u) << point;
    for (uint64_t k = 1; k <= n; ++k) {
      SCOPED_TRACE(std::string(point) + " k=" + std::to_string(k));
      // Cold directory: the faulted save must publish nothing.
      {
        const std::string dir = TestDir("save_cold");
        auto db = WarmDb();
        FailPoints::Arm(point, k);
        Status st;
        db->SaveCatalog(dir, &st);
        FailPoints::Disarm(point);
        EXPECT_FALSE(st.ok());
        EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
        CheckDirNeverHalfWritten(dir, /*expect_manifest=*/false);
        ++g_schedules;
      }
      // Warm directory: a complete catalog already on disk must survive
      // the faulted re-save bit-for-bit usable.
      {
        const std::string dir = TestDir("save_warm");
        auto db = WarmDb();
        Status st;
        ASSERT_GT(db->SaveCatalog(dir, &st), 0u) << st.ToString();
        FailPoints::Arm(point, k);
        Status faulted;
        db->SaveCatalog(dir, &faulted);
        FailPoints::Disarm(point);
        EXPECT_FALSE(faulted.ok());
        CheckDirNeverHalfWritten(dir, /*expect_manifest=*/true);
        ++g_schedules;
      }
    }
  }
}

// Sweep every IO point of a warm-start open: a fault while mapping or
// reading one index file demotes exactly that file to a counted,
// explained skip; queries rebuild and answer exactly.
TEST_F(PersistChaosTest, OpenFaultSweepDegradesToCleanSkips) {
  const std::string dir = TestDir("open");
  size_t saved = 0;
  {
    auto db = WarmDb();
    Status st;
    saved = db->SaveCatalog(dir, &st);
    ASSERT_GT(saved, 0u) << st.ToString();
  }
  for (const char* point : {"persist.mmap", "persist.read"}) {
    const uint64_t n = CountHits(point, [&] {
      Database db;
      db.Put("edge", edge_.Permuted({0, 1}));
      CatalogOpenStats stats;
      ASSERT_EQ(db.LoadCatalog(dir, &stats), saved)
          << stats.status.ToString();
    });
    ASSERT_GE(n, 1u) << point;
    for (uint64_t k = 1; k <= n; ++k) {
      SCOPED_TRACE(std::string(point) + " k=" + std::to_string(k));
      Database db;
      db.Put("edge", edge_.Permuted({0, 1}));
      FailPoints::Arm(point, k);
      CatalogOpenStats stats;
      const size_t installed = db.LoadCatalog(dir, &stats);
      FailPoints::Disarm(point);
      EXPECT_TRUE(stats.status.ok()) << stats.status.ToString();
      EXPECT_GE(stats.skipped, 1u);
      EXPECT_EQ(stats.installed + stats.skipped, saved);
      EXPECT_EQ(installed, stats.installed);
      EXPECT_EQ(stats.skip_log.size(), stats.skipped);
      for (const std::string& line : stats.skip_log) {
        EXPECT_NE(line.find(":"), std::string::npos) << line;
      }
      BoundQuery bq = Bind(q_, db, {"a", "b", "c"});
      const ExecResult r = CreateEngine("lftj")->Execute(bq, ExecOptions{});
      EXPECT_EQ(r.status.code(), StatusCode::kOk) << r.status.ToString();
      EXPECT_EQ(r.count, expected_);
      ++g_schedules;
    }
  }
}

// --- Worker job faults -----------------------------------------------------

// Sweep the job boundary of a partitioned run: an injected fault in any
// morsel must cancel the siblings and surface ONE aggregate error (the
// injected kInternal, not the secondary kCancelled the stopped siblings
// report), and the run must be cleanly repeatable.
TEST_F(ChaosTest, WorkerJobFaultSweepPartitionedRun) {
  IndexCatalog catalog;
  bq_.catalog = &catalog;
  auto engine = CreateEngine("lftj");
  WarmQueryIndexes(bq_);
  auto run = [&] {
    return PartitionedExecute(*engine, bq_, ExecOptions{}, /*num_threads=*/3,
                              /*granularity=*/4);
  };
  const uint64_t n = CountHits("worker.job", [&] {
    const ExecResult r = run();
    ASSERT_EQ(r.count, expected_);
  });
  ASSERT_GE(n, 2u) << "expected several morsel jobs";
  for (uint64_t k = 1; k <= n; ++k) {
    SCOPED_TRACE("worker.job k=" + std::to_string(k));
    FailPoints::Arm("worker.job", k);
    const ExecResult r = run();
    FailPoints::Disarm("worker.job");
    EXPECT_EQ(r.status.code(), StatusCode::kInternal) << r.status.ToString();
    EXPECT_NE(r.status.message().find("worker job"), std::string::npos);
    // The morsels that ran before the fault must not leak a partial
    // count: a failed run carries no answer.
    EXPECT_EQ(r.count, 0u);
    ++g_schedules;
    const ExecResult clean = run();
    CheckOutcome(clean, "clean rerun after worker fault");
    EXPECT_EQ(clean.status.code(), StatusCode::kOk) << clean.status.ToString();
  }
}

// --- Randomized schedules --------------------------------------------------

// Seeded random storm over (failpoint, k, engine, budget): whatever
// combination fires — or none — every run lands in one of the two legal
// end states. This is the breadth pass on top of the exhaustive sweeps
// above.
TEST_F(ChaosTest, RandomizedFaultSchedules) {
  const char* points[] = {"arena.slab",      "trie.build",
                          "persist.write",   "persist.mmap",
                          "persist.read",    "worker.job",
                          "persist.rename",  "persist.manifest.write",
                          "persist.manifest.commit"};
  const char* engines[] = {"lftj", "ms", "hybrid", "psql", "yannakakis"};
  Rng rng(20260808);
  for (int i = 0; i < 150; ++i) {
    const char* point = points[rng.NextBounded(9)];
    const char* engine = engines[rng.NextBounded(5)];
    const uint64_t k = 1 + rng.NextBounded(12);
    const bool governed = rng.NextBounded(2) == 0;
    SCOPED_TRACE(std::string("i=") + std::to_string(i) + " " + point +
                 " k=" + std::to_string(k) + " " + engine +
                 (governed ? " governed" : ""));
    FailPoints::DisarmAll();
    FailPoints::Arm(point, k);
    MemoryBudget budget(governed ? (1ull << 22) + (rng.NextBounded(1 << 24))
                                 : 0);
    ExecOptions opts;
    opts.budget = &budget;
    IndexCatalog catalog;
    const ExecResult r = Run(engine, opts, &catalog);
    FailPoints::DisarmAll();
    if (r.ok()) {
      EXPECT_EQ(r.count, expected_);
    }
    ++g_schedules;
  }
}

// Declared last: the CI chaos leg promises a >= 200 schedule sweep.
TEST(ChaosScheduleFloor, AtLeastTwoHundredSchedulesRan) {
  EXPECT_GE(g_schedules, 200) << "chaos coverage shrank below the CI floor";
}

}  // namespace
}  // namespace wcoj
